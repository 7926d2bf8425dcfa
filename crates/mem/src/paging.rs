//! Virtual memory: frame allocation and per-process page tables.
//!
//! The CLFLUSH-free attack "uses the Linux /proc/pagemap utility to convert
//! virtual addresses to physical addresses in order to create conflicting
//! LLC access patterns" (Section 2.3), and ANVIL itself translates sampled
//! virtual addresses through the owning process's descriptor (Section 3.3).
//! Both need a virtual-memory substrate; this module provides 4 KB paging
//! with pluggable frame-allocation policies.

use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Page size used throughout (4 KB, as on the paper's test system).
pub const PAGE_SIZE: u64 = 4096;
/// log2 of [`PAGE_SIZE`].
pub const PAGE_SHIFT: u32 = 12;

/// How physical frames are handed out to new mappings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AllocationPolicy {
    /// Sequential frames: virtually contiguous regions are physically
    /// contiguous (the easy case for attackers; models a freshly booted
    /// machine or transparent huge pages).
    Contiguous,
    /// Pseudo-random frames (seeded): models a fragmented system, where
    /// the attacker genuinely needs pagemap to find same-bank rows.
    Randomized {
        /// Seed for the frame permutation.
        seed: u64,
    },
}

/// Hands out physical frames, never the same frame twice.
#[derive(Debug)]
pub struct FrameAllocator {
    policy: AllocationPolicy,
    total_frames: u64,
    next: u64,
    used: HashSet<u64>,
    state: u64,
}

impl FrameAllocator {
    /// Creates an allocator over a physical memory of `capacity_bytes`.
    ///
    /// # Panics
    ///
    /// Panics if capacity is smaller than one page.
    pub fn new(capacity_bytes: u64, policy: AllocationPolicy) -> Self {
        assert!(capacity_bytes >= PAGE_SIZE, "capacity below one page");
        FrameAllocator {
            policy,
            total_frames: capacity_bytes / PAGE_SIZE,
            next: 0,
            used: HashSet::new(),
            state: match policy {
                AllocationPolicy::Contiguous => 0,
                AllocationPolicy::Randomized { seed } => seed | 1,
            },
        }
    }

    /// Frames not yet allocated.
    pub fn free_frames(&self) -> u64 {
        self.total_frames - self.used.len() as u64
    }

    /// Allocates one frame, returning its frame number (physical address
    /// >> [`PAGE_SHIFT`]).
    ///
    /// # Errors
    ///
    /// Returns `Err` when physical memory is exhausted.
    pub fn alloc(&mut self) -> Result<u64, OutOfMemory> {
        if self.used.len() as u64 >= self.total_frames {
            return Err(OutOfMemory);
        }
        let frame = match self.policy {
            AllocationPolicy::Contiguous => {
                while self.used.contains(&self.next) {
                    self.next = (self.next + 1) % self.total_frames;
                }
                self.next
            }
            AllocationPolicy::Randomized { .. } => loop {
                // xorshift64*; skip used frames.
                let mut x = self.state;
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                self.state = x;
                let f = x.wrapping_mul(0x2545_f491_4f6c_dd1d) % self.total_frames;
                if !self.used.contains(&f) {
                    break f;
                }
            },
        };
        self.used.insert(frame);
        Ok(frame)
    }

    /// Returns a frame to the pool.
    pub fn free(&mut self, frame: u64) {
        self.used.remove(&frame);
    }
}

/// Error: physical memory exhausted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory;

impl std::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("out of physical memory")
    }
}

impl std::error::Error for OutOfMemory {}

/// Hashes the page table's `u64` page numbers with one multiply by an odd
/// 64-bit constant instead of `SipHash`. Keys are simulator-chosen, so there
/// is no collision flooding to resist; consecutive page numbers land in
/// distinct buckets (multiplication by an odd constant permutes the low
/// bits) and the high bits the table uses as tags are well mixed.
#[derive(Debug, Default, Clone, Copy)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A single-level page table mapping virtual page numbers to frames.
#[derive(Debug, Default, Clone)]
pub struct PageTable {
    entries: HashMap<u64, u64, BuildHasherDefault<PageHasher>>,
}

impl PageTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Maps virtual page `vpn` to physical frame `pfn`.
    ///
    /// # Panics
    ///
    /// Panics if `vpn` is already mapped (the simulator has no demand
    /// remapping).
    pub fn map(&mut self, vpn: u64, pfn: u64) {
        let prev = self.entries.insert(vpn, pfn);
        assert!(prev.is_none(), "vpn {vpn:#x} double-mapped");
    }

    /// Removes the mapping for `vpn`, returning the frame it covered.
    pub fn unmap(&mut self, vpn: u64) -> Option<u64> {
        self.entries.remove(&vpn)
    }

    /// Translates a virtual address to physical.
    pub fn translate(&self, vaddr: u64) -> Option<u64> {
        let pfn = self.entries.get(&(vaddr >> PAGE_SHIFT))?;
        Some((pfn << PAGE_SHIFT) | (vaddr & (PAGE_SIZE - 1)))
    }

    /// Number of mapped pages.
    pub fn mapped_pages(&self) -> usize {
        self.entries.len()
    }

    /// Iterates over (vpn, pfn) pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.entries.iter().map(|(&v, &p)| (v, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_allocation_is_sequential() {
        let mut a = FrameAllocator::new(16 * PAGE_SIZE, AllocationPolicy::Contiguous);
        assert_eq!(a.alloc().unwrap(), 0);
        assert_eq!(a.alloc().unwrap(), 1);
        a.free(0);
        // Freed frames are reused only after wrapping.
        assert_eq!(a.alloc().unwrap(), 2);
    }

    #[test]
    fn randomized_allocation_is_a_permutation() {
        let mut a = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        let mut seen = HashSet::new();
        for _ in 0..64 {
            assert!(seen.insert(a.alloc().unwrap()), "duplicate frame");
        }
        assert_eq!(a.alloc(), Err(OutOfMemory));
    }

    #[test]
    fn randomized_is_deterministic_per_seed() {
        let mut a = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        let mut b = FrameAllocator::new(64 * PAGE_SIZE, AllocationPolicy::Randomized { seed: 5 });
        for _ in 0..10 {
            assert_eq!(a.alloc().unwrap(), b.alloc().unwrap());
        }
    }

    #[test]
    fn exhaustion_reports_oom() {
        let mut a = FrameAllocator::new(2 * PAGE_SIZE, AllocationPolicy::Contiguous);
        a.alloc().unwrap();
        a.alloc().unwrap();
        assert_eq!(a.alloc(), Err(OutOfMemory));
        a.free(1);
        assert!(a.alloc().is_ok());
    }

    #[test]
    fn translate_splits_offset() {
        let mut t = PageTable::new();
        t.map(0x10, 0x99);
        assert_eq!(t.translate(0x10_123), Some(0x99_123));
        assert_eq!(t.translate(0x11_000), None);
    }

    #[test]
    fn unmap_removes() {
        let mut t = PageTable::new();
        t.map(1, 2);
        assert_eq!(t.unmap(1), Some(2));
        assert_eq!(t.translate(PAGE_SIZE), None);
    }

    #[test]
    #[should_panic(expected = "double-mapped")]
    fn double_map_panics() {
        let mut t = PageTable::new();
        t.map(1, 2);
        t.map(1, 3);
    }
}
