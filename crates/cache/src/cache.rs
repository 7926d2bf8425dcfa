//! A single set-associative cache.

use crate::config::CacheConfig;
use crate::policy::{Policy, ReplacementPolicy};
use crate::stats::CacheStats;

/// Tag of an empty way. A line tag is `paddr >> line_shift` with
/// `line_shift >= 1` ([`CacheConfig::validate`] requires lines of at
/// least two bytes), so no line can carry this tag.
const INVALID: u64 = u64::MAX;

/// A line evicted by a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Physical address of the evicted line (line-aligned).
    pub paddr: u64,
    /// Whether the line was dirty (needs writeback).
    pub dirty: bool,
}

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheAccess {
    /// Whether the lookup hit.
    pub hit: bool,
    /// A line evicted to make room for the fill (miss path only).
    pub evicted: Option<Evicted>,
}

/// A physically indexed set-associative cache with a pluggable
/// replacement policy.
///
/// Lookups are by physical address; on a miss the line is filled
/// (write-allocate) and the displaced line, if any, is reported so the
/// owner can maintain inclusion or write back dirty data.
///
/// # Examples
///
/// ```
/// use anvil_cache::{Cache, CacheConfig, PolicyKind};
///
/// let mut c = Cache::new(CacheConfig {
///     capacity_bytes: 4096,
///     ways: 4,
///     line_bytes: 64,
///     policy: PolicyKind::TrueLru,
///     latency: 4,
/// });
/// assert!(!c.access(0x80, false).hit);
/// assert!(c.access(0x80, false).hit);
/// ```
#[derive(Debug)]
pub struct Cache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    latency: u64,
    /// One line tag per way, set-major; [`INVALID`] marks an empty way.
    tags: Vec<u64>,
    /// One dirty bit per way, one mask per set.
    dirty: Vec<u64>,
    policy: Policy,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`CacheConfig::validate`].
    pub fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = config.sets();
        Cache {
            sets,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            latency: config.latency,
            tags: vec![INVALID; sets * config.ways],
            dirty: vec![0; sets],
            policy: config.policy.build(sets, config.ways),
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Hit latency in cycles.
    pub fn latency(&self) -> u64 {
        self.latency
    }

    /// Line size in bytes.
    pub fn line_bytes(&self) -> usize {
        1 << self.line_shift
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set index `paddr` maps to.
    pub fn set_of(&self, paddr: u64) -> usize {
        ((paddr >> self.line_shift) & (self.sets as u64 - 1)) as usize
    }

    fn line_of(&self, paddr: u64) -> u64 {
        paddr >> self.line_shift
    }

    /// The way of `set` whose tag is `line` (pass [`INVALID`] for the
    /// lowest empty way).
    fn find(&self, set: usize, line: u64) -> Option<usize> {
        self.tags[set * self.ways..(set + 1) * self.ways]
            .iter()
            .position(|&t| t == line)
    }

    /// Looks up `paddr`, filling on a miss. `write` marks the line dirty.
    pub fn access(&mut self, paddr: u64, write: bool) -> CacheAccess {
        let line = self.line_of(paddr);
        let set = self.set_of(paddr);
        self.stats.accesses = self.stats.accesses.saturating_add(1);

        if let Some(way) = self.find(set, line) {
            self.stats.hits = self.stats.hits.saturating_add(1);
            self.policy.on_hit(set, way);
            if write {
                self.dirty[set] |= 1 << way;
            }
            return CacheAccess {
                hit: true,
                evicted: None,
            };
        }

        // Miss: prefer an invalid way, otherwise ask the policy.
        let (way, evicted) = if let Some(w) = self.find(set, INVALID) {
            (w, None)
        } else {
            let w = self.policy.victim(set);
            debug_assert!(w < self.ways, "policy returned way out of range");
            let old = self.tags[set * self.ways + w];
            let dirty = (self.dirty[set] >> w) & 1 == 1;
            self.stats.evictions = self.stats.evictions.saturating_add(1);
            if dirty {
                self.stats.dirty_evictions = self.stats.dirty_evictions.saturating_add(1);
            }
            (
                w,
                Some(Evicted {
                    paddr: old << self.line_shift,
                    dirty,
                }),
            )
        };
        self.tags[set * self.ways + way] = line;
        self.dirty[set] = (self.dirty[set] & !(1 << way)) | (u64::from(write) << way);
        self.policy.on_fill(set, way);
        CacheAccess {
            hit: false,
            evicted,
        }
    }

    /// Whether `paddr`'s line is present, without touching any state.
    pub fn probe(&self, paddr: u64) -> bool {
        self.find(self.set_of(paddr), self.line_of(paddr)).is_some()
    }

    /// Empties `way` of `set`, returning its dirty flag.
    fn evict_way(&mut self, set: usize, way: usize) -> bool {
        let dirty = (self.dirty[set] >> way) & 1 == 1;
        self.tags[set * self.ways + way] = INVALID;
        self.dirty[set] &= !(1 << way);
        self.stats.invalidations = self.stats.invalidations.saturating_add(1);
        self.policy.on_invalidate(set, way);
        dirty
    }

    /// Invalidates `paddr`'s line if present. Returns the line's dirty
    /// flag (`Some(dirty)`) or `None` if it was not cached.
    pub fn invalidate(&mut self, paddr: u64) -> Option<bool> {
        let set = self.set_of(paddr);
        let way = self.find(set, self.line_of(paddr))?;
        Some(self.evict_way(set, way))
    }

    /// Invalidates every line, returning the dirty ones' addresses.
    pub fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let line = self.tags[set * self.ways + way];
                if line != INVALID && self.evict_way(set, way) {
                    dirty.push(line << self.line_shift);
                }
            }
        }
        dirty
    }

    /// Number of valid lines currently resident (diagnostic).
    pub fn resident_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::PolicyKind;

    fn small(policy: PolicyKind) -> Cache {
        Cache::new(CacheConfig {
            capacity_bytes: 2048, // 8 sets x 4 ways x 64 B
            ways: 4,
            line_bytes: 64,
            policy,
            latency: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = small(PolicyKind::TrueLru);
        assert!(!c.access(0x1000, false).hit);
        assert!(c.access(0x1000, false).hit);
        assert!(c.access(0x1004, false).hit, "same line, different offset");
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn eviction_when_set_full() {
        let mut c = small(PolicyKind::TrueLru);
        // 5 lines mapping to set 0 (stride = sets * line = 512 B).
        for i in 0..4u64 {
            assert!(c.access(i * 512, false).evicted.is_none());
        }
        let r = c.access(4 * 512, false);
        assert!(!r.hit);
        assert_eq!(
            r.evicted,
            Some(Evicted {
                paddr: 0,
                dirty: false
            })
        );
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, true); // dirty
        for i in 1..4u64 {
            c.access(i * 512, false);
        }
        let r = c.access(4 * 512, false);
        assert_eq!(r.evicted.unwrap().dirty, true);
        assert_eq!(c.stats().dirty_evictions, 1);
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, false);
        c.access(0, true);
        for i in 1..4u64 {
            c.access(i * 512, false);
        }
        assert!(c.access(4 * 512, false).evicted.unwrap().dirty);
    }

    #[test]
    fn invalidate_then_miss() {
        let mut c = small(PolicyKind::BitPlru);
        c.access(0x40, true);
        assert_eq!(c.invalidate(0x40), Some(true));
        assert_eq!(c.invalidate(0x40), None);
        assert!(!c.probe(0x40));
        assert!(!c.access(0x40, false).hit);
    }

    #[test]
    fn invalid_way_preferred_over_eviction() {
        let mut c = small(PolicyKind::TrueLru);
        for i in 0..4u64 {
            c.access(i * 512, false);
        }
        c.invalidate(512);
        let r = c.access(4 * 512, false);
        assert!(r.evicted.is_none(), "fill must reuse the invalidated way");
        assert_eq!(c.resident_lines(), 4);
    }

    #[test]
    fn flush_all_returns_dirty_lines() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, true);
        c.access(512, false);
        let dirty = c.flush_all();
        assert_eq!(dirty, vec![0]);
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn probe_does_not_change_state() {
        let mut c = small(PolicyKind::TrueLru);
        c.access(0, false);
        let before = *c.stats();
        assert!(c.probe(0));
        assert!(!c.probe(0x40 * 100));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    fn set_mapping_uses_low_line_bits() {
        let c = small(PolicyKind::TrueLru);
        assert_eq!(c.set_of(0), 0);
        assert_eq!(c.set_of(64), 1);
        assert_eq!(c.set_of(64 * 8), 0);
    }
}
