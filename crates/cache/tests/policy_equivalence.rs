//! Equivalence of the packed cache kernel with the entry-per-way cache it
//! replaced.
//!
//! [`RefCache`] below is the previous `Cache`, kept verbatim as a
//! test-only reference model: one `Entry { line, valid, dirty }` per way
//! and a boxed `dyn ReplacementPolicy`. Its Tree-PLRU is the previous
//! one-`bool`-per-node tree ([`RefTreePlru`]), so the packed tree word and
//! its victim table are checked against an independent implementation;
//! every other policy is the production type behind the box. Random
//! operation sequences must produce identical results from both caches on
//! every policy and on 1-, 4-, 8-, 12- and 16-way geometries (12 ways is a
//! non-power-of-two tree, 16 ways takes the tree-walk path).

use anvil_cache::policy::{BitPlru, Nru, RandomPolicy, Srrip, TrueLru};
use anvil_cache::{
    Cache, CacheAccess, CacheConfig, CacheStats, Evicted, PolicyKind, ReplacementPolicy,
};
use proptest::prelude::*;

/// One cache line's bookkeeping.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    /// Line address (physical address >> line shift).
    line: u64,
    valid: bool,
    dirty: bool,
}

const INVALID: Entry = Entry {
    line: 0,
    valid: false,
    dirty: false,
};

/// The previous `Cache`: entry-per-way storage, dynamic policy dispatch.
#[derive(Debug)]
struct RefCache {
    sets: usize,
    ways: usize,
    line_shift: u32,
    entries: Vec<Entry>,
    policy: Box<dyn ReplacementPolicy>,
    stats: CacheStats,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid cache config: {e}"));
        let sets = config.sets();
        RefCache {
            sets,
            ways: config.ways,
            line_shift: config.line_bytes.trailing_zeros(),
            entries: vec![INVALID; sets * config.ways],
            policy: reference_policy(config.policy, sets, config.ways),
            stats: CacheStats::default(),
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn set_of(&self, paddr: u64) -> usize {
        ((paddr >> self.line_shift) & (self.sets as u64 - 1)) as usize
    }

    fn line_of(&self, paddr: u64) -> u64 {
        paddr >> self.line_shift
    }

    fn find(&self, set: usize, line: u64) -> Option<usize> {
        let base = set * self.ways;
        (0..self.ways).find(|&w| {
            let e = &self.entries[base + w];
            e.valid && e.line == line
        })
    }

    fn access(&mut self, paddr: u64, write: bool) -> CacheAccess {
        let line = self.line_of(paddr);
        let set = self.set_of(paddr);
        let base = set * self.ways;
        self.stats.accesses = self.stats.accesses.saturating_add(1);

        if let Some(way) = self.find(set, line) {
            self.stats.hits = self.stats.hits.saturating_add(1);
            self.policy.on_hit(set, way);
            if write {
                self.entries[base + way].dirty = true;
            }
            return CacheAccess {
                hit: true,
                evicted: None,
            };
        }

        // Miss: prefer an invalid way, otherwise ask the policy.
        let (way, evicted) =
            if let Some(w) = (0..self.ways).find(|&w| !self.entries[base + w].valid) {
                (w, None)
            } else {
                let w = self.policy.victim(set);
                debug_assert!(w < self.ways, "policy returned way out of range");
                let old = self.entries[base + w];
                self.stats.evictions = self.stats.evictions.saturating_add(1);
                if old.dirty {
                    self.stats.dirty_evictions = self.stats.dirty_evictions.saturating_add(1);
                }
                (
                    w,
                    Some(Evicted {
                        paddr: old.line << self.line_shift,
                        dirty: old.dirty,
                    }),
                )
            };
        self.entries[base + way] = Entry {
            line,
            valid: true,
            dirty: write,
        };
        self.policy.on_fill(set, way);
        CacheAccess {
            hit: false,
            evicted,
        }
    }

    fn probe(&self, paddr: u64) -> bool {
        self.find(self.set_of(paddr), self.line_of(paddr)).is_some()
    }

    fn invalidate(&mut self, paddr: u64) -> Option<bool> {
        let set = self.set_of(paddr);
        let way = self.find(set, self.line_of(paddr))?;
        let e = &mut self.entries[set * self.ways + way];
        let dirty = e.dirty;
        *e = INVALID;
        self.stats.invalidations = self.stats.invalidations.saturating_add(1);
        self.policy.on_invalidate(set, way);
        Some(dirty)
    }

    fn flush_all(&mut self) -> Vec<u64> {
        let mut dirty = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let e = &mut self.entries[set * self.ways + way];
                if e.valid {
                    if e.dirty {
                        dirty.push(e.line << self.line_shift);
                    }
                    *e = INVALID;
                    self.stats.invalidations = self.stats.invalidations.saturating_add(1);
                    self.policy.on_invalidate(set, way);
                }
            }
        }
        dirty
    }

    fn resident_lines(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

/// The previous Tree-PLRU: `cap - 1` `bool` tree bits per set in heap
/// order, walked bit by bit on every touch and victim.
#[derive(Debug, Clone)]
struct RefTreePlru {
    ways: usize,
    cap: usize,
    bits: Vec<bool>,
}

impl RefTreePlru {
    fn new(sets: usize, ways: usize) -> Self {
        let cap = ways.next_power_of_two();
        RefTreePlru {
            ways,
            cap,
            bits: vec![false; sets * (cap - 1).max(1)],
        }
    }

    fn levels(&self) -> usize {
        self.cap.trailing_zeros() as usize
    }

    fn touch(&mut self, set: usize, way: usize) {
        if self.cap == 1 {
            return;
        }
        let base = set * (self.cap - 1);
        let mut node = 0usize;
        for level in (0..self.levels()).rev() {
            let bit = (way >> level) & 1;
            // Point away from the accessed way.
            self.bits[base + node] = bit == 0;
            node = 2 * node + 1 + bit;
        }
    }
}

impl ReplacementPolicy for RefTreePlru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        if self.cap == 1 {
            return 0;
        }
        let base = set * (self.cap - 1);
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut size = self.cap;
        for _ in 0..self.levels() {
            size /= 2;
            let mut dir = usize::from(self.bits[base + node]);
            // Steer away from leaves that do not exist (ways < cap).
            if dir == 1 && lo + size >= self.ways {
                dir = 0;
            }
            lo += dir * size;
            node = 2 * node + 1 + dir;
        }
        debug_assert!(lo < self.ways);
        lo
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }
}

/// The reference model's boxed policy for `kind`.
fn reference_policy(kind: PolicyKind, sets: usize, ways: usize) -> Box<dyn ReplacementPolicy> {
    match kind {
        PolicyKind::TrueLru => Box::new(TrueLru::new(sets, ways)),
        PolicyKind::BitPlru => Box::new(BitPlru::new(sets, ways)),
        PolicyKind::Nru => Box::new(Nru::new(sets, ways)),
        PolicyKind::TreePlru => Box::new(RefTreePlru::new(sets, ways)),
        PolicyKind::Srrip => Box::new(Srrip::new(sets, ways)),
        PolicyKind::Random { seed } => Box::new(RandomPolicy::new(sets, ways, seed)),
    }
}

/// Sets per cache in every geometry.
const SETS: u64 = 4;
/// The associativities covered.
const WAYS: [usize; 5] = [1, 4, 8, 12, 16];

fn config(policy: PolicyKind, ways: usize) -> CacheConfig {
    CacheConfig {
        capacity_bytes: SETS * ways as u64 * 64,
        ways,
        line_bytes: 64,
        policy,
        latency: 4,
    }
}

/// Replays `ops` through both caches, asserting identical observations
/// after every operation. An op is `(selector, line, byte, write)`: the
/// selector picks access (most ops), invalidate, probe or flush-all, and
/// lines range over three times the cache's capacity so sets overflow.
fn assert_equivalent(kind: PolicyKind, ways: usize, ops: &[(u8, u64, u64, bool)]) {
    let mut new = Cache::new(config(kind, ways));
    let mut old = RefCache::new(config(kind, ways));
    let lines = 3 * SETS * ways as u64;
    for (i, &(sel, line, byte, write)) in ops.iter().enumerate() {
        let paddr = (line % lines) * 64 + byte;
        let ctx = || format!("{kind} {ways}-way, op {i} ({sel}, {paddr:#x}, {write})");
        match sel {
            0..=47 => assert_eq!(
                new.access(paddr, write),
                old.access(paddr, write),
                "{}",
                ctx()
            ),
            48..=57 => assert_eq!(new.invalidate(paddr), old.invalidate(paddr), "{}", ctx()),
            58..=62 => assert_eq!(new.probe(paddr), old.probe(paddr), "{}", ctx()),
            _ => assert_eq!(new.flush_all(), old.flush_all(), "{}", ctx()),
        }
        assert_eq!(new.stats(), old.stats(), "{}", ctx());
        assert_eq!(new.resident_lines(), old.resident_lines(), "{}", ctx());
    }
    assert_eq!(
        new.flush_all(),
        old.flush_all(),
        "{kind} {ways}-way final flush"
    );
    assert_eq!(new.stats(), old.stats(), "{kind} {ways}-way final stats");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every policy on every geometry: identical `CacheAccess` values,
    /// invalidation results, probes, statistics, resident-line counts and
    /// flush-all output at every step.
    #[test]
    fn packed_cache_matches_the_entry_reference(
        seed in any::<u64>(),
        ops in prop::collection::vec((0u8..64, any::<u64>(), 0u64..64, any::<bool>()), 1..600),
    ) {
        let mut kinds = PolicyKind::deterministic_candidates();
        kinds.push(PolicyKind::Random { seed });
        for kind in kinds {
            for ways in WAYS {
                assert_equivalent(kind, ways, &ops);
            }
        }
    }

    /// Set-conflict-heavy streams: a single hot set, where every miss past
    /// the first `ways` fills goes through victim selection.
    #[test]
    fn packed_cache_matches_the_entry_reference_on_one_set(
        ops in prop::collection::vec((0u8..60, 0u64..48, 0u64..64, any::<bool>()), 1..600),
    ) {
        let one_set: Vec<_> = ops
            .iter()
            .map(|&(sel, line, byte, write)| (sel, line * SETS, byte, write))
            .collect();
        let mut kinds = PolicyKind::deterministic_candidates();
        kinds.push(PolicyKind::Random { seed: 7 });
        for kind in kinds {
            for ways in WAYS {
                assert_equivalent(kind, ways, &one_set);
            }
        }
    }
}
