//! Binary-tree pseudo-LRU replacement.

use super::ReplacementPolicy;

/// Trees with at most this many leaves pick victims from a lookup table
/// indexed by the packed tree word (`2^(8-1)` = 128 entries).
const TABLE_LEAVES: usize = 8;

/// Tree-PLRU: a complete binary tree of direction bits per set. On an
/// access, the bits along the path to the accessed way are pointed *away*
/// from it; the victim is found by following the bits from the root.
/// Standard in L1/L2 caches (and one of the fingerprinting candidates for
/// the LLC).
///
/// Non-power-of-two associativities (like the 12-way Sandy Bridge LLC) are
/// handled by building the tree over the next power of two and steering
/// victim walks away from the non-existent leaves, as real implementations
/// do.
///
/// Each set's `cap - 1` tree bits are packed into one `u64` in heap order
/// (bit 0 is the root, node `n`'s children are `2n + 1` and `2n + 2`). A
/// touch rewrites the accessed way's root-to-leaf path in one masked
/// store; trees of at most eight leaves (the paper's L1/L2) look their
/// victim up in a table built once from the walk.
#[derive(Debug, Clone)]
pub struct TreePlru {
    ways: usize,
    /// Tree capacity: `ways` rounded up to a power of two.
    cap: usize,
    /// Packed tree bits, one word per set.
    bits: Vec<u64>,
    /// Per way: the `(mask, value)` of its root-to-leaf path, where
    /// `value` points every node on the path away from the way.
    paths: Vec<(u64, u64)>,
    /// Victim per packed tree word when `cap <= TABLE_LEAVES`, else empty.
    table: Vec<u8>,
}

impl TreePlru {
    /// Creates the policy for `sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64` (the tree bits of a set fill one `u64`).
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "Tree-PLRU supports at most 64 ways");
        let cap = ways.next_power_of_two();
        let levels = cap.trailing_zeros();
        let paths = (0..ways)
            .map(|way| {
                let (mut mask, mut value, mut node) = (0u64, 0u64, 0usize);
                for level in (0..levels).rev() {
                    let bit = (way >> level) & 1;
                    mask |= 1 << node;
                    if bit == 0 {
                        value |= 1 << node;
                    }
                    node = 2 * node + 1 + bit;
                }
                (mask, value)
            })
            .collect();
        let mut p = TreePlru {
            ways,
            cap,
            bits: vec![0; sets],
            paths,
            table: Vec::new(),
        };
        if cap <= TABLE_LEAVES {
            p.table = (0..1u64 << (cap - 1))
                .map(|word| p.walk(word) as u8)
                .collect();
        }
        p
    }

    /// Follows the direction bits of `word` from the root to a leaf,
    /// steering away from leaves that do not exist (ways < cap).
    fn walk(&self, word: u64) -> usize {
        let (mut node, mut lo, mut size) = (0usize, 0usize, self.cap);
        while size > 1 {
            size /= 2;
            let mut dir = ((word >> node) & 1) as usize;
            if dir == 1 && lo + size >= self.ways {
                dir = 0;
            }
            lo += dir * size;
            node = 2 * node + 1 + dir;
        }
        debug_assert!(lo < self.ways);
        lo
    }

    #[inline]
    fn touch(&mut self, set: usize, way: usize) {
        let (mask, value) = self.paths[way];
        let bits = &mut self.bits[set];
        *bits = (*bits & !mask) | value;
    }
}

impl ReplacementPolicy for TreePlru {
    #[inline]
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    #[inline]
    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    #[inline]
    fn victim(&mut self, set: usize) -> usize {
        let word = self.bits[set];
        match self.table.get(word as usize) {
            Some(&way) => usize::from(way),
            None => self.walk(word),
        }
    }

    fn name(&self) -> &'static str {
        "tree-plru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_tree_points_at_way_zero() {
        let mut p = TreePlru::new(1, 8);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn touch_redirects_away() {
        let mut p = TreePlru::new(1, 4);
        p.on_hit(0, 0);
        // Root now points right, right subtree unmodified -> way 2.
        assert_eq!(p.victim(0), 2);
        p.on_hit(0, 2);
        assert_eq!(p.victim(0), 1);
    }

    #[test]
    fn never_evicts_just_touched() {
        let mut p = TreePlru::new(1, 16);
        for i in 0..500usize {
            let w = (i * 5) % 16;
            p.on_hit(0, w);
            assert_ne!(p.victim(0), w);
        }
    }

    #[test]
    fn twelve_ways_stays_in_range() {
        let mut p = TreePlru::new(1, 12);
        for w in 0..12 {
            p.on_fill(0, w);
        }
        for i in 0..2_000usize {
            let w = (i * 7) % 12;
            p.on_hit(0, w);
            let v = p.victim(0);
            assert!(v < 12, "victim {v} out of range");
            assert_ne!(v, w, "evicted the just-touched way");
            p.on_fill(0, v);
        }
    }

    #[test]
    fn single_way_degenerate() {
        let mut p = TreePlru::new(2, 1);
        p.on_fill(1, 0);
        assert_eq!(p.victim(1), 0);
    }

    #[test]
    fn victim_table_equals_the_packed_walk() {
        for ways in 2..=TABLE_LEAVES {
            let p = TreePlru::new(1, ways);
            let patterns = 1u64 << (p.cap - 1);
            assert_eq!(p.table.len() as u64, patterns, "{ways} ways");
            for word in 0..patterns {
                assert_eq!(
                    usize::from(p.table[word as usize]),
                    p.walk(word),
                    "{ways} ways, tree word {word:#b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_ways_panics() {
        TreePlru::new(1, 65);
    }
}
