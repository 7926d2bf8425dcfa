//! Bit-PLRU (MRU-bit) replacement — the policy the paper reverse-engineers
//! on the Sandy Bridge last-level cache (Section 2.2).

use super::ReplacementPolicy;

/// Bit pseudo-LRU.
///
/// Each line carries one MRU bit. On every access the line's bit is set;
/// if that would leave *all* bits set, the other bits are cleared first, so
/// exactly the accessed line stays marked. The victim is the
/// **lowest-indexed** way whose MRU bit is clear.
///
/// This is the behaviour the paper matched against hardware counters:
/// "one of the replacement algorithms Sandy Bridge favors is Bit
/// Pseudo-LRU (Bit-PLRU) which is similar to the Not Recently Used (NRU)
/// replacement policy."
#[derive(Debug, Clone)]
pub struct BitPlru {
    ways: usize,
    /// One bitmask of MRU bits per set (ways <= 64).
    mru: Vec<u64>,
}

impl BitPlru {
    /// Creates the policy for `sets` x `ways`.
    ///
    /// # Panics
    ///
    /// Panics if `ways > 64`.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(ways <= 64, "Bit-PLRU supports at most 64 ways");
        BitPlru {
            ways,
            mru: vec![0; sets],
        }
    }

    fn full_mask(&self) -> u64 {
        if self.ways == 64 {
            u64::MAX
        } else {
            (1u64 << self.ways) - 1
        }
    }

    fn touch(&mut self, set: usize, way: usize) {
        let bit = 1u64 << way;
        let next = self.mru[set] | bit;
        self.mru[set] = if next == self.full_mask() { bit } else { next };
    }

    /// The MRU bitmask of `set` (diagnostic; used by attack tooling to
    /// explain eviction behaviour).
    pub fn mru_bits(&self, set: usize) -> u64 {
        self.mru[set]
    }
}

impl ReplacementPolicy for BitPlru {
    fn on_hit(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn on_fill(&mut self, set: usize, way: usize) {
        self.touch(set, way);
    }

    fn victim(&mut self, set: usize) -> usize {
        // Lowest-indexed way with a clear MRU bit. The touch rule
        // guarantees at least one bit is clear whenever ways > 1; a
        // one-way set keeps its only bit set and has only way 0 to give.
        let clear = !self.mru[set] & self.full_mask();
        if clear == 0 {
            0
        } else {
            clear.trailing_zeros() as usize
        }
    }

    fn on_invalidate(&mut self, set: usize, way: usize) {
        self.mru[set] &= !(1u64 << way);
    }

    fn name(&self) -> &'static str {
        "bit-plru"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn victim_is_lowest_clear_bit() {
        let mut p = BitPlru::new(1, 4);
        p.on_fill(0, 1);
        p.on_fill(0, 3);
        assert_eq!(p.victim(0), 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0), 2);
    }

    #[test]
    fn saturating_access_clears_other_bits() {
        let mut p = BitPlru::new(1, 4);
        for w in 0..3 {
            p.on_fill(0, w);
        }
        assert_eq!(p.mru_bits(0), 0b0111);
        // Accessing the 4th way would set all bits: others are cleared.
        p.on_hit(0, 3);
        assert_eq!(p.mru_bits(0), 0b1000);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn invalidate_clears_bit() {
        let mut p = BitPlru::new(1, 4);
        p.on_fill(0, 0);
        p.on_fill(0, 1);
        p.on_invalidate(0, 1);
        assert_eq!(p.mru_bits(0), 0b0001);
    }

    #[test]
    fn never_evicts_the_just_touched_way() {
        let mut p = BitPlru::new(1, 12);
        for w in 0..12 {
            p.on_fill(0, w);
        }
        for i in 0..200usize {
            let w = i * 7 % 12;
            p.on_hit(0, w);
            assert_ne!(p.victim(0), w);
        }
    }

    #[test]
    fn sixty_four_ways_supported() {
        let mut p = BitPlru::new(1, 64);
        for w in 0..64 {
            p.on_fill(0, w);
        }
        // Filling all 64 triggered the saturation rule at the last fill.
        assert_eq!(p.mru_bits(0), 1u64 << 63);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    fn one_way_set_always_yields_way_zero() {
        let mut p = BitPlru::new(1, 1);
        p.on_fill(0, 0);
        assert_eq!(p.victim(0), 0);
        p.on_hit(0, 0);
        assert_eq!(p.victim(0), 0);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn too_many_ways_panics() {
        BitPlru::new(1, 65);
    }
}
