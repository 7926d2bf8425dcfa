//! Property-based self-integrity of the detector's guarded state cells.
//!
//! The self-defense campaign injects physically modelled disturbance
//! flips into the supervised detector's own DRAM-resident state. These
//! properties pin the contract that campaign relies on, for *every*
//! addressable state site, replica subset, and bit position (word or
//! checksum): a flip is always surfaced as a typed
//! [`StateCorruption`](anvil::core::StateCorruption) — repaired in place
//! when any checksummed replica survives, escalated when none does —
//! and a repaired detector is byte-for-byte indistinguishable from one
//! that was never corrupted, so no decision is ever computed from a
//! corrupted value. Mirrors `torn_checkpoint.rs`, which pins the same
//! fail-closed discipline for the checkpoint wire format. Beneath them, a
//! single cell's sealed-flag read shortcut is pinned against an
//! always-verify model of the same protocol.

use anvil::core::{fnv1a64, AnvilConfig, GuardedCell, StateCorruption, StateSite, REPLICAS};
use anvil::dram::{AddressMapping, CpuClock, DramGeometry};
use anvil::pmu::{EventKind, Pmu, SamplerConfig};
use anvil::runtime::{RuntimeConfig, SupervisedOutcome, Supervisor};
use proptest::prelude::*;

/// A serviced hardened supervisor with guarded state and a populated
/// carry, plus its PMU — representative words for mutations to land on,
/// not freshly zeroed cells.
fn serviced_supervisor() -> (Supervisor, Pmu) {
    let mut pmu = Pmu::new(SamplerConfig::anvil_default());
    let mut sup = Supervisor::new(
        AnvilConfig::hardened(),
        RuntimeConfig::default(),
        CpuClock::SANDY_BRIDGE_2_6GHZ,
        166_400_000,
        0,
        &mut pmu,
    );
    let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
    // Two quiet windows with sub-threshold miss traffic: the EWMA carry,
    // window scale, and jitter stream all hold non-trivial values.
    for _ in 0..2 {
        let deadline = sup.deadline();
        pmu.counter_mut(EventKind::LongestLatCacheMiss)
            .add(12_000, deadline - 1);
        pmu.counter_mut(EventKind::MemLoadUopsRetiredLlcMiss)
            .add(12_000, deadline - 1);
        sup.service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
            .expect("fault-free service succeeds");
    }
    assert!(
        sup.drain_state_corruptions().is_empty(),
        "clean services must not declare corruption"
    );
    (sup, pmu)
}

/// The decision-relevant state of a checkpoint: everything except the
/// activity counters (`stats` legitimately differs by exactly the
/// declared repair — that is the declaration working, not a leak).
fn decision_state(bytes: &[u8]) -> serde_json::Value {
    let text = std::str::from_utf8(bytes).expect("checkpoint is utf-8");
    let body = text
        .split_once('\n')
        .expect("checkpoint has a hash line and a payload")
        .1;
    let mut v: serde_json::Value = serde_json::from_str(body).expect("checkpoint payload parses");
    match &mut v {
        serde_json::Value::Object(entries) => entries.retain(|(k, _)| k != "stats"),
        other => panic!("checkpoint payload is an object, got {other:?}"),
    }
    v
}

proptest! {
    /// Any single-bit flip over any state site and any *proper* replica
    /// subset is declared exactly once as `repaired` — a checksummed
    /// majority (or the single surviving valid replica) vouches for the
    /// value — and the repaired detector checkpoints byte-identically to
    /// an untouched twin: the corrupted word never leaks into any
    /// decision.
    #[test]
    fn any_proper_subset_flip_is_repaired_to_the_exact_value(
        index in 0usize..1 << 16,
        mask in 1u8..7,
        bit in 0u8..128,
    ) {
        let (mut sup, pmu) = serviced_supervisor();
        let (twin, twin_pmu) = serviced_supervisor();
        let cells = sup.state_cell_count();
        let site = sup
            .corrupt_state_cell(index % cells, mask, bit)
            .expect("index is in range");

        let records = sup.scrub_state_final();
        prop_assert_eq!(records.len(), 1, "exactly one declaration for one flip");
        prop_assert_eq!(records[0].site, site);
        prop_assert!(records[0].repaired, "a surviving replica must repair {site:?}");
        prop_assert_eq!(sup.stats().state_repairs, 1);
        prop_assert_eq!(sup.stats().state_escalations, 0);
        prop_assert_eq!(
            decision_state(&sup.detector().checkpoint(&pmu).to_bytes()),
            decision_state(&twin.detector().checkpoint(&twin_pmu).to_bytes()),
            "repair must restore the exact pre-corruption state"
        );
    }

    /// Correlated damage — the same bit flipped in *every* replica — can
    /// never be silently absorbed either: it is declared exactly once as
    /// unrepairable and counted as an escalation. (Whether the words
    /// still happen to agree is irrelevant: with no checksum vouching
    /// for any replica, the cell is untrusted by policy.)
    #[test]
    fn an_all_replica_flip_is_declared_and_escalated(
        index in 0usize..1 << 16,
        bit in 0u8..128,
    ) {
        let (mut sup, _pmu) = serviced_supervisor();
        let cells = sup.state_cell_count();
        let site = sup
            .corrupt_state_cell(index % cells, 0b111, bit)
            .expect("index is in range");

        let records = sup.scrub_state_final();
        prop_assert_eq!(records.len(), 1, "exactly one declaration for one strike");
        prop_assert_eq!(records[0].site, site);
        prop_assert!(!records[0].repaired, "no replica survives a correlated strike");
        prop_assert_eq!(sup.stats().state_repairs, 0);
        prop_assert_eq!(sup.stats().state_escalations, 1);
    }
}

/// End to end through the service path: an unrepairable corruption is
/// found — by the incremental scrub when the cursor reaches the carry's
/// slice, or by the detector's own guarded read first — and escalates to
/// a restart from the last good checkpoint, declared as a `Restarted`
/// outcome with a recovery gap, within one scrub rotation. Never a
/// silent continuation.
#[test]
fn service_escalates_an_unrepairable_carry_to_a_restart() {
    let (mut sup, mut pmu) = serviced_supervisor();
    let mapping = AddressMapping::new(DramGeometry::ddr3_4gb());
    sup.corrupt_state_cell(0, 0b111, 62).expect("carry exists");

    let mut restarted = false;
    for _ in 0..=RuntimeConfig::default().scrub_slices {
        let deadline = sup.deadline();
        let outcome = sup
            .service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
            .expect("escalation restarts within budget");
        if let SupervisedOutcome::Restarted(r) = outcome {
            assert!(r.gap > 0, "a declared recovery gap");
            assert!(r.resumed_at > deadline);
            restarted = true;
            break;
        }
    }
    assert!(
        restarted,
        "the corruption must escalate within one scrub rotation"
    );
    assert_eq!(sup.stats().state_escalations, 1);
    assert_eq!(sup.stats().restarts, 1);
    let declared = sup.drain_state_corruptions();
    assert!(
        declared.iter().any(|c| !c.repaired),
        "the escalation carries a typed unrepaired record: {declared:?}"
    );

    // The restarted detector is healthy: the next window services
    // normally and declares nothing.
    let deadline = sup.deadline();
    let outcome = sup
        .service(deadline, &mut pmu, &mapping, &mut |_pid, va| Some(va))
        .expect("post-restart service succeeds");
    assert!(matches!(outcome, SupervisedOutcome::Serviced { .. }));
    assert!(sup.drain_state_corruptions().is_empty());
}

/// An always-verify model of a guarded cell: every read re-hashes every
/// seal. The cell under test answers from replica 0 while it is sealed;
/// this model never does, so agreement pins that shortcut as exact.
#[derive(Debug, Clone, Copy)]
struct ReferenceCell {
    /// `(word, seal)` per replica.
    replicas: [(u64, u64); REPLICAS],
}

impl ReferenceCell {
    fn new(word: u64) -> Self {
        ReferenceCell {
            replicas: [(word, fnv1a64(&word.to_le_bytes())); REPLICAS],
        }
    }

    fn valid(&self) -> Vec<u64> {
        self.replicas
            .iter()
            .filter(|(word, seal)| *seal == fnv1a64(&word.to_le_bytes()))
            .map(|&(word, _)| word)
            .collect()
    }

    fn majority(words: &[u64]) -> Option<u64> {
        words
            .iter()
            .find(|&&w| words.iter().filter(|&&x| x == w).count() * 2 > words.len())
            .copied()
    }

    fn peek(&self) -> u64 {
        let valid = self.valid();
        Self::majority(&valid)
            .or_else(|| valid.first().copied())
            .or_else(|| Self::majority(&self.replicas.map(|(word, _)| word)))
            .unwrap_or(self.replicas[0].0)
    }

    fn clean(&self) -> bool {
        self.valid().len() == REPLICAS && self.replicas.iter().all(|r| r.0 == self.replicas[0].0)
    }

    fn scrub(&mut self, site: StateSite) -> Option<StateCorruption> {
        if self.clean() {
            return None;
        }
        let valid = self.valid();
        let repaired = Self::majority(&valid).is_some() || valid.len() == 1;
        *self = ReferenceCell::new(self.peek());
        Some(StateCorruption { site, repaired })
    }

    fn corrupt(&mut self, mask: u8, bit: u8) {
        for (i, (word, seal)) in self.replicas.iter_mut().enumerate() {
            if mask & (1 << i) != 0 {
                if bit < 64 {
                    *word ^= 1 << bit;
                } else {
                    *seal ^= 1 << (bit - 64);
                }
            }
        }
    }
}

proptest! {
    // Cheap cases; enough of them that the corruptions drawn cover
    // nearly every (replica mask, bit) pair.
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Random store / corrupt / scrub / peek / clean sequences over every
    /// replica mask (including none and all) and every word or seal bit:
    /// the sealed-flag cell gives the same reads, the same `clean`
    /// verdicts and the same `StateCorruption` reports as the
    /// always-verify model. A twin that is additionally unsealed by
    /// empty-mask corruptions (no replica changes) compares equal and
    /// answers identically throughout, so the flag is invisible to
    /// equality and to every observation.
    #[test]
    fn sealed_flag_matches_an_always_verify_decoder(
        init in any::<u64>(),
        // (op, stored value, (replica mask, bit), unseal the twin first);
        // op 0 stores, 1 corrupts, 2 scrubs, 3 and 4 only observe.
        ops in prop::collection::vec(
            (0u8..5, any::<u64>(), (0u8..8, 0u8..128), any::<bool>()),
            1..48,
        ),
    ) {
        let site = StateSite::Carry;
        let mut cell = GuardedCell::new(init);
        let mut twin = GuardedCell::new(init);
        let mut reference = ReferenceCell::new(init);
        for &(op, value, (mask, bit), unseal) in &ops {
            if unseal {
                twin.corrupt(0, 0);
            }
            match op {
                0 => {
                    cell.store(value);
                    twin.store(value);
                    reference = ReferenceCell::new(value);
                }
                1 => {
                    cell.corrupt(mask, bit);
                    twin.corrupt(mask, bit);
                    reference.corrupt(mask, bit);
                }
                2 => {
                    let expected = reference.scrub(site);
                    prop_assert_eq!(cell.scrub(site), expected);
                    prop_assert_eq!(twin.scrub(site), expected);
                }
                _ => {}
            }
            prop_assert_eq!(cell.peek(), reference.peek(), "after op {}", op);
            prop_assert_eq!(twin.peek(), reference.peek());
            prop_assert_eq!(cell.clean(), reference.clean(), "after op {}", op);
            prop_assert_eq!(twin.clean(), reference.clean());
            prop_assert_eq!(cell.raw(), reference.replicas[0].0);
            prop_assert!(cell == twin, "equality ignores the sealed flag");
        }
    }
}
