//! Property-based tests (proptest) on the stack's invariants:
//!
//! * wire codecs roundtrip for arbitrary values and never panic on
//!   arbitrary (hostile) input;
//! * binary consensus satisfies agreement + validity under arbitrary
//!   schedules, proposal mixes and coin seeds;
//! * atomic broadcast keeps its total order under random bursts;
//! * Bracha's validation rule never rejects a correct process's value;
//! * structurally valid but semantically conflicting (equivocated) BC
//!   tallies and EB hash-vectors are rejected without panics.
//!
//! Protocol-level properties are checked through the same
//! [`ritas::invariants::InvariantChecker`] the adversarial conformance
//! harness uses (see `tests/adversary_matrix.rs`), so the predicates
//! stay in one place.

#![allow(clippy::needless_range_loop)] // indexing by process id is idiomatic here

use bytes::Bytes;
use proptest::prelude::*;
use ritas::bc::validation::{
    majority, next_round_valid, step2_valid, step3_valid, strict_majority, Tally,
};
use ritas::codec::WireMessage;
use ritas::invariants::InvariantChecker;
use ritas::rb::RbMessage;
use ritas::stack::{InstanceKey, Output};
use ritas::testing::Cluster;

// ---------- codec properties ----------

fn arb_bytes(max: usize) -> impl Strategy<Value = Bytes> {
    proptest::collection::vec(any::<u8>(), 0..max).prop_map(Bytes::from)
}

proptest! {
    #[test]
    fn rb_message_roundtrips(payload in arb_bytes(200), tag in 0u8..3) {
        let msg = match tag {
            0 => RbMessage::Init(payload),
            1 => RbMessage::Echo(payload),
            _ => RbMessage::Ready(payload),
        };
        prop_assert_eq!(RbMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
    }

    #[test]
    fn instance_key_roundtrips(kind in 0u8..6, a in any::<u32>(), b in any::<u64>()) {
        let key = match kind {
            0 => InstanceKey::Rb { sender: a as usize % 1000, seq: b },
            1 => InstanceKey::Eb { sender: a as usize % 1000, seq: b },
            2 => InstanceKey::Bc { tag: b },
            3 => InstanceKey::Mvc { tag: b },
            4 => InstanceKey::Vc { tag: b },
            _ => InstanceKey::Ab { session: a },
        };
        prop_assert_eq!(InstanceKey::from_bytes(&key.to_bytes()).unwrap(), key);
    }

    /// Hostile input: arbitrary bytes must never panic any decoder.
    #[test]
    fn decoders_never_panic_on_garbage(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = RbMessage::from_bytes(&data);
        let _ = InstanceKey::from_bytes(&data);
        let _ = ritas::eb::EbMessage::from_bytes(&data);
        let _ = ritas::bc::BcMessage::from_bytes(&data);
        let _ = ritas::mvc::MvcMessage::from_bytes(&data);
        let _ = ritas::vc::VcMessage::from_bytes(&data);
        let _ = ritas::ab::AbMessage::from_bytes(&data);
    }

    /// A stack fed arbitrary frames from a "Byzantine" peer must not
    /// panic and must not deliver or send out of thin air. Frames whose
    /// tag happens to decode as `InstanceKey::Xfer` are routed verbatim
    /// to `Output::Xfer` by design — the recovery driver in `rsm`
    /// authenticates and validates them — but nothing else may surface.
    #[test]
    fn stack_survives_garbage_frames(frames in proptest::collection::vec(
        proptest::collection::vec(any::<u8>(), 0..120), 1..20)) {
        let mut cluster = Cluster::new(4, 99);
        for f in frames {
            let step = cluster.stack_mut(0).handle_frame(1, Bytes::from(f));
            for out in &step.outputs {
                prop_assert!(matches!(out, Output::Xfer { .. }));
            }
        }
    }
}

// ---------- Bracha validation soundness ----------

proptest! {
    /// Whatever a correct process derives from a snapshot of exactly `q`
    /// step-1 values must validate against any extension of that
    /// snapshot (monotonicity + soundness of `step2_valid`).
    #[test]
    fn step2_validation_sound(zeros in 0usize..8, extra_z in 0usize..4, extra_o in 0usize..4) {
        let q = 5; // n = 7, f = 2
        let zeros = zeros.min(q);
        let snapshot = Tally { zeros, ones: q - zeros, bottoms: 0 };
        let derived = majority(&snapshot);
        let extended = Tally {
            zeros: snapshot.zeros + extra_z,
            ones: snapshot.ones + extra_o,
            bottoms: 0,
        };
        prop_assert!(step2_valid(&extended, derived, q),
            "derived {derived} from {snapshot:?} rejected under {extended:?}");
    }

    #[test]
    fn step3_validation_sound(zeros in 0usize..8, extra_z in 0usize..4, extra_o in 0usize..4) {
        let q = 5;
        let zeros = zeros.min(q);
        let snapshot = Tally { zeros, ones: q - zeros, bottoms: 0 };
        let derived = strict_majority(&snapshot);
        let extended = Tally {
            zeros: snapshot.zeros + extra_z,
            ones: snapshot.ones + extra_o,
            bottoms: 0,
        };
        prop_assert!(step3_valid(&extended, derived, q));
    }

    #[test]
    fn next_round_validation_sound(zeros in 0usize..6, ones in 0usize..6, extra in 0usize..3) {
        let q = 5;
        let f = 2;
        prop_assume!(zeros + ones <= q);
        let snapshot = Tally { zeros, ones, bottoms: q - zeros - ones };
        // Values a correct process can carry into the next round.
        let candidates: Vec<bool> = if snapshot.zeros > f {
            vec![false]
        } else if snapshot.ones > f {
            vec![true]
        } else {
            vec![false, true]
        };
        let extended = Tally { bottoms: snapshot.bottoms + extra, ..snapshot };
        for v in candidates {
            prop_assert!(next_round_valid(&extended, v, q, f));
        }
    }
}

// ---------- protocol-level properties ----------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Binary consensus: agreement + validity for every proposal mix,
    /// schedule seed and crash pattern (at most one crash for n = 4).
    #[test]
    fn bc_agreement_and_validity(
        proposals in proptest::collection::vec(any::<bool>(), 4),
        seed in any::<u64>(),
        crash in proptest::option::of(0usize..4),
    ) {
        let mut cluster = Cluster::new(4, seed);
        if let Some(victim) = crash {
            cluster.crash(victim);
        }
        for p in 0..4 {
            if crash == Some(p) {
                continue;
            }
            let s = cluster.stack_mut(p).bc_propose(1, proposals[p]).unwrap();
            cluster.absorb(p, s);
        }
        cluster.run();

        let decisions: Vec<(usize, bool)> = (0..4)
            .filter(|p| crash != Some(*p))
            .filter_map(|p| {
                cluster.outputs(p).iter().find_map(|o| match o {
                    Output::BcDecided { decision, .. } => Some((p, *decision)),
                    _ => None,
                })
            })
            .collect();
        // All correct processes decide (termination with prob. 1; the
        // deterministic schedule makes it certain here)…
        prop_assert_eq!(decisions.len(), 4 - crash.iter().count());
        // …the same value (agreement)…
        let d0 = decisions[0].1;
        prop_assert!(decisions.iter().all(|(_, d)| *d == d0));
        // …and if all correct processes proposed v, the decision is v
        // (validity).
        let correct_proposals: Vec<bool> = (0..4)
            .filter(|p| crash != Some(*p))
            .map(|p| proposals[p])
            .collect();
        if correct_proposals.iter().all(|v| *v == correct_proposals[0]) {
            prop_assert_eq!(d0, correct_proposals[0]);
        }
    }

    /// Atomic broadcast total order under random bursts and schedules,
    /// checked through the shared invariants module (prefix-compatible
    /// orders, no duplicates, payload agreement + integrity).
    #[test]
    fn ab_total_order(
        counts in proptest::collection::vec(0usize..4, 4),
        seed in any::<u64>(),
    ) {
        let total: usize = counts.iter().sum();
        prop_assume!(total > 0);
        let mut cluster = Cluster::new(4, seed);
        let mut checker = InvariantChecker::new(4);
        for p in 0..4 {
            for k in 0..counts[p] {
                let payload = Bytes::from(format!("{p}:{k}"));
                let (id, s) = cluster.stack_mut(p).ab_broadcast(0, payload.clone());
                checker.expect_ab(id, payload);
                cluster.absorb(p, s);
            }
        }
        cluster.run();
        if let Err(v) = checker.check_cluster(&cluster) {
            prop_assert!(false, "safety violation: {}", v);
        }
        // Termination: every process a-delivered the whole burst (the
        // checker constrains safety only).
        for p in 0..4 {
            let delivered = cluster
                .outputs(p)
                .iter()
                .filter(|o| matches!(o, Output::AbDelivered { .. }))
                .count();
            prop_assert_eq!(delivered, total, "missing deliveries at {}", p);
        }
    }

    /// Multi-valued consensus decides a proposed value or ⊥ — never an
    /// invented value (validity) — with agreement and validity enforced
    /// by the shared invariants module.
    #[test]
    fn mvc_decides_proposed_or_bottom(
        values in proptest::collection::vec(0u8..4, 4),
        seed in any::<u64>(),
    ) {
        let mut cluster = Cluster::new(4, seed);
        let mut checker = InvariantChecker::new(4);
        for p in 0..4 {
            let value = Bytes::from(vec![values[p]]);
            let s = cluster
                .stack_mut(p)
                .mvc_propose(1, value.clone())
                .unwrap();
            checker.expect_mvc(1, p, Some(value));
            cluster.absorb(p, s);
        }
        cluster.run();
        if let Err(v) = checker.check_cluster(&cluster) {
            prop_assert!(false, "safety violation: {}", v);
        }
        for p in 0..4 {
            let decided = cluster
                .outputs(p)
                .iter()
                .any(|o| matches!(o, Output::MvcDecided { .. }));
            prop_assert!(decided, "process {} never decided", p);
        }
    }
}

// ---------- semantic equivocation (structurally valid conflicts) ----------

proptest! {
    /// An equivocated binary consensus value echoed by at most `f`
    /// processes — structurally a perfectly well-formed step value — must
    /// never pass the step-2/step-3 validation rules, whatever else the
    /// tally holds. (`q = 2f + 1` for the paper's `n = 3f + 1` groups, so
    /// any justifying subset needs more than `f` supporters.)
    #[test]
    fn minority_equivocated_value_never_validates(
        f in 1usize..4,
        support in 0usize..4,
        honest_extra in 0usize..12,
        bottoms in 0usize..4,
    ) {
        let q = 2 * f + 1;
        let support = support.min(f); // the lie's backers: at most f
        // Everyone else holds the honest value 1 (so the lie is 0): with
        // at most f < ⌈q/2⌉ backers, no q-subset makes the lie a
        // (strict) majority.
        let tally0 = Tally { zeros: support, ones: q + honest_extra, bottoms: 0 };
        prop_assert!(!step2_valid(&tally0, false, q));
        prop_assert!(!step3_valid(&tally0, Some(false), q));
        // Symmetrically with the lie being 1.
        let tally1 = Tally { zeros: q + honest_extra, ones: support, bottoms: 0 };
        prop_assert!(!step2_valid(&tally1, true, q));
        prop_assert!(!step3_valid(&tally1, Some(true), q));
        // With zero supporters and no ⊥ in sight, the lie cannot enter
        // the next round either (no adopt branch, no coin subset).
        if support == 0 && bottoms == 0 {
            let tally = Tally { zeros: q + honest_extra, ones: 0, bottoms: 0 };
            prop_assert!(!next_round_valid(&tally, true, q, f));
        }
    }

    /// Validation rules are total functions: arbitrary — including
    /// absurdly inflated, attacker-claimed — tallies never panic, for any
    /// plausible quorum size.
    #[test]
    fn validation_never_panics_on_conflicting_tallies(
        zeros in 0usize..1000,
        ones in 0usize..1000,
        bottoms in 0usize..1000,
        f in 1usize..8,
    ) {
        let q = 2 * f + 1;
        let t = Tally { zeros, ones, bottoms };
        for v in [false, true] {
            let _ = step2_valid(&t, v, q);
            let _ = step3_valid(&t, Some(v), q);
            let _ = next_round_valid(&t, v, q, f);
        }
        let _ = step3_valid(&t, None, q);
        let _ = majority(&t);
        let _ = strict_majority(&t);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Echo broadcast under hash-vector equivocation: the sender INITs
    /// `m1` to two correct receivers and `m2` to a third, then offers
    /// each side the best matrix column it can forge — its own (valid)
    /// row for the equivocated message padded with the honest rows,
    /// which only authenticate `m1`. The `f + 1` valid-MAC acceptance
    /// rule must confine delivery to `m1`: columns are structurally
    /// valid, the conflict is purely semantic, and rejection must be
    /// fault-flagged, never a panic.
    #[test]
    fn eb_hash_vector_equivocation_cannot_split(
        m1 in arb_bytes(64),
        m2 in arb_bytes(64),
        key_seed in any::<u64>(),
        odd_one_out in 1usize..4,
    ) {
        use ritas::eb::{EbMessage, EchoBroadcast};
        use ritas::Ctx;
        use ritas_crypto::{mac, KeyTable};
        use std::sync::Arc;

        prop_assume!(m1 != m2);
        let g = ritas::Group::new(4).unwrap();
        let table = KeyTable::dealer(4, key_seed);
        let mut receivers: Vec<EchoBroadcast> = (1..4)
            .map(|me| EchoBroadcast::new(Ctx::new(g, me, Arc::new(table.view_of(me))), 0))
            .collect();

        // Equivocating INITs: `odd_one_out` hears m2, the others m1.
        let mut honest_rows: Vec<Option<Vec<_>>> = vec![None; 4];
        for me in 1..4 {
            let m = if me == odd_one_out { &m2 } else { &m1 };
            let step = receivers[me - 1].handle_message(0, EbMessage::Init(m.clone()));
            // The receiver answers with its VECT row over what it heard.
            if let Some(out) = step.messages.first() {
                if let EbMessage::Vect(row) = &out.message {
                    honest_rows[me] = Some(row.clone());
                }
            }
        }
        let row0_m1 = mac::hash_vector(&m1, &table.view_of(0));
        let row0_m2 = mac::hash_vector(&m2, &table.view_of(0));

        for me in 1..4 {
            let (own_row, m) = if me == odd_one_out {
                (&row0_m2, &m2)
            } else {
                (&row0_m1, &m1)
            };
            // Column for `me`: sender's own row over what it told `me`,
            // plus every honest row (which authenticates only m1).
            let column: Vec<Option<mac::MacTag>> = (0..4)
                .map(|i| {
                    if i == 0 {
                        Some(own_row[me])
                    } else {
                        honest_rows[i].as_ref().map(|row| row[me])
                    }
                })
                .collect();
            let step = receivers[me - 1].handle_message(0, EbMessage::Mat(column));
            if me == odd_one_out {
                // Only the sender's row vouches for m2: below f+1 = 2.
                prop_assert!(
                    step.outputs.is_empty(),
                    "equivocated {:?} delivered at {}", m, me
                );
                prop_assert!(!receivers[me - 1].is_delivered());
            } else {
                prop_assert_eq!(
                    step.outputs.clone(),
                    vec![m1.clone()],
                    "honest side failed to deliver at {}", me
                );
            }
        }
    }
}
