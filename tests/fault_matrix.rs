//! Systematic fault-matrix coverage: every consensus/ordering protocol ×
//! every fault class, asserting the protocol's safety properties among
//! the correct processes. The fault classes:
//!
//! * **crash** — one process silent from the start (fail-stop);
//! * **strategy** — one process running the paper's §4.2 Byzantine
//!   proposal strategy through the real code paths;
//! * **wire** — one process whose frames are randomly dropped,
//!   duplicated, bit-flipped or replaced with garbage (an arbitrary-bytes
//!   adversary at the transport boundary);
//! * **flap** — no process is faulty, but point-to-point links keep
//!   going dark mid-protocol and healing with their traffic intact (the
//!   harness twin of TCP socket kills absorbed by the session layer's
//!   reconnect + retransmit, experiment X7). All four processes must
//!   uphold the protocol properties.

use bytes::Bytes;
use ritas::ab::MsgId;
use ritas::adversary::RandomMutation;
use ritas::stack::{Output, Stack, StackConfig};
use ritas::testing::Cluster;
use ritas::Group;
use ritas_crypto::KeyTable;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fault {
    Crash,
    Strategy,
    Wire,
    Flap,
}

const FAULTY: usize = 3;

/// Builds a 4-process cluster with `fault` applied to process 3.
fn cluster(fault: Fault, seed: u64) -> Cluster {
    let group = Group::new(4).unwrap();
    let table = KeyTable::dealer(4, seed);
    let stacks: Vec<Stack> = (0..4)
        .map(|me| {
            let config = StackConfig {
                ab: ritas::ab::AbConfig {
                    byzantine_bottom: fault == Fault::Strategy && me == FAULTY,
                    ..Default::default()
                },
            };
            Stack::with_config(
                group,
                me,
                table.view_of(me),
                seed ^ ((me as u64) << 16),
                config,
            )
        })
        .collect();
    let mut c = Cluster::with_stacks(stacks, seed);
    match fault {
        Fault::Crash => c.crash(FAULTY),
        Fault::Wire => c.set_strategy(FAULTY, Box::new(RandomMutation::new(seed ^ FAULTY as u64))),
        Fault::Strategy | Fault::Flap => {}
    }
    c
}

/// The processes whose properties the matrix asserts: everyone but the
/// faulty process — and under `Flap` there is no faulty process, so all
/// four must behave.
fn correct(fault: Fault) -> impl Iterator<Item = usize> {
    (0..4).filter(move |p| fault == Fault::Flap || *p != FAULTY)
}

fn faults() -> [Fault; 4] {
    [Fault::Crash, Fault::Strategy, Fault::Wire, Fault::Flap]
}

/// Drains the cluster. Under `Flap`, execution is interleaved with
/// sever/heal cycles walking all six links twice: each round blacks out
/// one link for up to 60 deliveries, heals it (re-queuing the buffered
/// frames), runs another 60, then moves to the next link. Every link is
/// healed before the final drain, matching the model's eventual-delivery
/// guarantee.
fn run_with_fault(c: &mut Cluster, fault: Fault) {
    if fault != Fault::Flap {
        c.run();
        return;
    }
    const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];
    for round in 0..12 {
        let (a, b) = PAIRS[round % PAIRS.len()];
        c.sever_link(a, b);
        for _ in 0..60 {
            if !c.step() {
                break;
            }
        }
        c.heal_link(a, b);
        for _ in 0..60 {
            if !c.step() {
                break;
            }
        }
    }
    c.run();
}

#[test]
fn binary_consensus_fault_matrix() {
    for fault in faults() {
        for seed in [1u64, 2] {
            let mut c = cluster(fault, seed);
            for p in 0..4 {
                if fault == Fault::Crash && p == FAULTY {
                    continue;
                }
                // Strategy attacker: always proposes 0 (§4.2).
                let value = !(fault == Fault::Strategy && p == FAULTY);
                let s = c.stack_mut(p).bc_propose(1, value).unwrap();
                c.absorb(p, s);
            }
            run_with_fault(&mut c, fault);
            let mut decisions = Vec::new();
            for p in correct(fault) {
                let d = c.outputs(p).iter().find_map(|o| match o {
                    Output::BcDecided { decision, .. } => Some(*decision),
                    _ => None,
                });
                decisions.push(d.unwrap_or_else(|| panic!("{fault:?}/{seed}: p{p} undecided")));
            }
            assert!(
                decisions.iter().all(|d| *d == decisions[0]),
                "{fault:?}/{seed}: agreement violated"
            );
            if fault != Fault::Wire {
                // All correct proposed true → validity forces true.
                // (Wire-corrupted process also proposed true but its
                // traffic is garbage; validity over correct still holds.)
                assert!(decisions[0], "{fault:?}/{seed}: validity violated");
            }
        }
    }
}

#[test]
fn multi_valued_consensus_fault_matrix() {
    for fault in faults() {
        for seed in [3u64, 4] {
            let mut c = cluster(fault, seed);
            for p in 0..4 {
                if fault == Fault::Crash && p == FAULTY {
                    continue;
                }
                let s = if fault == Fault::Strategy && p == FAULTY {
                    c.stack_mut(p).mvc_propose_bottom(1).unwrap()
                } else {
                    c.stack_mut(p)
                        .mvc_propose(1, Bytes::from_static(b"V"))
                        .unwrap()
                };
                c.absorb(p, s);
            }
            run_with_fault(&mut c, fault);
            let mut decisions = Vec::new();
            for p in correct(fault) {
                let d = c.outputs(p).iter().find_map(|o| match o {
                    Output::MvcDecided { decision, .. } => Some(decision.clone()),
                    _ => None,
                });
                decisions.push(d.unwrap_or_else(|| panic!("{fault:?}/{seed}: p{p} undecided")));
            }
            assert!(
                decisions.iter().all(|d| *d == decisions[0]),
                "{fault:?}/{seed}: agreement violated"
            );
            // Validity: the decision is the correct processes' common
            // value or ⊥ — never an invented value.
            if let Some(v) = &decisions[0] {
                assert_eq!(v.as_ref(), b"V", "{fault:?}/{seed}: invented value");
            }
        }
    }
}

#[test]
fn vector_consensus_fault_matrix() {
    for fault in faults() {
        for seed in [5u64, 6] {
            let mut c = cluster(fault, seed);
            for p in 0..4 {
                if fault == Fault::Crash && p == FAULTY {
                    continue;
                }
                let s = c
                    .stack_mut(p)
                    .vc_propose(1, Bytes::from(format!("p{p}")))
                    .unwrap();
                c.absorb(p, s);
            }
            run_with_fault(&mut c, fault);
            let mut vectors = Vec::new();
            for p in correct(fault) {
                let v = c.outputs(p).iter().find_map(|o| match o {
                    Output::VcDecided { vector, .. } => Some(vector.clone()),
                    _ => None,
                });
                vectors.push(v.unwrap_or_else(|| panic!("{fault:?}/{seed}: p{p} undecided")));
            }
            assert!(
                vectors.iter().all(|v| *v == vectors[0]),
                "{fault:?}/{seed}: agreement violated"
            );
            let v = &vectors[0];
            // Vector validity: correct entries match real proposals and
            // at least f+1 entries are present.
            assert!(
                v.iter().flatten().count() >= 2,
                "{fault:?}/{seed}: too sparse"
            );
            for p in correct(fault) {
                if let Some(entry) = &v[p] {
                    assert_eq!(entry.as_ref(), format!("p{p}").as_bytes());
                }
            }
        }
    }
}

#[test]
fn atomic_broadcast_fault_matrix() {
    for fault in faults() {
        for seed in [7u64, 8] {
            let mut c = cluster(fault, seed);
            let mut expected = 0;
            for p in 0..4 {
                if fault == Fault::Crash && p == FAULTY {
                    continue;
                }
                // The wire-corrupted process's own broadcasts may or may
                // not survive its mangled frames; don't count them.
                if fault == Fault::Wire && p == FAULTY {
                    continue;
                }
                let (_, s) = c.stack_mut(p).ab_broadcast(0, Bytes::from(format!("m{p}")));
                c.absorb(p, s);
                expected += 1;
            }
            run_with_fault(&mut c, fault);
            let order = |p: usize| -> Vec<MsgId> {
                c.outputs(p)
                    .iter()
                    .filter_map(|o| match o {
                        Output::AbDelivered { delivery, .. } => Some(delivery.id),
                        _ => None,
                    })
                    .collect()
            };
            let correct_ids: Vec<usize> = correct(fault).collect();
            let o0 = order(correct_ids[0]);
            assert!(
                o0.len() >= expected,
                "{fault:?}/{seed}: only {} of {expected} delivered",
                o0.len()
            );
            for &p in &correct_ids[1..] {
                assert_eq!(order(p), o0, "{fault:?}/{seed}: order diverged at p{p}");
            }
        }
    }
}
