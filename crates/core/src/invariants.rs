//! The paper's safety predicates as an incremental, reusable checker.
//!
//! [`InvariantChecker`] watches the outputs of a [`crate::testing::Cluster`]
//! and flags the first violation of any safety property the paper proves
//! (§2.3–§2.7):
//!
//! * **RB/EB agreement & integrity** — all correct processes that deliver
//!   a broadcast instance deliver the *same* payload, at most once, and
//!   if the sender is correct, exactly the payload it sent.
//! * **BC agreement & validity** — all correct processes decide the same
//!   bit; if every correct process proposed the same bit, that bit is
//!   decided. (Validity in this form holds under up to `f` Byzantine
//!   processes, so it is checked unconditionally.)
//! * **MVC agreement & validity** — same decision everywhere; a non-⊥
//!   decision must be a value some *correct* process proposed (a decided
//!   value needs `n−2f > f` matching `INIT`s, so at least one comes from
//!   a correct process — checkable even with corrupt processes present).
//! * **VC agreement & validity** — identical decided vectors of length
//!   `n` with at least `n−f` non-⊥ entries, where every entry for a
//!   correct process is either ⊥ or that process's real proposal.
//! * **AB total order & integrity** — the a-delivery sequences of correct
//!   processes are prefix-compatible (no two ever order the same position
//!   differently), no id is a-delivered twice by one process, all correct
//!   processes agree on each id's payload, and ids from correct senders
//!   carry the payload actually broadcast.
//!
//! The checker is *incremental*: [`InvariantChecker::check_cluster`]
//! keeps a cursor per process and only examines outputs produced since
//! the previous call, so checking after every scheduler step (as the
//! adversarial conformance harness does) costs O(total outputs), not
//! O(steps²).
//!
//! Outputs of processes registered via [`InvariantChecker::mark_corrupt`]
//! are ignored — the paper's properties constrain correct processes only.

use crate::ab::MsgId;
use crate::mvc::MvcValue;
use crate::stack::{InstanceKey, Output};
use crate::testing::Cluster;
use crate::ProcessId;
use bytes::Bytes;
use std::collections::HashMap;

/// A safety-predicate violation: which paper property broke, at which
/// process, and how.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Short predicate identifier (e.g. `"rb-agreement"`).
    pub predicate: &'static str,
    /// The correct process whose output exposed the violation.
    pub process: ProcessId,
    /// Human-readable specifics.
    pub detail: String,
}

impl core::fmt::Display for Violation {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} violated at process {}: {}",
            self.predicate, self.process, self.detail
        )
    }
}

impl std::error::Error for Violation {}

/// Per-instance broadcast record: what each process delivered.
#[derive(Debug, Default)]
struct BroadcastState {
    delivered: Vec<Option<Bytes>>,
}

/// Per-session atomic broadcast record.
#[derive(Debug, Default)]
struct AbState {
    /// The longest agreed delivery order so far: position `k` is fixed by
    /// the first correct process to a-deliver its `k`-th message.
    global_order: Vec<MsgId>,
    /// How many messages each process has a-delivered.
    cursor: Vec<usize>,
    /// Ids each process has a-delivered (duplicate detection).
    seen: Vec<std::collections::HashSet<MsgId>>,
    /// First payload a correct process a-delivered for each id.
    payloads: HashMap<MsgId, Bytes>,
}

/// Incremental checker for the paper's safety predicates.
#[derive(Debug)]
pub struct InvariantChecker {
    n: usize,
    f: usize,
    corrupt: Vec<bool>,
    /// Output cursor per process (for `check_cluster`).
    seen: Vec<usize>,
    /// Expected payloads of broadcasts issued by correct processes.
    expected_broadcast: HashMap<InstanceKey, Bytes>,
    /// Registered proposals, per consensus tag and proposer.
    bc_proposals: HashMap<u64, Vec<Option<bool>>>,
    mvc_proposals: HashMap<u64, Vec<Option<MvcValue>>>,
    vc_proposals: HashMap<u64, Vec<Option<Bytes>>>,
    /// Expected payloads of atomic broadcasts from correct senders.
    expected_ab: HashMap<MsgId, Bytes>,
    rb: HashMap<InstanceKey, BroadcastState>,
    eb: HashMap<InstanceKey, BroadcastState>,
    bc_decided: HashMap<u64, Vec<Option<bool>>>,
    mvc_decided: HashMap<u64, Vec<Option<MvcValue>>>,
    vc_decided: HashMap<u64, Vec<Option<Vec<Option<Bytes>>>>>,
    ab: HashMap<u32, AbState>,
}

impl InvariantChecker {
    /// Creates a checker for a group of `n` processes.
    pub fn new(n: usize) -> Self {
        InvariantChecker {
            n,
            f: n.saturating_sub(1) / 3,
            corrupt: vec![false; n],
            seen: vec![0; n],
            expected_broadcast: HashMap::new(),
            bc_proposals: HashMap::new(),
            mvc_proposals: HashMap::new(),
            vc_proposals: HashMap::new(),
            expected_ab: HashMap::new(),
            rb: HashMap::new(),
            eb: HashMap::new(),
            bc_decided: HashMap::new(),
            mvc_decided: HashMap::new(),
            vc_decided: HashMap::new(),
            ab: HashMap::new(),
        }
    }

    /// Declares `p` corrupt: its outputs are ignored and integrity is not
    /// enforced for its broadcasts/proposals.
    pub fn mark_corrupt(&mut self, p: ProcessId) {
        self.corrupt[p] = true;
    }

    /// Registers the payload a *correct* process broadcast on `key`
    /// (RB or EB), arming the integrity check for that instance.
    pub fn expect_broadcast(&mut self, key: InstanceKey, payload: Bytes) {
        self.expected_broadcast.insert(key, payload);
    }

    /// Registers a correct process's binary consensus proposal.
    pub fn expect_bc(&mut self, tag: u64, proposer: ProcessId, value: bool) {
        self.bc_proposals
            .entry(tag)
            .or_insert_with(|| vec![None; self.n])[proposer] = Some(value);
    }

    /// Registers a correct process's multi-valued consensus proposal.
    pub fn expect_mvc(&mut self, tag: u64, proposer: ProcessId, value: MvcValue) {
        self.mvc_proposals
            .entry(tag)
            .or_insert_with(|| vec![None; self.n])[proposer] = Some(value);
    }

    /// Registers a correct process's vector consensus proposal.
    pub fn expect_vc(&mut self, tag: u64, proposer: ProcessId, proposal: Bytes) {
        self.vc_proposals
            .entry(tag)
            .or_insert_with(|| vec![None; self.n])[proposer] = Some(proposal);
    }

    /// Registers the payload a correct process atomically broadcast,
    /// arming AB integrity for that id.
    pub fn expect_ab(&mut self, id: MsgId, payload: Bytes) {
        self.expected_ab.insert(id, payload);
    }

    /// Consumes every output produced since the last call and returns the
    /// first violation found, if any. Call after each scheduler step.
    ///
    /// # Errors
    ///
    /// Returns the first [`Violation`] discovered in the new outputs.
    pub fn check_cluster(&mut self, cluster: &Cluster) -> Result<(), Violation> {
        for p in 0..self.n.min(cluster.n()) {
            let outs = cluster.outputs(p);
            if self.corrupt[p] {
                self.seen[p] = outs.len();
                continue;
            }
            while self.seen[p] < outs.len() {
                let out = outs[self.seen[p]].clone();
                self.seen[p] += 1;
                self.observe(p, &out)?;
            }
        }
        Ok(())
    }

    /// Feeds one output of correct process `p` to the checker. (Exposed
    /// so harnesses that do not use [`Cluster`] can still share the
    /// predicates.)
    ///
    /// # Errors
    ///
    /// Returns the [`Violation`] this output exposes, if any.
    pub fn observe(&mut self, p: ProcessId, output: &Output) -> Result<(), Violation> {
        match output {
            Output::RbDelivered {
                key,
                sender,
                payload,
            } => self.observe_broadcast(p, *key, *sender, payload, true),
            Output::EbDelivered {
                key,
                sender,
                payload,
            } => self.observe_broadcast(p, *key, *sender, payload, false),
            Output::BcDecided { key, decision } => self.observe_bc(p, *key, *decision),
            Output::MvcDecided { key, decision } => self.observe_mvc(p, *key, decision),
            Output::VcDecided { key, vector } => self.observe_vc(p, *key, vector),
            Output::AbDelivered { key, delivery } => {
                self.observe_ab(p, *key, delivery.id, &delivery.payload)
            }
            // State-transfer frames are request/response traffic, not
            // agreement outputs; safety over them is enforced end-to-end
            // (f+1 manifest quorum + Merkle chunk proofs), not here.
            Output::Xfer { .. } => Ok(()),
        }
    }

    fn violation(
        predicate: &'static str,
        process: ProcessId,
        detail: String,
    ) -> Result<(), Violation> {
        Err(Violation {
            predicate,
            process,
            detail,
        })
    }

    fn observe_broadcast(
        &mut self,
        p: ProcessId,
        key: InstanceKey,
        sender: ProcessId,
        payload: &Bytes,
        is_rb: bool,
    ) -> Result<(), Violation> {
        let (layer, table) = if is_rb {
            ("rb", &mut self.rb)
        } else {
            ("eb", &mut self.eb)
        };
        let declared = match key {
            InstanceKey::Rb { sender, .. } | InstanceKey::Eb { sender, .. } => Some(sender),
            _ => None,
        };
        if declared.is_some_and(|s| s != sender) {
            return Self::violation(
                if is_rb {
                    "rb-integrity"
                } else {
                    "eb-integrity"
                },
                p,
                format!("{key:?} delivered with sender {sender} ≠ instance sender"),
            );
        }
        let state = table.entry(key).or_insert_with(|| BroadcastState {
            delivered: vec![None; self.n],
        });
        if state.delivered[p].is_some() {
            return Self::violation(
                if is_rb {
                    "rb-no-duplication"
                } else {
                    "eb-no-duplication"
                },
                p,
                format!("{key:?} delivered twice"),
            );
        }
        if let Some(other) = state.delivered.iter().flatten().next() {
            if other != payload {
                return Self::violation(
                    if is_rb {
                        "rb-agreement"
                    } else {
                        "eb-agreement"
                    },
                    p,
                    format!(
                        "{key:?}: delivered {payload:?} while another correct process \
                         delivered {other:?} ({layer} split)"
                    ),
                );
            }
        }
        state.delivered[p] = Some(payload.clone());
        if let Some(expected) = self.expected_broadcast.get(&key) {
            if expected != payload {
                return Self::violation(
                    if is_rb {
                        "rb-integrity"
                    } else {
                        "eb-integrity"
                    },
                    p,
                    format!("{key:?}: delivered {payload:?}, sender broadcast {expected:?}"),
                );
            }
        }
        Ok(())
    }

    fn observe_bc(
        &mut self,
        p: ProcessId,
        key: InstanceKey,
        decision: bool,
    ) -> Result<(), Violation> {
        let InstanceKey::Bc { tag } = key else {
            return Self::violation("bc-agreement", p, format!("decision under {key:?}"));
        };
        let decided = self
            .bc_decided
            .entry(tag)
            .or_insert_with(|| vec![None; self.n]);
        if decided[p].is_some() {
            return Self::violation("bc-no-duplication", p, format!("bc[{tag}] decided twice"));
        }
        if let Some(other) = decided.iter().flatten().next() {
            if *other != decision {
                return Self::violation(
                    "bc-agreement",
                    p,
                    format!("bc[{tag}]: decided {decision}, another correct process {other}"),
                );
            }
        }
        decided[p] = Some(decision);
        if let Some(props) = self.bc_proposals.get(&tag) {
            let correct: Vec<Option<bool>> = (0..self.n)
                .filter(|q| !self.corrupt[*q])
                .map(|q| props[q])
                .collect();
            // Validity: if every correct process proposed the same bit,
            // only that bit may be decided. (Requires all correct
            // proposals to be registered to be conclusive.)
            if correct.iter().all(|v| v.is_some()) {
                let first = correct[0];
                if correct.iter().all(|v| *v == first) && Some(decision) != first {
                    return Self::violation(
                        "bc-validity",
                        p,
                        format!(
                            "bc[{tag}]: decided {decision} though all correct proposed {:?}",
                            first.unwrap()
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    fn observe_mvc(
        &mut self,
        p: ProcessId,
        key: InstanceKey,
        decision: &MvcValue,
    ) -> Result<(), Violation> {
        let InstanceKey::Mvc { tag } = key else {
            return Self::violation("mvc-agreement", p, format!("decision under {key:?}"));
        };
        let decided = self
            .mvc_decided
            .entry(tag)
            .or_insert_with(|| vec![None; self.n]);
        if decided[p].is_some() {
            return Self::violation("mvc-no-duplication", p, format!("mvc[{tag}] decided twice"));
        }
        if let Some(other) = decided.iter().flatten().next() {
            if other != decision {
                return Self::violation(
                    "mvc-agreement",
                    p,
                    format!("mvc[{tag}]: decided {decision:?}, another correct process {other:?}"),
                );
            }
        }
        decided[p] = Some(decision.clone());
        if let Some(v) = decision {
            if let Some(props) = self.mvc_proposals.get(&tag) {
                let all_correct_registered = (0..self.n)
                    .filter(|q| !self.corrupt[*q])
                    .all(|q| props[q].is_some());
                // A decided non-⊥ value needs n−2f matching INITs and
                // n−2f > f, so at least one correct process proposed it.
                if all_correct_registered
                    && !(0..self.n).any(|q| !self.corrupt[q] && props[q] == Some(Some(v.clone())))
                {
                    return Self::violation(
                        "mvc-validity",
                        p,
                        format!("mvc[{tag}]: decided {v:?}, proposed by no correct process"),
                    );
                }
            }
        }
        Ok(())
    }

    fn observe_vc(
        &mut self,
        p: ProcessId,
        key: InstanceKey,
        vector: &[Option<Bytes>],
    ) -> Result<(), Violation> {
        let InstanceKey::Vc { tag } = key else {
            return Self::violation("vc-agreement", p, format!("decision under {key:?}"));
        };
        let decided = self
            .vc_decided
            .entry(tag)
            .or_insert_with(|| vec![None; self.n]);
        if decided[p].is_some() {
            return Self::violation("vc-no-duplication", p, format!("vc[{tag}] decided twice"));
        }
        if let Some(other) = decided.iter().flatten().next() {
            if other.as_slice() != vector {
                return Self::violation(
                    "vc-agreement",
                    p,
                    format!("vc[{tag}]: decided vector differs from another correct process's"),
                );
            }
        }
        decided[p] = Some(vector.to_vec());
        if vector.len() != self.n {
            return Self::violation(
                "vc-validity",
                p,
                format!("vc[{tag}]: vector length {} ≠ n = {}", vector.len(), self.n),
            );
        }
        let non_bottom = vector.iter().filter(|e| e.is_some()).count();
        if non_bottom < self.n - self.f {
            return Self::violation(
                "vc-validity",
                p,
                format!(
                    "vc[{tag}]: only {non_bottom} non-⊥ entries, need ≥ n−f = {}",
                    self.n - self.f
                ),
            );
        }
        if let Some(props) = self.vc_proposals.get(&tag) {
            for q in 0..self.n {
                if self.corrupt[q] {
                    continue;
                }
                let (Some(expected), Some(entry)) = (props[q].as_ref(), vector[q].as_ref()) else {
                    continue;
                };
                if expected != entry {
                    return Self::violation(
                        "vc-validity",
                        p,
                        format!(
                            "vc[{tag}]: entry {q} is {entry:?}, but correct process {q} \
                             proposed {expected:?}"
                        ),
                    );
                }
            }
        }
        Ok(())
    }

    fn observe_ab(
        &mut self,
        p: ProcessId,
        key: InstanceKey,
        id: MsgId,
        payload: &Bytes,
    ) -> Result<(), Violation> {
        let InstanceKey::Ab { session } = key else {
            return Self::violation("ab-total-order", p, format!("delivery under {key:?}"));
        };
        let n = self.n;
        let state = self.ab.entry(session).or_insert_with(|| AbState {
            global_order: Vec::new(),
            cursor: vec![0; n],
            seen: vec![std::collections::HashSet::new(); n],
            payloads: HashMap::new(),
        });
        let pos = state.cursor[p];
        state.cursor[p] += 1;
        if !state.seen[p].insert(id) {
            return Self::violation(
                "ab-no-duplication",
                p,
                format!("ab[{session}]: {id:?} a-delivered twice"),
            );
        }
        match state.global_order.get(pos) {
            Some(expected) if *expected != id => {
                return Self::violation(
                    "ab-total-order",
                    p,
                    format!(
                        "ab[{session}]: position {pos} is {id:?} here but {expected:?} at \
                         another correct process"
                    ),
                );
            }
            Some(_) => {}
            None => state.global_order.push(id),
        }
        if let Some(first) = state.payloads.get(&id) {
            if first != payload {
                return Self::violation(
                    "ab-agreement",
                    p,
                    format!("ab[{session}]: {id:?} payload differs between correct processes"),
                );
            }
        } else {
            state.payloads.insert(id, payload.clone());
        }
        if let Some(expected) = self.expected_ab.get(&id) {
            if expected != payload {
                return Self::violation(
                    "ab-integrity",
                    p,
                    format!(
                        "ab[{session}]: {id:?} delivered {payload:?}, sender broadcast \
                         {expected:?}"
                    ),
                );
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::AbDelivery;

    fn rb_out(seq: u64, payload: &'static [u8]) -> Output {
        Output::RbDelivered {
            key: InstanceKey::Rb { sender: 0, seq },
            sender: 0,
            payload: Bytes::from_static(payload),
        }
    }

    #[test]
    fn rb_split_is_caught() {
        let mut c = InvariantChecker::new(4);
        c.observe(1, &rb_out(1, b"a")).unwrap();
        let err = c.observe(2, &rb_out(1, b"b")).unwrap_err();
        assert_eq!(err.predicate, "rb-agreement");
        assert_eq!(err.process, 2);
    }

    #[test]
    fn rb_double_delivery_is_caught() {
        let mut c = InvariantChecker::new(4);
        c.observe(1, &rb_out(1, b"a")).unwrap();
        let err = c.observe(1, &rb_out(1, b"a")).unwrap_err();
        assert_eq!(err.predicate, "rb-no-duplication");
    }

    #[test]
    fn rb_integrity_checks_expected_payload() {
        let mut c = InvariantChecker::new(4);
        c.expect_broadcast(
            InstanceKey::Rb { sender: 0, seq: 1 },
            Bytes::from_static(b"real"),
        );
        let err = c.observe(1, &rb_out(1, b"fake")).unwrap_err();
        assert_eq!(err.predicate, "rb-integrity");
    }

    #[test]
    fn bc_disagreement_and_validity_are_caught() {
        let mut c = InvariantChecker::new(4);
        let key = InstanceKey::Bc { tag: 7 };
        c.observe(
            0,
            &Output::BcDecided {
                key,
                decision: true,
            },
        )
        .unwrap();
        let err = c
            .observe(
                1,
                &Output::BcDecided {
                    key,
                    decision: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.predicate, "bc-agreement");

        let mut c = InvariantChecker::new(4);
        c.mark_corrupt(3);
        for p in 0..3 {
            c.expect_bc(7, p, true);
        }
        let err = c
            .observe(
                0,
                &Output::BcDecided {
                    key,
                    decision: false,
                },
            )
            .unwrap_err();
        assert_eq!(err.predicate, "bc-validity");
    }

    #[test]
    fn mvc_validity_requires_a_correct_proposer() {
        let mut c = InvariantChecker::new(4);
        c.mark_corrupt(3);
        let key = InstanceKey::Mvc { tag: 2 };
        for p in 0..3 {
            c.expect_mvc(2, p, Some(Bytes::from_static(b"v")));
        }
        // ⊥ is always acceptable.
        c.observe(
            0,
            &Output::MvcDecided {
                key,
                decision: None,
            },
        )
        .unwrap();
        let mut c2 = InvariantChecker::new(4);
        c2.mark_corrupt(3);
        for p in 0..3 {
            c2.expect_mvc(2, p, Some(Bytes::from_static(b"v")));
        }
        let err = c2
            .observe(
                0,
                &Output::MvcDecided {
                    key,
                    decision: Some(Bytes::from_static(b"forged")),
                },
            )
            .unwrap_err();
        assert_eq!(err.predicate, "mvc-validity");
    }

    #[test]
    fn vc_entry_forgery_is_caught() {
        let mut c = InvariantChecker::new(4);
        c.expect_vc(3, 1, Bytes::from_static(b"real"));
        let key = InstanceKey::Vc { tag: 3 };
        let mut vector: Vec<Option<Bytes>> = vec![Some(Bytes::from_static(b"x")); 4];
        vector[1] = Some(Bytes::from_static(b"forged"));
        let err = c
            .observe(0, &Output::VcDecided { key, vector })
            .unwrap_err();
        assert_eq!(err.predicate, "vc-validity");
    }

    #[test]
    fn ab_order_divergence_is_caught() {
        let mut c = InvariantChecker::new(4);
        let key = InstanceKey::Ab { session: 0 };
        let id_a = MsgId { sender: 0, rbid: 1 };
        let id_b = MsgId { sender: 1, rbid: 1 };
        let deliver = |id: MsgId| Output::AbDelivered {
            key,
            delivery: AbDelivery {
                id,
                payload: Bytes::from_static(b"m"),
            },
        };
        c.observe(0, &deliver(id_a)).unwrap();
        c.observe(0, &deliver(id_b)).unwrap();
        c.observe(1, &deliver(id_a)).unwrap();
        let err = c.observe(2, &deliver(id_b)).unwrap_err();
        assert_eq!(err.predicate, "ab-total-order");
    }

    #[test]
    fn checker_is_incremental_over_a_cluster() {
        let mut cluster = Cluster::new(4, 9);
        let mut checker = InvariantChecker::new(4);
        let (key, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"ok"));
        checker.expect_broadcast(key, Bytes::from_static(b"ok"));
        cluster.absorb(0, step);
        while cluster.step() {
            checker.check_cluster(&cluster).expect("no violation");
        }
        // All four processes delivered; cursors consumed everything.
        checker.check_cluster(&cluster).expect("idempotent");
    }
}
