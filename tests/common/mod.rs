//! The exactly-once fixture shared by the threaded service suites
//! (`service_tier`, `rejoin_recovery`, `rotation_scheduler`): a
//! replicated state that tallies applies per `(client, seq)`, so each
//! suite audits exactly-once directly against the replicated state —
//! any count above 1 is a duplicate apply.

use bytes::Bytes;
use ritas::codec::{Reader, WireError, Writer};
use ritas::recovery::SnapshotState;
use ritas::service::{ClientId, ServiceReplica};
use std::collections::BTreeMap;

/// The running apply count (what replies carry) plus the per-`(client,
/// seq)` tally. The snapshot encoding is canonical by construction:
/// `BTreeMap` iteration is sorted and every field is fixed-width, so
/// equal states encode to equal bytes on every replica.
#[derive(Default)]
pub struct Audit {
    pub total: u64,
    pub applied: BTreeMap<(u64, u64), u64>,
}

impl SnapshotState for Audit {
    fn encode_snapshot(&self, w: &mut Writer) {
        w.u64(self.total);
        w.u64(self.applied.len() as u64);
        for (&(client, seq), &n) in &self.applied {
            w.u64(client).u64(seq).u64(n);
        }
    }

    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let total = r.u64("audit.total")?;
        let count = r.u64("audit.count")?;
        let mut applied = BTreeMap::new();
        for _ in 0..count {
            let client = r.u64("audit.client")?;
            let seq = r.u64("audit.seq")?;
            let n = r.u64("audit.n")?;
            applied.insert((client, seq), n);
        }
        Ok(Audit { total, applied })
    }
}

/// Applies a command whose first 8 bytes are the request's seq; replies
/// with the new running total.
pub fn audit_apply(state: &mut Audit, client: ClientId, cmd: &[u8]) -> Bytes {
    let mut seq_bytes = [0u8; 8];
    seq_bytes.copy_from_slice(&cmd[..8]);
    let seq = u64::from_be_bytes(seq_bytes);
    *state.applied.entry((client, seq)).or_insert(0) += 1;
    state.total += 1;
    Bytes::from(state.total.to_be_bytes().to_vec())
}

/// Every query reads the running total.
pub fn audit_query(state: &Audit, _q: &[u8]) -> Bytes {
    Bytes::from(state.total.to_be_bytes().to_vec())
}

/// Settles every replica (one barrier each), then returns the summed
/// duplicate-apply count (Σ per-key `count − 1`) across all of them —
/// the measured exactly-once census.
pub fn duplicate_applies(replicas: &[&ServiceReplica<Audit>]) -> u64 {
    for r in replicas {
        let _ = r.barrier();
    }
    replicas
        .iter()
        .map(|r| r.read_state(|s| s.applied.values().map(|n| n - 1).sum::<u64>()))
        .sum()
}
