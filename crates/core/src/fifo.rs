//! FIFO-order adapter for atomic broadcast.
//!
//! Atomic broadcast guarantees a *total* order, but not that a sender's
//! messages appear in the order it broadcast them: a later message can be
//! ordered in an earlier agreement batch if its reliable broadcast
//! completed first. Since identifiers are `(sender, rbid)` with
//! sender-local sequential `rbid`s (§2.7), FIFO order is recoverable with
//! a deterministic holdback queue: release a delivery only when all of
//! its sender's earlier `rbid`s have been released.
//!
//! Every correct process applies the same transformation to the same
//! total order, so the FIFO-adapted sequence is itself identical
//! everywhere — the adapter upgrades "total order" to "FIFO total order"
//! with no extra communication.
//!
//! Holdback is bounded per *correct* sender (gaps fill as agreements
//! complete). A Byzantine sender that deliberately skips an `rbid`
//! strands its own later messages in the holdback queue — it can censor
//! only itself; [`FifoOrder::held`] monitors that and
//! [`FifoOrder::evict_sender`] would reclaim the memory. Nothing calls
//! `evict_sender` yet, so today every correct replica keeps each such
//! delivery (a view that pins its whole batch buffer) and the atomic
//! broadcast keeps its rbid in the sparse delivered set, for good: one
//! entry per command of the gapped sender. ROADMAP item 14 tracks this
//! as its rbid-gap path.

use crate::ab::AbDelivery;
use crate::ProcessId;
use std::collections::BTreeMap;

/// Deterministic FIFO holdback queue over a-deliveries.
///
/// # Example
///
/// ```
/// use ritas::ab::{AbDelivery, MsgId};
/// use ritas::fifo::FifoOrder;
/// use bytes::Bytes;
///
/// let mut fifo = FifoOrder::new(4);
/// let d = |rbid| AbDelivery {
///     id: MsgId { sender: 2, rbid },
///     payload: Bytes::new(),
/// };
/// // rbid 1 arrives before rbid 0: held back…
/// assert!(fifo.push(d(1)).is_empty());
/// // …until 0 arrives, releasing both in sender order.
/// let released = fifo.push(d(0));
/// assert_eq!(released.iter().map(|d| d.id.rbid).collect::<Vec<_>>(), vec![0, 1]);
/// ```
#[derive(Debug, Clone)]
pub struct FifoOrder {
    /// Next expected rbid per sender.
    next: Vec<u64>,
    /// Out-of-order deliveries per sender.
    held: Vec<BTreeMap<u64, AbDelivery>>,
}

impl FifoOrder {
    /// Creates the adapter for `n` senders.
    pub fn new(n: usize) -> Self {
        FifoOrder {
            next: vec![0; n],
            held: vec![BTreeMap::new(); n],
        }
    }

    /// Creates the adapter with per-sender watermarks already advanced —
    /// the rejoin path: a replica restored from a snapshot expects
    /// `watermarks[s]` as sender `s`'s next rbid, and everything below it
    /// is a duplicate of state the snapshot already covers. Missing
    /// entries default to 0.
    pub fn from_watermarks(n: usize, watermarks: &[u64]) -> Self {
        FifoOrder {
            next: (0..n)
                .map(|s| watermarks.get(s).copied().unwrap_or(0))
                .collect(),
            held: vec![BTreeMap::new(); n],
        }
    }

    /// The per-sender release watermarks (`next[s]` = rbid the next
    /// released delivery of sender `s` will carry) — what a snapshot
    /// records so [`FifoOrder::from_watermarks`] can restore the stream
    /// position.
    pub fn watermarks(&self) -> &[u64] {
        &self.next
    }

    /// Forces `sender`'s stream position to `rbid`, dropping anything
    /// held below it. Used when a rejoined replica's own marker command
    /// comes back with a post-resume rbid: everything it broadcast
    /// before the wipe is either already covered by the snapshot/fill or
    /// permanently lost, so the stream resumes at the marker.
    pub fn reset_sender(&mut self, sender: ProcessId, rbid: u64) {
        let Some(held) = self.held.get_mut(sender) else {
            return;
        };
        held.retain(|&r, _| r >= rbid);
        self.next[sender] = self.next[sender].max(rbid);
    }

    /// Feeds one a-delivery (in total order); returns the deliveries that
    /// become releasable, in FIFO order. Duplicates and out-of-range
    /// senders are dropped.
    pub fn push(&mut self, delivery: AbDelivery) -> Vec<AbDelivery> {
        let sender = delivery.id.sender;
        if sender >= self.next.len() {
            return Vec::new();
        }
        if delivery.id.rbid < self.next[sender] {
            return Vec::new(); // duplicate of something already released
        }
        self.held[sender].insert(delivery.id.rbid, delivery);
        let mut out = Vec::new();
        while let Some(d) = self.held[sender].remove(&self.next[sender]) {
            self.next[sender] += 1;
            out.push(d);
        }
        out
    }

    /// Number of deliveries currently held back for `sender`.
    pub fn held(&self, sender: ProcessId) -> usize {
        self.held.get(sender).map(BTreeMap::len).unwrap_or(0)
    }

    /// Drops everything held for `sender` and stops expecting its gap to
    /// fill (administrative eviction of a sender that skipped an rbid).
    /// Returns the dropped deliveries.
    pub fn evict_sender(&mut self, sender: ProcessId) -> Vec<AbDelivery> {
        let Some(held) = self.held.get_mut(sender) else {
            return Vec::new();
        };
        let dropped: Vec<AbDelivery> = std::mem::take(held).into_values().collect();
        if let Some(d) = dropped.last() {
            self.next[sender] = d.id.rbid + 1;
        }
        dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::MsgId;
    use bytes::Bytes;

    fn d(sender: ProcessId, rbid: u64) -> AbDelivery {
        AbDelivery {
            id: MsgId { sender, rbid },
            payload: Bytes::from(format!("{sender}:{rbid}")),
        }
    }

    fn rbids(v: &[AbDelivery]) -> Vec<(usize, u64)> {
        v.iter().map(|d| (d.id.sender, d.id.rbid)).collect()
    }

    #[test]
    fn in_order_passes_through() {
        let mut f = FifoOrder::new(2);
        assert_eq!(rbids(&f.push(d(0, 0))), vec![(0, 0)]);
        assert_eq!(rbids(&f.push(d(0, 1))), vec![(0, 1)]);
    }

    #[test]
    fn out_of_order_held_and_released_in_order() {
        let mut f = FifoOrder::new(2);
        assert!(f.push(d(0, 2)).is_empty());
        assert!(f.push(d(0, 1)).is_empty());
        assert_eq!(f.held(0), 2);
        assert_eq!(rbids(&f.push(d(0, 0))), vec![(0, 0), (0, 1), (0, 2)]);
        assert_eq!(f.held(0), 0);
    }

    #[test]
    fn senders_are_independent() {
        let mut f = FifoOrder::new(3);
        assert!(f.push(d(1, 1)).is_empty());
        assert_eq!(rbids(&f.push(d(2, 0))), vec![(2, 0)]);
        assert_eq!(rbids(&f.push(d(1, 0))), vec![(1, 0), (1, 1)]);
    }

    #[test]
    fn duplicates_dropped() {
        let mut f = FifoOrder::new(1);
        assert_eq!(f.push(d(0, 0)).len(), 1);
        assert!(f.push(d(0, 0)).is_empty());
    }

    #[test]
    fn out_of_range_sender_dropped() {
        let mut f = FifoOrder::new(2);
        assert!(f.push(d(7, 0)).is_empty());
    }

    #[test]
    fn eviction_unsticks_a_gapped_sender() {
        let mut f = FifoOrder::new(2);
        assert!(f.push(d(0, 5)).is_empty());
        assert!(f.push(d(0, 6)).is_empty());
        let dropped = f.evict_sender(0);
        assert_eq!(dropped.len(), 2);
        // The sender resumes after the evicted range.
        assert_eq!(rbids(&f.push(d(0, 7))), vec![(0, 7)]);
    }

    #[test]
    fn watermark_restore_resumes_mid_stream() {
        let mut f = FifoOrder::from_watermarks(3, &[2, 0, 5]);
        assert_eq!(f.watermarks(), &[2, 0, 5]);
        // Pre-watermark rbids are snapshot-covered duplicates.
        assert!(f.push(d(0, 1)).is_empty());
        assert!(f.push(d(2, 4)).is_empty());
        // The stream continues exactly at the watermark.
        assert_eq!(rbids(&f.push(d(0, 2))), vec![(0, 2)]);
        assert_eq!(rbids(&f.push(d(2, 5))), vec![(2, 5)]);
        // Short vectors default to 0.
        let mut f = FifoOrder::from_watermarks(3, &[1]);
        assert_eq!(f.watermarks(), &[1, 0, 0]);
        assert_eq!(rbids(&f.push(d(1, 0))), vec![(1, 0)]);
    }

    #[test]
    fn reset_sender_skips_to_marker() {
        let mut f = FifoOrder::new(2);
        // Pre-wipe stragglers held below the marker rbid…
        assert!(f.push(d(0, 3)).is_empty());
        assert!(f.push(d(0, 7)).is_empty());
        f.reset_sender(0, 7);
        // …are dropped, while the marker itself (and later) release.
        assert_eq!(f.held(0), 1);
        assert_eq!(rbids(&f.push(d(0, 8))), vec![(0, 7), (0, 8)]);
        // Resetting backwards never rewinds the stream.
        f.reset_sender(0, 2);
        assert!(f.push(d(0, 2)).is_empty());
        // Out-of-range sender is a no-op.
        f.reset_sender(9, 1);
    }

    #[test]
    fn same_total_order_yields_same_fifo_order() {
        // Determinism: two adapters fed the same sequence emit the same
        // sequence.
        let seq = [d(0, 1), d(1, 0), d(0, 0), d(1, 2), d(1, 1), d(0, 2)];
        let run = || {
            let mut f = FifoOrder::new(2);
            seq.iter()
                .flat_map(|x| f.push(x.clone()))
                .map(|x| x.id)
                .collect::<Vec<_>>()
        };
        let a = run();
        assert_eq!(a, run());
        assert_eq!(a.len(), 6);
        // Per-sender rbids ascend.
        for s in 0..2 {
            let per: Vec<u64> = a.iter().filter(|i| i.sender == s).map(|i| i.rbid).collect();
            assert!(per.windows(2).all(|w| w[0] < w[1]));
        }
    }
}
