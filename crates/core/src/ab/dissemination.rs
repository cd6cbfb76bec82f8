//! The broadcasting task of atomic broadcast (paper §2.7), batched as in
//! Alea: a-broadcast commands wait in a local queue and are disseminated
//! as *batches*, one reliable broadcast (Alea's VCBC role) per
//! [`BatchId`], and the agreement orders batch ids instead of commands.
//! On the wire, the id inside `AB_MSG` names a batch (`rbid` = sender-local
//! batch sequence number), and the batch carries its commands' contiguous
//! rbid range. A batch is flushed when the queue reaches
//! [`BatchPolicy::max_batch`] commands, when the oldest has waited
//! [`BatchPolicy::max_delay_ns`] (driver clock), or at once while no own
//! batch is in flight — so liveness never depends on the clock. At most
//! [`BatchPolicy::window`] own batches are in flight, which pipelines
//! dissemination of batch `k + 1` under agreement on batch `k`.
//! [`BatchPolicy::immediate`] is the paper's per-message protocol (the
//! simulator uses it to reproduce Figures 4–7).

use super::{
    AbConfig, AbCursor, AbDelivery, AbMessage, AbStats, AbStep, AtomicBroadcast, BatchId, MsgId,
};
use crate::bc::Profile;
use crate::codec::{Reader, WireError, Writer};
use crate::ctx::Ctx;
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::recovery::{milestones, PeerHints};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::{FlightKind, Layer, SpanAnnotation};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::{self, Write as _};

/// Decoder bound for commands per batch (hostile input).
const MAX_BATCH_CMDS: usize = 1 << 16;

/// How many recently a-delivered batches keep their encoded payload
/// around for re-serving to rejoiners (bounded memory; a rejoiner that
/// needs older payloads falls back to the snapshot + log fill instead).
const RETAIN_BATCHES: usize = 4096;

/// A decoded dissemination batch: command payloads covering the
/// contiguous rbid range `start_rbid .. start_rbid + payloads.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchPayload {
    /// rbid of the first command in the batch.
    start_rbid: u64,
    /// The command payloads, in rbid order.
    payloads: Vec<Bytes>,
    /// The encoded batch as RBC-delivered, which a rejoiner can fetch
    /// ([`super::AtomicBroadcast::retained_batch`]).
    raw: Bytes,
}

pub(super) fn encode_batch(start_rbid: u64, payloads: &[Bytes]) -> Bytes {
    // Exactly sized: the buffer is the batch every process retains.
    let len = 12 + payloads.iter().map(|p| 4 + p.len()).sum::<usize>();
    let mut w = Writer::with_capacity(len);
    w.u64(start_rbid).u32(payloads.len() as u32);
    for p in payloads {
        w.bytes(p);
    }
    w.freeze()
}

/// Decodes a batch; its command payloads are views of `bytes` (which
/// the batch retains as `raw` anyway), not copies.
fn decode_batch(bytes: &Bytes) -> Result<BatchPayload, WireError> {
    read_batch(Reader::shared(bytes))
}

/// [`decode_batch`] over either kind of reader, which must be at the
/// start of its input.
pub(crate) fn read_batch(mut r: Reader<'_>) -> Result<BatchPayload, WireError> {
    let raw = r.clone().rest();
    let start_rbid = r.u64("ab.batch.start")?;
    let len = r.u32("ab.batch.len")? as usize;
    if len > MAX_BATCH_CMDS {
        return Err(WireError::FieldTooLong {
            what: "ab.batch",
            len,
        });
    }
    if start_rbid.checked_add(len as u64).is_none() {
        return Err(WireError::FieldTooLong {
            what: "ab.batch.start",
            len,
        });
    }
    let mut payloads = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        payloads.push(r.bytes("ab.batch.payload")?);
    }
    r.finish()?;
    Ok(BatchPayload {
        start_rbid,
        payloads,
        raw,
    })
}

/// The span segment of command or batch `id` (`kind` `'m'` or `'b'`),
/// or of the milestone `tail` below it.
fn id_seg(kind: char, id: MsgId, tail: &'static str) -> impl FnOnce(&mut String) -> fmt::Result {
    move |f| write!(f, "{kind}:{}:{}{tail}", id.sender, id.rbid)
}

/// Flush policy of the broadcast-side batch queue (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum commands per disseminated batch (flush on size).
    pub max_batch: usize,
    /// Maximum queueing age of the oldest command, in driver nanoseconds
    /// (flush on age; requires the driver to feed
    /// [`super::AtomicBroadcast::set_now`]).
    pub max_delay_ns: u64,
    /// Bound on concurrently in-flight own batches (disseminated but not
    /// yet a-delivered). Dissemination of the next batch overlaps
    /// agreement on the previous ones up to this depth.
    pub window: usize,
}

impl BatchPolicy {
    /// The paper's per-message protocol: every command is its own batch
    /// and dissemination is never held back (no queueing, unbounded
    /// window). The simulator uses this to reproduce Figures 4–7
    /// instance-for-instance.
    pub fn immediate() -> Self {
        BatchPolicy {
            max_batch: 1,
            max_delay_ns: 0,
            window: usize::MAX,
        }
    }
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 128,
            max_delay_ns: 2_000_000,
            window: 4,
        }
    }
}

/// Why a batch left the queue (the `ab_flush_*` counters).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FlushReason {
    /// The queue reached `max_batch` commands.
    Size,
    /// The oldest queued command aged past `max_delay_ns`.
    Age,
    /// No own batch was in flight, so there was nothing to wait for.
    Idle,
}

/// A command waiting in the broadcast-side queue.
#[derive(Debug)]
pub(super) struct QueuedCmd {
    /// The command's rbid, returned to the caller at a-broadcast time.
    rbid: u64,
    payload: Bytes,
    /// Driver-clock enqueue time (for the age trigger).
    enqueued_ns: u64,
}

/// The set of a-delivered identifiers, compacted per origin.
///
/// Correct senders assign sequential `rbid`s, so the set is one watermark
/// per origin ("everything below `w` is delivered") plus the few
/// deliveries above it: O(n + out-of-order gap) memory however long the
/// session.
#[derive(Debug, Clone, Default)]
pub(super) struct DeliveredSet {
    /// Per-origin watermark: every `rbid < watermark[o]` is delivered.
    watermark: Vec<u64>,
    /// Per-origin deliveries at/above the watermark.
    sparse: Vec<BTreeSet<u64>>,
}

impl DeliveredSet {
    fn new(n: usize) -> Self {
        Self::from_watermarks(n, &[])
    }

    /// The set with every origin's watermark taken from `w` (missing or
    /// extra origins are clamped to the group size `n`).
    fn from_watermarks(n: usize, w: &[u64]) -> Self {
        DeliveredSet {
            watermark: (0..n).map(|o| w.get(o).copied().unwrap_or(0)).collect(),
            sparse: vec![BTreeSet::new(); n],
        }
    }

    /// Exclusive upper bound of every rbid ever inserted for `origin`.
    fn max_seen(&self, origin: ProcessId) -> u64 {
        let sparse_end = self.sparse[origin].last().map_or(0, |r| r + 1);
        self.watermark[origin].max(sparse_end)
    }

    fn contains(&self, id: &MsgId) -> bool {
        id.rbid < self.watermark[id.sender] || self.sparse[id.sender].contains(&id.rbid)
    }

    /// Adds `id`; whether it was not in the set yet.
    fn insert(&mut self, id: MsgId) -> bool {
        let o = id.sender;
        if id.rbid < self.watermark[o] || !self.sparse[o].insert(id.rbid) {
            return false;
        }
        // Absorb a now-contiguous prefix into the watermark.
        while self.sparse[o].remove(&self.watermark[o]) {
            self.watermark[o] += 1;
        }
        true
    }

    /// Entries above the watermarks, across all origins.
    fn sparse_len(&self) -> usize {
        self.sparse.iter().map(BTreeSet::len).sum()
    }
}

/// The dissemination part of a session. Command spans are at
/// `m:{sender}:{rbid}` (own ones with `/queue` and `/rb` milestones),
/// batch spans at `b:{sender}:{seq}` (with an `/rb` child).
pub(super) struct Dissemination {
    ctx: Ctx,
    /// The `broadcast`, `delivered` and `batches` counters.
    stats: AbStats,
    policy: BatchPolicy,
    profile: Profile,
    /// Next rbid for our own a-broadcast *commands*.
    next_rbid: u64,
    /// Next sequence number for our own dissemination batches.
    next_batch: u64,
    /// Commands queued locally, waiting to be flushed into a batch.
    queue: VecDeque<QueuedCmd>,
    /// Own batches disseminated but not yet a-delivered (window occupancy).
    own_in_flight: usize,
    /// Last driver-clock reading (for the age-based flush trigger).
    now_ns: u64,
    /// RBC instances of AB_MSG batch broadcasts, keyed by batch id.
    msg_rbc: HashMap<BatchId, ReliableBroadcast>,
    /// Batches received (RBC-delivered, decoded) but not yet a-delivered.
    received: BTreeMap<BatchId, BatchPayload>,
    /// Batch identifiers already a-delivered (dedup of late traffic).
    a_delivered: DeliveredSet,
    /// Command identifiers already a-delivered (see `deliver`).
    cmd_delivered: DeliveredSet,
    /// The last [`RETAIN_BATCHES`] a-delivered batches, encoded, for a
    /// rejoiner whose RBC instances missed them (served by state
    /// transfer, accepted at `f+1` identical copies).
    retained: BTreeMap<BatchId, Bytes>,
    /// FIFO eviction order of `retained`.
    retained_order: VecDeque<BatchId>,
}

impl Dissemination {
    pub(super) fn new(ctx: Ctx, config: &AbConfig) -> Self {
        let n = ctx.group.n();
        Dissemination {
            ctx,
            stats: AbStats::default(),
            policy: config.batch,
            profile: config.mvc.profile,
            next_rbid: 0,
            next_batch: 0,
            queue: VecDeque::new(),
            own_in_flight: 0,
            now_ns: 0,
            msg_rbc: HashMap::new(),
            received: BTreeMap::new(),
            a_delivered: DeliveredSet::new(n),
            cmd_delivered: DeliveredSet::new(n),
            retained: BTreeMap::new(),
            retained_order: VecDeque::new(),
        }
    }

    /// Takes the cursor's watermarks and own identifier counters.
    pub(super) fn resume(&mut self, cursor: &AbCursor) {
        let n = self.ctx.group.n();
        self.a_delivered = DeliveredSet::from_watermarks(n, &cursor.a_delivered);
        self.cmd_delivered = DeliveredSet::from_watermarks(n, &cursor.cmd_delivered);
        self.next_rbid = cursor.next_rbid;
        self.next_batch = cursor.next_batch;
    }

    pub(super) fn ctx(&self) -> &Ctx {
        &self.ctx
    }

    /// Assigns `payload` its command identifier and queues it.
    pub(super) fn enqueue(&mut self, payload: Bytes) -> MsgId {
        let (sender, rbid) = (self.ctx.me, self.next_rbid);
        let id = MsgId { sender, rbid };
        self.next_rbid += 1;
        self.stats.broadcast += 1;
        self.ctx.metrics.ab_broadcast.inc();
        self.ctx.open_at(Layer::Ab, id_seg('m', id, ""));
        self.ctx.open_at(Layer::Ab, id_seg('m', id, "/queue"));
        self.queue.push_back(QueuedCmd {
            rbid: id.rbid,
            payload,
            enqueued_ns: self.now_ns,
        });
        self.ctx.metrics.ab_queue_depth.set(self.queue.len() as u64);
        id
    }

    /// Batch ids received and not yet a-delivered, in id order.
    pub(super) fn available(&self) -> impl ExactSizeIterator<Item = &BatchId> + Clone {
        self.received.keys()
    }

    /// Whether batch `id`'s payload is here, received and not a-delivered.
    pub(super) fn has(&self, id: &BatchId) -> bool {
        self.received.contains_key(id)
    }

    pub(super) fn is_delivered(&self, id: &BatchId) -> bool {
        self.a_delivered.contains(id)
    }

    /// Whether the batch fetched out of band was new and well-formed.
    pub(super) fn inject(&mut self, id: BatchId, raw: Bytes) -> bool {
        if self.a_delivered.contains(&id) || self.received.contains_key(&id) {
            return false;
        }
        let Ok(batch) = decode_batch(&raw) else {
            return false;
        };
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            id.sender as u32,
            milestones::BATCH_INJECTED,
            id.rbid,
        );
        self.received.insert(id, batch);
        true
    }

    pub(super) fn on_msg(&mut self, from: ProcessId, id: BatchId, inner: RbMessage) -> AbStep {
        if !self.ctx.group.contains(id.sender) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if self.a_delivered.contains(&id) {
            // Late traffic for an already-ordered batch; its RBC
            // instance has been pruned, nothing left to do.
            return Step::none();
        }
        let mut sub = self.batch_rbc(id).handle_message(from, inner);
        let delivered = std::mem::take(&mut sub.outputs);
        let mut out = sub.forward(|inner| AbMessage::Msg { id, inner });
        for payload in delivered {
            let batch = decode_batch(&payload).unwrap_or_else(|_| {
                // A malformed batch is attributable to its sender: RBC
                // guarantees every correct process sees the same bytes,
                // so all reach this verdict identically. The batch id
                // still participates in agreement — it just orders zero
                // commands.
                out.push_fault(id.sender, FaultKind::Malformed);
                BatchPayload {
                    start_rbid: 0,
                    payloads: Vec::new(),
                    raw: payload,
                }
            });
            let sender = id.sender;
            for (p, rbid) in batch.payloads.iter().zip(batch.start_rbid..) {
                let cmd = MsgId { sender, rbid };
                if sender == self.ctx.me {
                    // Own command: dissemination milestone reached.
                    self.ctx.close_at(id_seg('m', cmd, "/rb"));
                } else {
                    // Remote command: first sight is at batch decode.
                    self.ctx.open_at(Layer::Ab, id_seg('m', cmd, ""));
                }
                let size = p.len() as u64;
                self.ctx
                    .annotate_at(id_seg('m', cmd, ""), SpanAnnotation::Phase, size);
            }
            self.received.entry(id).or_insert(batch);
        }
        out
    }

    /// The RBC instance disseminating batch `id`, created (and its spans
    /// opened) on first use.
    fn batch_rbc(&mut self, id: BatchId) -> &mut ReliableBroadcast {
        self.msg_rbc.entry(id).or_insert_with(|| {
            self.ctx.open_at(Layer::Ab, id_seg('b', id, ""));
            let rb = self.ctx.child(Layer::Rb, id_seg('b', id, "/rb"));
            ReliableBroadcast::new(rb, self.profile, id.sender)
        })
    }

    /// Flushes queued commands into disseminated batches of up to
    /// `max_batch`, while a flush trigger holds and the pipelining window
    /// has room. The window frees on a-delivery, so the `Idle` trigger
    /// alone guarantees liveness — the clock (`Age`) and queue depth
    /// (`Size`) triggers only shape batch sizes under load.
    pub(super) fn maybe_flush(&mut self, out: &mut AbStep) -> bool {
        let mut progressed = false;
        while !self.queue.is_empty() && self.own_in_flight < self.policy.window {
            let reason = if self.queue.len() >= self.policy.max_batch {
                FlushReason::Size
            } else if self.own_in_flight == 0 {
                FlushReason::Idle
            } else if self.queue.front().is_some_and(|c| {
                self.now_ns >= c.enqueued_ns.saturating_add(self.policy.max_delay_ns)
            }) {
                FlushReason::Age
            } else {
                break;
            };
            self.stats.batches += 1;
            progressed = true;
            let take = self.queue.len().min(self.policy.max_batch);
            let cmds: Vec<QueuedCmd> = self.queue.drain(..take).collect();
            let (sender, rbid) = (self.ctx.me, self.next_batch);
            let batch = BatchId { sender, rbid };
            self.next_batch += 1;
            self.own_in_flight += 1;
            let m = &self.ctx.metrics;
            match reason {
                FlushReason::Size => m.ab_flush_size.inc(),
                FlushReason::Age => m.ab_flush_age.inc(),
                FlushReason::Idle => m.ab_flush_idle.inc(),
            }
            m.ab_batch_commands.record(take as u64);
            m.ab_queue_depth.set(self.queue.len() as u64);
            m.flight_record(FlightKind::Flush, sender as u32, take as u64, reason as u64);
            // Per-command milestones: the queue segment ends, dissemination
            // begins (`/rb` closes when the batch RBC delivers, in `on_msg`).
            for &QueuedCmd { rbid, .. } in &cmds {
                let cmd = MsgId { sender, rbid };
                self.ctx.close_at(id_seg('m', cmd, "/queue"));
                self.ctx.open_at(Layer::Rb, id_seg('m', cmd, "/rb"));
            }
            let payload = encode_batch(
                cmds[0].rbid,
                &cmds.iter().map(|c| c.payload.clone()).collect::<Vec<_>>(),
            );
            let sub = self
                .batch_rbc(batch)
                .broadcast(payload)
                .expect("fresh batch seq implies fresh instance");
            out.extend(sub.forward(|inner| AbMessage::Msg { id: batch, inner }));
        }
        progressed
    }

    /// A-delivers the decided batches `ids`, whose payloads are all here,
    /// in id order, each unpacked into its new commands in rbid order: a
    /// Byzantine sender can pack one rbid into more than one batch, and
    /// only the first ordered copy delivers.
    pub(super) fn deliver(&mut self, mut ids: Vec<BatchId>, out: &mut AbStep) {
        // Deterministic total order across the decided batches.
        ids.sort();
        ids.dedup();
        self.ctx.metrics.ab_batch.record(ids.len() as u64);
        for id in ids {
            let batch = self.received.remove(&id).expect("payload present");
            self.a_delivered.insert(id);
            // A batch id is a-delivered once, so it is new in `retained`.
            self.retained.insert(id, batch.raw);
            self.retained_order.push_back(id);
            if self.retained_order.len() > RETAIN_BATCHES {
                self.retained
                    .remove(&self.retained_order.pop_front().expect("full"));
            }
            // The completed RBC instance is pruned: every message we owed
            // the group for it has already been sent.
            self.msg_rbc.remove(&id);
            if id.sender == self.ctx.me {
                self.own_in_flight = self.own_in_flight.saturating_sub(1);
            }
            self.ctx.close_at(id_seg('b', id, ""));
            for (payload, rbid) in batch.payloads.into_iter().zip(batch.start_rbid..) {
                let cmd = MsgId {
                    sender: id.sender,
                    rbid,
                };
                if self.cmd_delivered.insert(cmd) {
                    self.ctx.close_at(id_seg('m', cmd, ""));
                    self.stats.delivered += 1;
                    self.ctx.metrics.ab_delivered.inc();
                    out.push_output(AbDelivery { id: cmd, payload });
                }
            }
        }
    }
}

/// The public view of a session's dissemination state.
impl AtomicBroadcast {
    /// Injects the driver clock (wall or virtual nanoseconds). Only the
    /// age-based flush trigger reads it; batching liveness never depends
    /// on it (an empty pipelining window always flushes immediately).
    pub fn set_now(&mut self, now_ns: u64) {
        self.diss.now_ns = self.diss.now_ns.max(now_ns);
    }

    /// The driver-clock instant at which the oldest queued command must
    /// be flushed, or `None` when no timer is needed (empty queue or full
    /// pipelining window — a full window flushes on a-delivery instead).
    pub fn next_flush_deadline(&self) -> Option<u64> {
        let diss = &self.diss;
        if diss.own_in_flight >= diss.policy.window {
            return None;
        }
        let front = diss.queue.front()?;
        Some(front.enqueued_ns.saturating_add(diss.policy.max_delay_ns))
    }

    /// Session counters for the evaluation harness.
    pub fn stats(&self) -> AbStats {
        let order = self.order.stats();
        AbStats {
            agreements: order.agreements,
            bottom_agreements: order.bottom_agreements,
            bc_rounds_max: order.bc_rounds_max,
            ..self.diss.stats
        }
    }

    /// This session's position in the stream, as advertised to a
    /// rejoining replica: current round or slot, per-origin delivered
    /// batch watermarks (under slot ordering, the heads, with the recent
    /// slot decisions), and exclusive upper bounds of every batch seq and
    /// command rbid ever seen (delivered, pending, or in dissemination).
    pub fn hints(&self) -> PeerHints {
        let diss = &self.diss;
        let n = diss.ctx.group.n();
        let mut max_batch: Vec<u64> = (0..n).map(|o| diss.a_delivered.max_seen(o)).collect();
        let mut max_rbid: Vec<u64> = (0..n).map(|o| diss.cmd_delivered.max_seen(o)).collect();
        for (id, batch) in &diss.received {
            max_batch[id.sender] = max_batch[id.sender].max(id.rbid + 1);
            max_rbid[id.sender] =
                max_rbid[id.sender].max(batch.start_rbid + batch.payloads.len() as u64);
        }
        for id in diss.msg_rbc.keys() {
            max_batch[id.sender] = max_batch[id.sender].max(id.rbid + 1);
        }
        let mut hints = PeerHints {
            round: self.round(),
            batch_w: diss.a_delivered.watermark.clone(),
            max_batch,
            max_rbid,
            slot_log: Vec::new(),
        };
        if let super::Order::Slots(order) = &self.order {
            order.fill_hints(&mut hints);
        }
        hints
    }

    /// Number of commands received (in RBC-delivered batches) but not
    /// yet ordered.
    pub fn pending(&self) -> usize {
        self.diss.received.values().map(|b| b.payloads.len()).sum()
    }

    /// Commands waiting in the local batch queue (not yet disseminated).
    pub fn queued(&self) -> usize {
        self.diss.queue.len()
    }

    /// Own batches disseminated but not yet a-delivered (pipelining
    /// window occupancy).
    pub fn in_flight_batches(&self) -> usize {
        self.diss.own_in_flight
    }

    /// Number of live `AB_MSG` reliable-broadcast instances (memory
    /// introspection; completed instances are pruned after delivery).
    pub fn live_msg_instances(&self) -> usize {
        self.diss.msg_rbc.len()
    }

    /// Non-compacted delivered-set entries across the batch and command
    /// sets (memory introspection: stays near zero for correct senders,
    /// whose batch seqs and rbids are both sequential).
    pub fn delivered_set_sparse_len(&self) -> usize {
        self.diss.a_delivered.sparse_len() + self.diss.cmd_delivered.sparse_len()
    }

    /// The encoded payload of a recently a-delivered batch, if still
    /// retained — what this process serves to a rejoiner stuck on
    /// [`AtomicBroadcast::missing_payloads`].
    pub fn retained_batch(&self, id: &BatchId) -> Option<Bytes> {
        self.diss.retained.get(id).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::tests::{ab_net, ab_net_with, broadcast, coins, delivered_ids};
    use crate::testing::ctx;

    #[test]
    fn delivered_set_compacts_to_watermarks() {
        let mut set = DeliveredSet::new(2);
        // Out-of-order insertions from origin 0.
        for rbid in [2u64, 0, 1, 4, 3] {
            set.insert(MsgId { sender: 0, rbid });
        }
        for rbid in 0..5 {
            assert!(set.contains(&MsgId { sender: 0, rbid }));
        }
        assert!(!set.contains(&MsgId { sender: 0, rbid: 5 }));
        assert!(!set.contains(&MsgId { sender: 1, rbid: 0 }));
        assert_eq!(set.sparse_len(), 0, "contiguous prefix must compact");
        // A gap keeps only the out-of-order entries sparse.
        set.insert(MsgId { sender: 1, rbid: 7 });
        assert_eq!(set.sparse_len(), 1);
        assert!(set.contains(&MsgId { sender: 1, rbid: 7 }));
        // Duplicate inserts are idempotent.
        set.insert(MsgId { sender: 0, rbid: 3 });
        assert_eq!(set.sparse_len(), 1);
    }

    #[test]
    fn long_session_memory_stays_flat() {
        let mut net = ab_net(4, 123);
        // Several sequential bursts through the same session.
        for burst in 0..4 {
            for p in 0..4 {
                for k in 0..5 {
                    broadcast(&mut net, p, format!("b{burst}p{p}k{k}").as_bytes());
                }
            }
            net.run();
        }
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 80);
            assert_eq!(net.process(p).live_msg_instances(), 0);
            assert_eq!(
                net.process(p).delivered_set_sparse_len(),
                0,
                "sequential rbids must fully compact at {p}"
            );
        }
    }

    #[test]
    fn delivered_msg_instances_are_pruned() {
        let mut net = ab_net(4, 91);
        for p in 0..4 {
            for k in 0..5 {
                broadcast(&mut net, p, format!("p{p}k{k}").as_bytes());
            }
        }
        net.run();
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 20);
            assert_eq!(
                net.process(p).live_msg_instances(),
                0,
                "process {p} leaked AB_MSG broadcast instances"
            );
            assert_eq!(net.process(p).pending(), 0);
        }
    }

    #[test]
    fn late_traffic_for_delivered_message_is_ignored() {
        let mut net = ab_net(4, 4);
        let id = broadcast(&mut net, 0, b"m");
        net.run();
        // Re-inject a READY for the long-finished broadcast.
        let step = net.process_mut(1).handle_message(
            2,
            AbMessage::Msg {
                id,
                inner: RbMessage::Ready(Bytes::from_static(b"m")),
            },
        );
        assert!(step.is_empty());
    }

    #[test]
    fn batch_codec_roundtrip() {
        // Empty, single and multi-command batches round-trip.
        for payloads in [
            vec![],
            vec![Bytes::from_static(b"one")],
            vec![
                Bytes::new(),
                Bytes::from_static(b"x"),
                Bytes::from(vec![7u8; 300]),
            ],
        ] {
            let enc = encode_batch(42, &payloads);
            let dec = decode_batch(&enc).unwrap();
            assert_eq!(dec.start_rbid, 42);
            assert_eq!(dec.payloads, payloads);
        }
    }

    #[test]
    fn batch_codec_rejects_malformed() {
        // Trailing bytes after a complete batch.
        let mut enc = encode_batch(0, &[Bytes::from_static(b"m")]).to_vec();
        enc.push(0xAA);
        assert!(decode_batch(&Bytes::from(enc)).is_err());
        // Truncated payload.
        let enc = encode_batch(0, &[Bytes::from_static(b"payload")]);
        let cut = enc.slice(..enc.len() - 3);
        assert!(decode_batch(&cut).is_err());
        // Oversized command count.
        let mut w = Writer::new();
        w.u64(0).u32((MAX_BATCH_CMDS + 1) as u32);
        assert!(decode_batch(&w.freeze()).is_err());
        // start_rbid + count overflows u64 (would alias earlier rbids).
        let mut w = Writer::new();
        w.u64(u64::MAX).u32(2);
        w.bytes(b"a").bytes(b"b");
        assert!(decode_batch(&w.freeze()).is_err());
        // Garbage.
        assert!(decode_batch(&Bytes::from_static(b"\xFF\x02")).is_err());
    }

    #[test]
    fn batching_packs_commands_and_preserves_total_order() {
        // Small batches, narrow window: the 12-command burst from one
        // sender must be packed into far fewer dissemination instances
        // while every process still delivers all 12 in the same order.
        let policy = BatchPolicy {
            max_batch: 4,
            max_delay_ns: u64::MAX,
            window: 2,
        };
        let mut net = ab_net_with(4, 321, |_| AbConfig {
            batch: policy,
            ..AbConfig::default()
        });
        let ids: Vec<MsgId> = (0..12)
            .map(|k| broadcast(&mut net, 0, format!("c{k}").as_bytes()))
            .collect();
        net.run();
        let order0 = delivered_ids(&net, 0);
        assert_eq!(
            order0.iter().copied().collect::<BTreeSet<_>>(),
            ids.iter().copied().collect::<BTreeSet<_>>()
        );
        for p in 1..4 {
            let order = delivered_ids(&net, p);
            assert_eq!(order, order0, "total order diverged at {p}");
        }
        let batches = net.process(0).stats().batches;
        assert!(
            batches < 12,
            "batching never packed more than one command ({batches} batches)"
        );
        // Dissemination state fully drained.
        assert_eq!(net.process(0).queued(), 0);
        assert_eq!(net.process(0).in_flight_batches(), 0);
    }

    #[test]
    fn window_bounds_in_flight_batches() {
        let policy = BatchPolicy {
            max_batch: 1,
            max_delay_ns: u64::MAX,
            window: 2,
        };
        let mut net = ab_net_with(4, 11, |_| AbConfig {
            batch: policy,
            ..AbConfig::default()
        });
        for k in 0..5 {
            broadcast(&mut net, 1, format!("w{k}").as_bytes());
        }
        // Nothing delivered yet: exactly `window` batches disseminated,
        // the rest held in the queue.
        assert_eq!(net.process(1).in_flight_batches(), 2);
        assert_eq!(net.process(1).queued(), 3);
        // A-deliveries free window slots; the queue drains to empty.
        net.run();
        assert_eq!(net.process(1).in_flight_batches(), 0);
        assert_eq!(net.process(1).queued(), 0);
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 5, "process {p}");
        }
    }

    #[test]
    fn age_trigger_flushes_on_tick() {
        let policy = BatchPolicy {
            max_batch: 100,
            max_delay_ns: 1_000,
            window: 8,
        };
        let config = AbConfig {
            batch: policy,
            ..AbConfig::default()
        };
        let mut ab = AtomicBroadcast::new(ctx(4, 0, 0), coins(1), config);
        ab.set_now(10);
        // First command flushes immediately (idle window)…
        let (_, step) = ab.broadcast(Bytes::from_static(b"a"));
        assert!(!step.messages.is_empty());
        assert_eq!(ab.in_flight_batches(), 1);
        // …subsequent ones are held for a batch (the steps carry no
        // dissemination traffic, so dropping them is sound here).
        let (_, held) = ab.broadcast(Bytes::from_static(b"b"));
        assert!(held.messages.is_empty());
        let (_, held) = ab.broadcast(Bytes::from_static(b"c"));
        assert!(held.messages.is_empty());
        assert_eq!(ab.queued(), 2);
        assert_eq!(ab.next_flush_deadline(), Some(10 + 1_000));
        // The clock passes the deadline: tick flushes both as one batch.
        ab.set_now(2_000);
        let step = ab.tick();
        assert!(!step.messages.is_empty());
        assert_eq!(ab.queued(), 0);
        assert_eq!(ab.in_flight_batches(), 2);
        assert_eq!(ab.stats().batches, 2);
        assert_eq!(ab.next_flush_deadline(), None);
    }

    #[test]
    fn immediate_policy_disseminates_per_command() {
        let mut net = ab_net_with(4, 64, |_| AbConfig {
            batch: BatchPolicy::immediate(),
            ..AbConfig::default()
        });
        for k in 0..5 {
            broadcast(&mut net, 2, format!("i{k}").as_bytes());
        }
        // Every command became its own dissemination batch on the spot.
        assert_eq!(net.process(2).stats().batches, 5);
        assert_eq!(net.process(2).queued(), 0);
        net.run();
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 5);
        }
    }

    #[test]
    fn overlapping_byzantine_batches_deliver_once() {
        let mut net = ab_net(4, 42);
        net.crash(3);
        // The attacker announces two batches that both claim rbid 0 with
        // different payloads. Both batch ids get ordered; the rbid must
        // deliver exactly once, identically everywhere.
        for (bseq, tag) in [(0u64, &b"first"[..]), (1u64, &b"second"[..])] {
            let msg = AbMessage::Msg {
                id: MsgId {
                    sender: 3,
                    rbid: bseq,
                },
                inner: RbMessage::Init(encode_batch(0, &[Bytes::copy_from_slice(tag)])),
            };
            for to in 0..3 {
                net.inject(3, to, msg.clone());
            }
        }
        net.run();
        let p0: Vec<(MsgId, Bytes)> = net
            .outputs(0)
            .iter()
            .map(|d| (d.id, d.payload.clone()))
            .collect();
        assert_eq!(p0.len(), 1, "rbid 0 must deliver exactly once");
        assert_eq!(p0[0].0, MsgId { sender: 3, rbid: 0 });
        for p in 1..3 {
            let pp: Vec<(MsgId, Bytes)> = net
                .outputs(p)
                .iter()
                .map(|d| (d.id, d.payload.clone()))
                .collect();
            assert_eq!(pp, p0, "payload choice diverged at {p}");
        }
    }

    #[test]
    fn malformed_batch_is_attributed_and_orders_nothing() {
        let mut net = ab_net(4, 21);
        net.crash(3);
        // An undecodable batch payload from the attacker: the batch id is
        // still agreed on, zero commands come out, and the sender is
        // blamed with a Malformed fault at RBC delivery.
        let msg = AbMessage::Msg {
            id: MsgId { sender: 3, rbid: 0 },
            inner: RbMessage::Init(Bytes::from_static(b"\xFF\xFF\xFF")),
        };
        for to in 0..3 {
            net.inject(3, to, msg.clone());
        }
        net.run();
        for p in 0..3 {
            assert!(
                net.outputs(p).is_empty(),
                "garbage batch delivered commands at {p}"
            );
        }
        // The session keeps making progress afterwards.
        broadcast(&mut net, 0, b"after");
        net.run();
        for p in 0..3 {
            assert_eq!(net.outputs(p).len(), 1, "process {p}");
            assert_eq!(net.outputs(p)[0].payload.as_ref(), b"after");
        }
    }

    proptest::proptest! {
        #[test]
        fn batch_codec_roundtrip_prop(
            start in 0u64..u64::MAX / 2,
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..64),
                0..32
            ),
        ) {
            let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
            let enc = encode_batch(start, &payloads);
            let dec = decode_batch(&enc).unwrap();
            proptest::prop_assert_eq!(dec.start_rbid, start);
            proptest::prop_assert_eq!(dec.payloads, payloads);
        }

        #[test]
        fn batch_codec_rejects_trailing_bytes_prop(
            start in 0u64..1024,
            payloads in proptest::collection::vec(
                proptest::collection::vec(proptest::prelude::any::<u8>(), 0..16),
                0..8
            ),
            trailer in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..16),
        ) {
            let payloads: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
            let mut enc = encode_batch(start, &payloads).to_vec();
            enc.extend_from_slice(&trailer);
            proptest::prop_assert!(decode_batch(&Bytes::from(enc)).is_err());
        }
    }
}
