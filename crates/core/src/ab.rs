//! Atomic broadcast (paper §2.7, after Correia et al.).
//!
//! Reliable broadcast plus *total order*: every correct process delivers
//! the same messages in the same order. The protocol splits into two
//! tasks:
//!
//! 1. **Broadcasting** — to a-broadcast `m`, a process reliably broadcasts
//!    `(AB_MSG, i, rbid, m)`; the pair `(i, rbid)` uniquely identifies the
//!    message system-wide (identifiers, not hashes: one of the RITAS
//!    optimizations);
//! 2. **Agreement** — in rounds: each process reliably broadcasts
//!    `(AB_VECT, i, r, V_i)` where `V_i` lists the identifiers it has
//!    received but not yet a-delivered; after `n − f` such vectors it
//!    builds `W_i` = identifiers appearing in `≥ f + 1` of them and
//!    proposes `W_i` to a *multi-valued consensus*; a non-⊥ decision `W'`
//!    is a-delivered deterministically (sorted by identifier) once all the
//!    corresponding payloads have arrived — guaranteed, because an
//!    identifier with `f + 1` supporters was reliably broadcast and
//!    reliable broadcast is total.
//!
//! The "relative cost of agreement" result (paper Figure 7) falls out of
//! this structure: one agreement can order arbitrarily many `AB_MSG`s, so
//! the agreement overhead per message vanishes as the load grows — in the
//! paper's experiments an entire 1000-message burst was delivered with
//! only two agreements (2.4% overhead).
//!
//! # Batching and pipelining (Alea-style extension)
//!
//! On top of the paper's protocol, this implementation decouples payload
//! dissemination from per-payload broadcast instances: a-broadcast
//! payloads accumulate in a broadcast-side queue and are disseminated as
//! *batches* — one reliable broadcast (playing Alea's VCBC role) carries
//! many commands, and the agreement rounds order batch identifiers
//! instead of individual payloads. The wire format is unchanged: the
//! identifier inside `AB_MSG` now names a batch (`rbid` = sender-local
//! batch sequence number), and the batch payload carries the commands'
//! contiguous rbid range. A batch is flushed when the queue reaches
//! [`BatchPolicy::max_batch`] commands, when the oldest queued command
//! has waited [`BatchPolicy::max_delay_ns`] (driver clock, see
//! [`AtomicBroadcast::set_now`]), or immediately while no own batch is in
//! flight — so liveness never depends on the clock advancing. At most
//! [`BatchPolicy::window`] own batches are concurrently in flight, which
//! pipelines dissemination of batch `k + 1` under agreement on batch `k`.
//! [`BatchPolicy::immediate`] turns the extension off and recovers the
//! paper's per-message protocol exactly (the simulator uses it to
//! reproduce Figures 4–7).

use crate::bc::Coins;
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::mvc::{MultiValuedConsensus, MvcConfig, MvcMessage, MvcValue};
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::recovery::milestones;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::{FlightKind, Layer, SpanAnnotation};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::fmt::{self, Write as _};

/// Unique identifier of an atomically broadcast message: `(sender, rbid)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId {
    /// The broadcasting process.
    pub sender: ProcessId,
    /// The sender-local sequence number.
    pub rbid: u64,
}

impl MsgId {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.sender as u32).u64(self.rbid);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(MsgId {
            sender: r.u32("ab.id.sender")? as usize,
            rbid: r.u64("ab.id.rbid")?,
        })
    }
}

/// Identifier of a disseminated batch: the same `(sender, seq)` shape —
/// and the same wire encoding — as [`MsgId`], with `rbid` holding the
/// sender-local *batch* sequence number.
pub type BatchId = MsgId;

/// An a-delivered message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbDelivery {
    /// The identifier of the delivered message.
    pub id: MsgId,
    /// The payload.
    pub payload: Bytes,
}

/// Messages of the atomic broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbMessage {
    /// Reliable broadcast traffic of an `AB_MSG`.
    Msg {
        /// The message identifier the broadcast carries.
        id: MsgId,
        /// The broadcast traffic.
        inner: RbMessage,
    },
    /// Reliable broadcast traffic of an `AB_VECT` for an agreement round.
    Vect {
        /// Whose vector broadcast this belongs to.
        origin: ProcessId,
        /// The agreement round.
        round: u32,
        /// The broadcast traffic.
        inner: RbMessage,
    },
    /// Multi-valued consensus traffic for an agreement round.
    Agree {
        /// The agreement round.
        round: u32,
        /// The inner message.
        inner: MvcMessage,
    },
}

const TAG_MSG: u8 = 1;
const TAG_VECT: u8 = 2;
const TAG_AGREE: u8 = 3;

impl WireMessage for AbMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            AbMessage::Msg { id, inner } => {
                w.u8(TAG_MSG);
                id.encode(w);
                inner.encode(w);
            }
            AbMessage::Vect {
                origin,
                round,
                inner,
            } => {
                w.u8(TAG_VECT).u32(*origin as u32).u32(*round);
                inner.encode(w);
            }
            AbMessage::Agree { round, inner } => {
                w.u8(TAG_AGREE).u32(*round);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("ab.tag")? {
            TAG_MSG => Ok(AbMessage::Msg {
                id: MsgId::decode(r)?,
                inner: RbMessage::decode(r)?,
            }),
            TAG_VECT => Ok(AbMessage::Vect {
                origin: r.u32("ab.origin")? as usize,
                round: r.u32("ab.round")?,
                inner: RbMessage::decode(r)?,
            }),
            TAG_AGREE => Ok(AbMessage::Agree {
                round: r.u32("ab.round")?,
                inner: MvcMessage::decode(r)?,
            }),
            t => Err(WireError::InvalidTag {
                what: "ab.tag",
                tag: t,
            }),
        }
    }
}

/// Decoder bound for identifier vectors.
const MAX_IDS: usize = 1 << 20;

fn encode_ids(ids: &BTreeSet<MsgId>) -> Bytes {
    let mut w = Writer::new();
    w.u32(ids.len() as u32);
    for id in ids {
        id.encode(&mut w);
    }
    w.freeze()
}

fn decode_ids(bytes: &Bytes) -> Result<Vec<MsgId>, WireError> {
    read_ids(Reader::shared(bytes))
}

/// [`decode_ids`] over either kind of reader.
pub(crate) fn read_ids(mut r: Reader<'_>) -> Result<Vec<MsgId>, WireError> {
    let len = r.u32("ab.ids.len")? as usize;
    if len > MAX_IDS {
        return Err(WireError::FieldTooLong {
            what: "ab.ids",
            len,
        });
    }
    let mut ids = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        ids.push(MsgId::decode(&mut r)?);
    }
    r.finish()?;
    Ok(ids)
}

/// Decoder bound for commands per batch (hostile input).
const MAX_BATCH_CMDS: usize = 1 << 16;

/// A decoded dissemination batch: command payloads covering the
/// contiguous rbid range `start_rbid .. start_rbid + payloads.len()`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BatchPayload {
    /// rbid of the first command in the batch.
    start_rbid: u64,
    /// The command payloads, in rbid order.
    payloads: Vec<Bytes>,
    /// The encoded batch as RBC-delivered — kept so recently ordered
    /// batches can be re-served to a rejoining replica whose own RBC
    /// instance can no longer complete (see
    /// [`AtomicBroadcast::retained_batch`]).
    raw: Bytes,
}

fn encode_batch(start_rbid: u64, payloads: &[Bytes]) -> Bytes {
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

/// Flush policy of the broadcast-side batch queue (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Maximum commands per disseminated batch (flush on size).
    pub max_batch: usize,
    /// Maximum queueing age of the oldest command, in driver nanoseconds
    /// (flush on age; requires the driver to feed
    /// [`AtomicBroadcast::set_now`]).
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
struct QueuedCmd {
    /// The command's assigned rbid (returned to the caller at
    /// a-broadcast time).
    rbid: u64,
    payload: Bytes,
    /// Driver-clock enqueue time (for the age trigger).
    enqueued_ns: u64,
}

/// Step type of the atomic broadcast: outgoing messages plus a-deliveries
/// in their total order.
pub type AbStep = Step<AbMessage, AbDelivery>;

/// Where a rejoining replica resumes its atomic-broadcast session
/// (built by [`crate::recovery::select_cursor`] from `2f+1` peer hints).
///
/// The cursor is deliberately allowed to be *approximate*: a stale
/// `a_delivered`/`cmd_delivered` makes the session re-deliver messages
/// the group already ordered (dropped as duplicates by the RSM's FIFO
/// holdback), and an over-eager one makes it skip messages (recovered
/// through the post-snapshot log fill). Only `next_rbid`/`next_batch`
/// must never undershoot — reusing an own identifier would fork the
/// sender's id space — which is why cursor selection takes the maximum
/// observed value plus [`crate::recovery::RESUME_ID_SLACK`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbCursor {
    /// Agreement round to resume at.
    pub round: u32,
    /// Per-origin a-delivered *batch* watermark.
    pub a_delivered: Vec<u64>,
    /// Per-origin a-delivered *command* watermark.
    pub cmd_delivered: Vec<u64>,
    /// First own command rbid to assign after resuming.
    pub next_rbid: u64,
    /// First own batch seq to assign after resuming.
    pub next_batch: u64,
}

/// The set of a-delivered identifiers, compacted per origin.
///
/// Correct senders assign sequential `rbid`s, so the common-case
/// representation is one watermark per origin ("everything below `w` is
/// delivered") plus a small sparse set of out-of-order deliveries that
/// have not yet been absorbed into the watermark. Memory stays O(n +
/// out-of-order gap) for arbitrarily long sessions instead of growing
/// with every message ever delivered.
#[derive(Debug, Clone, Default)]
struct DeliveredSet {
    /// Per-origin watermark: every `rbid < watermark[o]` is delivered.
    watermark: Vec<u64>,
    /// Per-origin deliveries at/above the watermark.
    sparse: Vec<BTreeSet<u64>>,
}

impl DeliveredSet {
    fn new(n: usize) -> Self {
        DeliveredSet {
            watermark: vec![0; n],
            sparse: vec![BTreeSet::new(); n],
        }
    }

    /// Rebuilds the set from a per-origin watermark vector (missing or
    /// extra origins are clamped to the group size) — the rejoin path.
    fn from_watermarks(n: usize, w: &[u64]) -> Self {
        DeliveredSet {
            watermark: (0..n).map(|o| w.get(o).copied().unwrap_or(0)).collect(),
            sparse: vec![BTreeSet::new(); n],
        }
    }

    /// The contiguous delivered watermark of `origin`.
    fn watermark_of(&self, origin: ProcessId) -> u64 {
        self.watermark[origin]
    }

    /// Exclusive upper bound of everything ever seen from `origin`
    /// (watermark or one past the highest sparse entry).
    fn max_seen(&self, origin: ProcessId) -> u64 {
        let sparse_end = self.sparse[origin]
            .iter()
            .next_back()
            .map(|r| r + 1)
            .unwrap_or(0);
        self.watermark[origin].max(sparse_end)
    }

    fn contains(&self, id: &MsgId) -> bool {
        id.rbid < self.watermark[id.sender] || self.sparse[id.sender].contains(&id.rbid)
    }

    fn insert(&mut self, id: MsgId) {
        let o = id.sender;
        if id.rbid < self.watermark[o] {
            return;
        }
        self.sparse[o].insert(id.rbid);
        // Absorb a now-contiguous prefix into the watermark.
        while self.sparse[o].remove(&self.watermark[o]) {
            self.watermark[o] += 1;
        }
    }

    /// Sparse (non-compacted) entries across all origins — memory
    /// introspection for tests.
    fn sparse_len(&self) -> usize {
        self.sparse.iter().map(BTreeSet::len).sum()
    }
}

/// How far ahead of the current agreement round messages are accepted.
/// It is also how far *behind* round state is worth keeping: a process
/// further behind than this has already had the group's current-round
/// frames rejected as unjustified, so no round it is still in helps it
/// (see [`AtomicBroadcast::free_finished_rounds`]).
const MAX_ROUND_AHEAD: u32 = 64;

/// How many recently a-delivered batches keep their encoded payload
/// around for re-serving to rejoiners (bounded memory; a rejoiner that
/// needs older payloads falls back to the snapshot + log fill instead).
const RETAIN_BATCHES: usize = 4096;

/// Configuration for an [`AtomicBroadcast`] instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct AbConfig {
    /// Transports for the agreement (multi-valued consensus) layer.
    pub mvc: MvcConfig,
    /// Run the paper's §4.2 Byzantine faultload: propose ⊥ in the
    /// agreement's INIT/VECT and 0 at the binary consensus layer.
    pub byzantine_bottom: bool,
    /// Broadcast-side batching and pipelining policy (see module docs).
    /// [`BatchPolicy::immediate`] recovers the paper's per-message
    /// protocol.
    pub batch: BatchPolicy,
}

/// Counters exposed for the evaluation harness (paper Figures 4–7).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AbStats {
    /// Messages a-broadcast by this process.
    pub broadcast: u64,
    /// Messages a-delivered by this process.
    pub delivered: u64,
    /// Agreement rounds completed (MVC decisions observed).
    pub agreements: u64,
    /// Agreement rounds that decided ⊥ (forced a retry).
    pub bottom_agreements: u64,
    /// Batches flushed from the local queue into dissemination.
    pub batches: u64,
    /// Largest number of rounds any underlying binary consensus needed
    /// (the paper reports this is always 1 under realistic faultloads).
    pub bc_rounds_max: u32,
}

/// State of the atomic broadcast session for process `me`.
///
/// Unlike the one-shot consensus instances, atomic broadcast is a
/// long-lived session: any process may a-broadcast any number of messages
/// at any time, and deliveries come out in a single total order.
pub struct AtomicBroadcast {
    /// The session's context. Below its span: command spans at
    /// `m:{sender}:{rbid}` (own commands with `/queue` and `/rb` children
    /// marking the batching milestones), batch spans at
    /// `b:{sender}:{seq}` (with an `/rb` child), round spans at `r:{n}`
    /// (with `/vect:{origin}` and `/mvc` children).
    ctx: Ctx,
    config: AbConfig,
    coins: Coins,
    /// Next rbid for our own a-broadcast *commands*.
    next_rbid: u64,
    /// Next sequence number for our own dissemination batches.
    next_batch: u64,
    /// Commands queued locally, waiting to be flushed into a batch.
    queue: VecDeque<QueuedCmd>,
    /// Own batches disseminated but not yet a-delivered (the pipelining
    /// window occupancy).
    own_in_flight: usize,
    /// Last driver-clock reading (for the age-based flush trigger).
    now_ns: u64,
    /// RBC instances of AB_MSG batch broadcasts, keyed by batch id.
    msg_rbc: HashMap<BatchId, ReliableBroadcast>,
    /// Batches received (RBC-delivered, decoded) but not yet a-delivered.
    received: BTreeMap<BatchId, BatchPayload>,
    /// Batch identifiers already a-delivered (dedup of late traffic).
    a_delivered: DeliveredSet,
    /// Command identifiers already a-delivered (a Byzantine sender can
    /// pack one rbid into overlapping batches; only the first ordered
    /// copy delivers).
    cmd_delivered: DeliveredSet,
    /// Current agreement round.
    round: u32,
    /// Whether we broadcast our AB_VECT for the current round.
    vect_sent: bool,
    /// Whether we proposed to the current round's MVC.
    proposed: bool,
    /// The ids of the last AB_VECT we broadcast.
    last_vect: BTreeSet<MsgId>,
    /// Whether the last concluded round decided a set with nothing new
    /// to deliver (see [`AtomicBroadcast::retry_is_futile`]).
    last_round_empty: bool,
    /// AB_VECT RBC instances keyed by (round, origin).
    vect_rbc: BTreeMap<(u32, ProcessId), ReliableBroadcast>,
    /// Decoded AB_VECT contents per round and origin.
    vects: BTreeMap<u32, Vec<Option<Vec<MsgId>>>>,
    /// MVC instances per round, kept alive after the decision for
    /// laggards up to [`MAX_ROUND_AHEAD`] rounds behind.
    agreements: BTreeMap<u32, MultiValuedConsensus>,
    /// A decided W' whose payloads have not all arrived yet.
    awaiting_payloads: Option<Vec<MsgId>>,
    /// True between [`AtomicBroadcast::resume`] and the first normally
    /// concluded round: enables the evidence-based round fast-forward
    /// (a resumed round estimate can lag the group).
    recovering: bool,
    /// Recently a-delivered batches (id → encoded batch payload),
    /// retained so a rejoining replica whose RBC instances missed the
    /// dissemination can still obtain ordered payloads (served through
    /// the state-transfer channel, accepted at `f+1` identical copies).
    retained: BTreeMap<BatchId, Bytes>,
    /// FIFO eviction order of `retained` (bounded by
    /// [`RETAIN_BATCHES`]).
    retained_order: VecDeque<BatchId>,
    stats: AbStats,
}

/// The span segment of command or batch `id` (`kind` `'m'` or `'b'`),
/// or of the milestone `tail` below it.
fn id_seg(kind: char, id: MsgId, tail: &'static str) -> impl FnOnce(&mut String) -> fmt::Result {
    move |f| write!(f, "{kind}:{}:{}{tail}", id.sender, id.rbid)
}

impl core::fmt::Debug for AtomicBroadcast {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("AtomicBroadcast")
            .field("me", &self.ctx.me)
            .field("round", &self.round)
            .field("pending", &self.received.len())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl AtomicBroadcast {
    /// Creates a session.
    ///
    /// Each agreement round's binary consensus flips its own coins of
    /// `coins` ([`Coins::round`]).
    pub fn new(ctx: Ctx, coins: Coins, config: AbConfig) -> Self {
        let n = ctx.group.n();
        AtomicBroadcast {
            ctx,
            config,
            coins,
            next_rbid: 0,
            next_batch: 0,
            queue: VecDeque::new(),
            own_in_flight: 0,
            now_ns: 0,
            msg_rbc: HashMap::new(),
            received: BTreeMap::new(),
            a_delivered: DeliveredSet::new(n),
            cmd_delivered: DeliveredSet::new(n),
            round: 0,
            vect_sent: false,
            proposed: false,
            last_vect: BTreeSet::new(),
            last_round_empty: false,
            vect_rbc: BTreeMap::new(),
            vects: BTreeMap::new(),
            agreements: BTreeMap::new(),
            awaiting_payloads: None,
            recovering: false,
            retained: BTreeMap::new(),
            retained_order: VecDeque::new(),
            stats: AbStats::default(),
        }
    }

    /// Drives the agreement task: starts a new round if there are
    /// undelivered messages. This is the only place a round starts —
    /// drivers call it once their inbound queue is drained, mirroring the
    /// paper's implementation (one protocol thread that exhausts pending
    /// input before continuing the agreement task), which is what lets an
    /// entire burst be ordered by a couple of agreements (§4.2, Figure 7).
    /// A no-op while a round is in progress.
    pub fn poll(&mut self) -> AbStep {
        self.settle(true)
    }

    /// Injects the driver clock (wall or virtual nanoseconds). Only the
    /// age-based flush trigger reads it; batching liveness never depends
    /// on it (an empty pipelining window always flushes immediately).
    pub fn set_now(&mut self, now_ns: u64) {
        self.now_ns = self.now_ns.max(now_ns);
    }

    /// Runs deferred transitions — notably age-based batch flushes after
    /// [`AtomicBroadcast::set_now`] advanced the clock — without starting
    /// an agreement round. Drivers call this when the
    /// [`AtomicBroadcast::next_flush_deadline`] passes.
    pub fn tick(&mut self) -> AbStep {
        self.settle(false)
    }

    /// The driver-clock instant at which the oldest queued command must
    /// be flushed, or `None` when no timer is needed (empty queue or full
    /// pipelining window — a full window flushes on a-delivery instead).
    pub fn next_flush_deadline(&self) -> Option<u64> {
        if self.own_in_flight >= self.config.batch.window {
            return None;
        }
        let front = self.queue.front()?;
        Some(
            front
                .enqueued_ns
                .saturating_add(self.config.batch.max_delay_ns),
        )
    }

    /// Session counters for the evaluation harness.
    pub fn stats(&self) -> AbStats {
        self.stats
    }

    /// Current agreement round (0-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of commands received (in RBC-delivered batches) but not
    /// yet ordered.
    pub fn pending(&self) -> usize {
        self.received.values().map(|b| b.payloads.len()).sum()
    }

    /// Commands waiting in the local batch queue (not yet disseminated).
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Own batches disseminated but not yet a-delivered (pipelining
    /// window occupancy).
    pub fn in_flight_batches(&self) -> usize {
        self.own_in_flight
    }

    /// Number of live `AB_MSG` reliable-broadcast instances (memory
    /// introspection; completed instances are pruned after delivery).
    pub fn live_msg_instances(&self) -> usize {
        self.msg_rbc.len()
    }

    /// Non-compacted delivered-set entries across the batch and command
    /// sets (memory introspection: stays near zero for correct senders,
    /// whose batch seqs and rbids are both sequential).
    pub fn delivered_set_sparse_len(&self) -> usize {
        self.a_delivered.sparse_len() + self.cmd_delivered.sparse_len()
    }

    /// A human-readable snapshot of the agreement machinery, for
    /// debugging stuck rounds.
    pub fn debug_snapshot(&self) -> String {
        let vects = self
            .vects
            .get(&self.round)
            .map(|v| v.iter().filter(|x| x.is_some()).count())
            .unwrap_or(0);
        let mvc = self.agreements.get(&self.round).map(|m| {
            format!(
                "mvc(decided={} bc_rounds={:?})",
                m.is_decided(),
                m.bc_rounds()
            )
        });
        format!(
            "round={} queued={} in_flight={} pending={} vect_sent={} proposed={} vects={} awaiting={:?} {:?}",
            self.round,
            self.queue.len(),
            self.own_in_flight,
            self.pending(),
            self.vect_sent,
            self.proposed,
            vects,
            self.awaiting_payloads.as_ref().map(Vec::len),
            mvc
        )
    }

    /// Rewinds/forwards a **fresh** session to a rejoin cursor: the
    /// delivered sets become pure watermarks, own identifier counters
    /// jump past everything peers have seen, and the session enters
    /// recovering mode (round fast-forward armed) until the first
    /// normally concluded round. Must be called before any traffic is
    /// fed to the instance.
    pub fn resume(&mut self, cursor: &AbCursor) {
        let n = self.ctx.group.n();
        self.round = cursor.round;
        self.a_delivered = DeliveredSet::from_watermarks(n, &cursor.a_delivered);
        self.cmd_delivered = DeliveredSet::from_watermarks(n, &cursor.cmd_delivered);
        self.next_rbid = cursor.next_rbid;
        self.next_batch = cursor.next_batch;
        self.vect_sent = false;
        self.proposed = false;
        self.awaiting_payloads = None;
        self.recovering = true;
        self.free_finished_rounds();
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            self.ctx.me as u32,
            milestones::AB_RESUMED,
            u64::from(cursor.round),
        );
    }

    /// True between [`AtomicBroadcast::resume`] and the first normally
    /// concluded round.
    pub fn recovering(&self) -> bool {
        self.recovering
    }

    /// This session's position in the stream, as advertised to a
    /// rejoining replica: current round, per-origin delivered batch
    /// watermarks, and exclusive upper bounds of every batch seq and
    /// command rbid ever seen (delivered, pending, or in dissemination).
    pub fn hints(&self) -> crate::recovery::PeerHints {
        let n = self.ctx.group.n();
        let mut max_batch: Vec<u64> = (0..n).map(|o| self.a_delivered.max_seen(o)).collect();
        let mut max_rbid: Vec<u64> = (0..n).map(|o| self.cmd_delivered.max_seen(o)).collect();
        for (id, batch) in &self.received {
            max_batch[id.sender] = max_batch[id.sender].max(id.rbid + 1);
            max_rbid[id.sender] =
                max_rbid[id.sender].max(batch.start_rbid + batch.payloads.len() as u64);
        }
        for id in self.msg_rbc.keys() {
            max_batch[id.sender] = max_batch[id.sender].max(id.rbid + 1);
        }
        crate::recovery::PeerHints {
            round: self.round,
            batch_w: (0..n).map(|o| self.a_delivered.watermark_of(o)).collect(),
            max_batch,
            max_rbid,
        }
    }

    /// Batch ids a concluded round decided to order whose payloads have
    /// not arrived — empty in normal operation; after a rejoin the RBC
    /// instances that disseminated them may have completed before the
    /// wipe, in which case the payloads must be fetched out of band
    /// ([`AtomicBroadcast::retained_batch`] on peers) and fed back via
    /// [`AtomicBroadcast::inject_batch`].
    pub fn missing_payloads(&self) -> Vec<BatchId> {
        self.awaiting_payloads
            .as_ref()
            .map(|ids| {
                ids.iter()
                    .filter(|id| !self.received.contains_key(id))
                    .copied()
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The encoded payload of a recently a-delivered batch, if still
    /// retained — what this process serves to a rejoiner stuck on
    /// [`AtomicBroadcast::missing_payloads`].
    pub fn retained_batch(&self, id: &BatchId) -> Option<Bytes> {
        self.retained.get(id).cloned()
    }

    /// Injects an out-of-band batch payload (obtained from `f+1` peers
    /// serving identical bytes — the caller is responsible for that
    /// quorum check; RBC totality guarantees correct peers retain
    /// identical encodings). A no-op for batches already delivered,
    /// already received, or not currently awaited.
    pub fn inject_batch(&mut self, id: BatchId, raw: Bytes) -> AbStep {
        if self.a_delivered.contains(&id) || self.received.contains_key(&id) {
            return Step::none();
        }
        match decode_batch(&raw) {
            Ok(batch) => {
                self.ctx.metrics.flight_record(
                    FlightKind::Recovery,
                    id.sender as u32,
                    milestones::BATCH_INJECTED,
                    id.rbid,
                );
                self.received.insert(id, batch);
                self.settle(false)
            }
            Err(_) => Step::none(),
        }
    }

    /// A-broadcasts `payload`: assigns the command its identifier,
    /// enqueues it in the broadcast-side batch queue, and lets the flush
    /// policy decide whether dissemination starts in this step or a later
    /// one. The returned identifier is the one the eventual
    /// [`AbDelivery`] carries.
    pub fn broadcast(&mut self, payload: Bytes) -> (MsgId, AbStep) {
        let id = MsgId {
            sender: self.ctx.me,
            rbid: self.next_rbid,
        };
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
        let out = self.settle(false);
        (id, out)
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: AbMessage) -> AbStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        let mut out = match message {
            AbMessage::Msg { id, inner } => self.on_msg(from, id, inner),
            AbMessage::Vect {
                origin,
                round,
                inner,
            } => self.on_vect(from, origin, round, inner),
            AbMessage::Agree { round, inner } => self.on_agree(from, round, inner),
        };
        out.extend(self.settle(false));
        out
    }

    fn on_msg(&mut self, from: ProcessId, id: BatchId, inner: RbMessage) -> AbStep {
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
        let mut out = wrap_msg(id, sub);
        for payload in delivered {
            let batch = match decode_batch(&payload) {
                Ok(batch) => batch,
                Err(_) => {
                    // A malformed batch is attributable to its sender:
                    // RBC guarantees every correct process sees the same
                    // bytes, so all reach this verdict identically. The
                    // batch id still participates in agreement — it just
                    // orders zero commands.
                    out.push_fault(id.sender, FaultKind::Malformed);
                    BatchPayload {
                        start_rbid: 0,
                        payloads: Vec::new(),
                        raw: payload,
                    }
                }
            };
            for (i, p) in batch.payloads.iter().enumerate() {
                let cmd = MsgId {
                    sender: id.sender,
                    rbid: batch.start_rbid + i as u64,
                };
                if cmd.sender == self.ctx.me {
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

    fn on_vect(
        &mut self,
        from: ProcessId,
        origin: ProcessId,
        round: u32,
        inner: RbMessage,
    ) -> AbStep {
        if !self.ctx.group.contains(origin) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            return Step::fault(from, FaultKind::Unjustified);
        }
        if self.round_is_freed(round) {
            return Step::none();
        }
        let mut sub = self
            .vect_instance(round, origin)
            .handle_message(from, inner);
        let delivered = std::mem::take(&mut sub.outputs);
        let mut out = wrap_vect(origin, round, sub);
        for payload in delivered {
            match decode_ids(&payload) {
                Ok(ids) => {
                    let n = self.ctx.group.n();
                    let slot = self.vects.entry(round).or_insert_with(|| vec![None; n]);
                    if slot[origin].is_none() {
                        slot[origin] = Some(ids);
                    }
                }
                Err(_) => out.push_fault(origin, FaultKind::Malformed),
            }
        }
        out
    }

    fn on_agree(&mut self, from: ProcessId, round: u32, inner: MvcMessage) -> AbStep {
        if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            return Step::fault(from, FaultKind::Unjustified);
        }
        if self.round_is_freed(round) {
            return Step::none();
        }
        let mvc = self.agreement_instance(round);
        let sub = mvc.handle_message(from, inner);
        wrap_agree(round, sub)
    }

    /// The oldest round whose state is kept.
    fn round_floor(&self) -> u32 {
        self.round.saturating_sub(MAX_ROUND_AHEAD + 1)
    }

    /// Whether a frame for `round` comes too late, counting it if so:
    /// its instances are gone and must not be created afresh (late or
    /// replayed traffic would otherwise grow the maps back, one instance
    /// per frame). Not a fault — an honest laggard's last messages look
    /// the same.
    fn round_is_freed(&self, round: u32) -> bool {
        let freed = round < self.round_floor();
        if freed {
            self.ctx.metrics.ab_stale_round_dropped.inc();
        }
        freed
    }

    /// Drops the state of rounds more than [`MAX_ROUND_AHEAD`] behind the
    /// current one; called wherever `round` moves. A process still in
    /// such a round rejects every frame of the group's current round as
    /// unjustified (the bound in [`AtomicBroadcast::on_vect`] and
    /// [`AtomicBroadcast::on_agree`]), and those frames are not sent
    /// again: finishing old rounds cannot bring it back, only a rejoin
    /// can. Without this the three maps grow by one round's instances
    /// per agreement, for the life of the session.
    fn free_finished_rounds(&mut self) {
        let floor = self.round_floor();
        if floor > 0 {
            self.agreements = self.agreements.split_off(&floor);
            self.vects = self.vects.split_off(&floor);
            self.vect_rbc = self.vect_rbc.split_off(&(floor, 0));
        }
    }

    /// The RBC instance disseminating batch `id`, created (and its spans
    /// opened) on first use.
    fn batch_rbc(&mut self, id: BatchId) -> &mut ReliableBroadcast {
        self.msg_rbc.entry(id).or_insert_with(|| {
            self.ctx.open_at(Layer::Ab, id_seg('b', id, ""));
            let rb = self.ctx.child(Layer::Rb, id_seg('b', id, "/rb"));
            ReliableBroadcast::new(rb, self.config.mvc.profile, id.sender)
        })
    }

    /// The RBC instance of `origin`'s `AB_VECT` for `round`, created on
    /// first use.
    fn vect_instance(&mut self, round: u32, origin: ProcessId) -> &mut ReliableBroadcast {
        self.vect_rbc.entry((round, origin)).or_insert_with(|| {
            let rb = |f: &mut String| write!(f, "r:{round}/vect:{origin}");
            ReliableBroadcast::new(
                self.ctx.child(Layer::Rb, rb),
                self.config.mvc.profile,
                origin,
            )
        })
    }

    /// The MVC instance of `round`, created on first use.
    fn agreement_instance(&mut self, round: u32) -> &mut MultiValuedConsensus {
        self.agreements.entry(round).or_insert_with(|| {
            MultiValuedConsensus::new(
                self.ctx.child(Layer::Mvc, |f| write!(f, "r:{round}/mvc")),
                self.coins.round(round),
                self.config.mvc,
            )
        })
    }

    /// Runs all deferred transitions to a fixpoint. Only the agreement
    /// task waits for `start_rounds` (set by [`AtomicBroadcast::poll`]
    /// alone); batch flushes never do: dissemination is eager.
    fn settle(&mut self, start_rounds: bool) -> AbStep {
        let mut out = Step::none();
        loop {
            let mut progressed = false;
            progressed |= self.maybe_flush(&mut out);
            progressed |= self.maybe_deliver(&mut out);
            if self.awaiting_payloads.is_none() {
                progressed |= self.maybe_fast_forward();
                progressed |= start_rounds && self.maybe_send_vect(&mut out);
                progressed |= self.maybe_propose(&mut out);
                progressed |= self.maybe_conclude_round(&mut out);
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Flushes queued commands into disseminated batches while a flush
    /// trigger holds and the pipelining window has room. The window frees
    /// on a-delivery, so the `Idle` trigger alone guarantees liveness —
    /// the clock (`Age`) and queue depth (`Size`) triggers only shape
    /// batch sizes under load.
    fn maybe_flush(&mut self, out: &mut AbStep) -> bool {
        let mut progressed = false;
        loop {
            if self.queue.is_empty() || self.own_in_flight >= self.config.batch.window {
                break;
            }
            let policy = self.config.batch;
            let reason =
                if self.queue.len() >= policy.max_batch {
                    FlushReason::Size
                } else if self.own_in_flight == 0 {
                    FlushReason::Idle
                } else if self.queue.front().is_some_and(|c| {
                    self.now_ns >= c.enqueued_ns.saturating_add(policy.max_delay_ns)
                }) {
                    FlushReason::Age
                } else {
                    break;
                };
            self.flush_batch(reason, out);
            progressed = true;
        }
        progressed
    }

    /// Drains up to `max_batch` queued commands into one dissemination
    /// batch and starts its reliable broadcast.
    fn flush_batch(&mut self, reason: FlushReason, out: &mut AbStep) {
        let take = self.queue.len().min(self.config.batch.max_batch);
        let cmds: Vec<QueuedCmd> = self.queue.drain(..take).collect();
        let batch = BatchId {
            sender: self.ctx.me,
            rbid: self.next_batch,
        };
        self.next_batch += 1;
        self.own_in_flight += 1;
        self.stats.batches += 1;
        match reason {
            FlushReason::Size => self.ctx.metrics.ab_flush_size.inc(),
            FlushReason::Age => self.ctx.metrics.ab_flush_age.inc(),
            FlushReason::Idle => self.ctx.metrics.ab_flush_idle.inc(),
        }
        self.ctx.metrics.ab_batch_commands.record(take as u64);
        self.ctx.metrics.ab_queue_depth.set(self.queue.len() as u64);
        self.ctx.metrics.flight_record(
            FlightKind::Flush,
            self.ctx.me as u32,
            take as u64,
            reason as u64,
        );
        // Per-command milestones: the queue segment ends, dissemination
        // begins (the `/rb` child closes when the batch RBC delivers
        // locally in `on_msg`).
        for c in &cmds {
            let cmd = MsgId {
                sender: self.ctx.me,
                rbid: c.rbid,
            };
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
        out.extend(wrap_msg(batch, sub));
    }

    /// Starts the agreement task for the current round once there is
    /// something to order.
    fn maybe_send_vect(&mut self, out: &mut AbStep) -> bool {
        if self.vect_sent || self.received.is_empty() || self.retry_is_futile() {
            return false;
        }
        self.vect_sent = true;
        let ids: BTreeSet<MsgId> = self.received.keys().copied().collect();
        let payload = encode_ids(&ids);
        self.last_vect = ids;
        let (round, me) = (self.round, self.ctx.me);
        self.ctx.open_at(Layer::Ab, |f| write!(f, "r:{round}"));
        let sub = self
            .vect_instance(round, me)
            .broadcast(payload)
            .expect("one vect per round");
        out.extend(wrap_vect(me, round, sub));
        true
    }

    /// True when opening the next round could only repeat the last one:
    /// that round ordered nothing, our undelivered ids are still exactly
    /// the ones we offered in it, and no peer has opened the next round.
    /// Ids that never gather `f+1` supporting vectors exist — a rejoiner
    /// keeps the batches its peers a-delivered while it was away — and
    /// retrying over them is an empty agreement per poll, forever. A
    /// pending id that *can* be ordered was missing from some correct
    /// process's vector (else every correct `W_i`, hence the decision,
    /// would have contained it); that process's ids change when the
    /// batch reaches it, it opens the round, and everyone else joins.
    fn retry_is_futile(&self) -> bool {
        self.last_round_empty
            && self.received.keys().eq(self.last_vect.iter())
            && !self.vects.get(&self.round).is_some_and(|slot| {
                slot.iter()
                    .enumerate()
                    .any(|(origin, v)| origin != self.ctx.me && v.is_some())
            })
    }

    /// Proposes `W_i` to the round's MVC after `n − f` vectors arrived.
    fn maybe_propose(&mut self, out: &mut AbStep) -> bool {
        if self.proposed || !self.vect_sent {
            return false;
        }
        let Some(slot) = self.vects.get(&self.round) else {
            return false;
        };
        let count = slot.iter().filter(|v| v.is_some()).count();
        if count < self.ctx.group.quorum() {
            return false;
        }
        self.proposed = true;
        self.ctx.annotate_at(
            |f| write!(f, "r:{}", self.round),
            SpanAnnotation::VectCollected,
            count as u64,
        );

        // W_i: identifiers supported by >= f+1 vectors.
        let mut support: BTreeMap<MsgId, usize> = BTreeMap::new();
        for ids in slot.iter().flatten() {
            let mut seen = BTreeSet::new();
            for id in ids {
                if seen.insert(*id) {
                    *support.entry(*id).or_insert(0) += 1;
                }
            }
        }
        let w: BTreeSet<MsgId> = support
            .into_iter()
            .filter(|(id, c)| *c >= self.ctx.group.one_correct() && !self.a_delivered.contains(id))
            .map(|(id, _)| id)
            .collect();

        let round = self.round;
        let byzantine = self.config.byzantine_bottom;
        let mvc = self.agreement_instance(round);
        let sub = if byzantine {
            mvc.propose_byzantine_bottom()
        } else {
            mvc.propose(encode_ids(&w))
        }
        .expect("one proposal per round");
        out.extend(wrap_agree(round, sub));
        true
    }

    /// Acts on the current round's MVC decision.
    fn maybe_conclude_round(&mut self, _out: &mut AbStep) -> bool {
        if !self.proposed {
            return false;
        }
        let round = self.round;
        let decision: Option<MvcValue> = self
            .agreements
            .get(&round)
            .and_then(|m| m.decision().cloned());
        if decision.is_some() {
            self.last_round_empty = false;
            if let Some(r) = self.agreements.get(&round).and_then(|m| m.bc_rounds()) {
                self.stats.bc_rounds_max = self.stats.bc_rounds_max.max(r);
            }
        }
        match decision {
            Some(Some(bytes)) => {
                self.stats.agreements += 1;
                self.ctx.metrics.ab_agreements.inc();
                match decode_ids(&bytes) {
                    Ok(ids) => {
                        let fresh: Vec<MsgId> = ids
                            .into_iter()
                            .filter(|id| !self.a_delivered.contains(id))
                            .collect();
                        self.last_round_empty = fresh.is_empty();
                        self.awaiting_payloads = Some(fresh);
                    }
                    Err(_) => {
                        // Undecodable W' behaves like ⊥ (cannot happen with
                        // >= 1 correct supporter, kept for robustness).
                        self.stats.bottom_agreements += 1;
                    }
                }
                self.next_round();
                true
            }
            Some(None) => {
                self.stats.agreements += 1;
                self.stats.bottom_agreements += 1;
                self.ctx.metrics.ab_agreements.inc();
                self.next_round();
                true
            }
            _ => false,
        }
    }

    /// While recovering, jumps to the highest round with RB-delivered
    /// `AB_VECT`s from at least `f+1` distinct origins — proof that a
    /// correct process reached that round, so the resumed round estimate
    /// was stale and waiting for its `n − f` vectors would stall forever
    /// (peers never re-send vectors for rounds they have passed). The
    /// `f+1` distinct-origin bar means `f` Byzantine processes alone can
    /// never drag the rejoiner ahead of every correct round.
    fn maybe_fast_forward(&mut self) -> bool {
        if !self.recovering {
            return false;
        }
        let one_correct = self.ctx.group.one_correct();
        let target = self
            .vects
            .range(self.round + 1..)
            .filter(|(_, slot)| slot.iter().filter(|v| v.is_some()).count() >= one_correct)
            .map(|(r, _)| *r)
            .next_back();
        let Some(round) = target else {
            return false;
        };
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            self.ctx.me as u32,
            milestones::FAST_FORWARD,
            u64::from(round),
        );
        if self.vect_sent {
            self.ctx.close_at(|f| write!(f, "r:{}", self.round));
        }
        self.round = round;
        self.vect_sent = false;
        self.proposed = false;
        self.free_finished_rounds();
        true
    }

    fn next_round(&mut self) {
        self.ctx.close_at(|f| write!(f, "r:{}", self.round));
        self.round += 1;
        self.vect_sent = false;
        self.proposed = false;
        // A normally concluded round means the session is aligned with
        // the group again: disarm the rejoin fast-forward.
        self.recovering = false;
        self.free_finished_rounds();
    }

    /// Delivers a decided set of batches once all their payloads have
    /// arrived, unpacking each batch into its commands in rbid order.
    fn maybe_deliver(&mut self, out: &mut AbStep) -> bool {
        let Some(ids) = self.awaiting_payloads.as_ref() else {
            return false;
        };
        if !ids.iter().all(|id| self.received.contains_key(id)) {
            return false;
        }
        let mut ids = self.awaiting_payloads.take().expect("checked above");
        // Deterministic total order across the decided batches.
        ids.sort();
        ids.dedup();
        self.ctx.metrics.ab_batch.record(ids.len() as u64);
        for id in ids {
            let batch = self.received.remove(&id).expect("payload present");
            self.a_delivered.insert(id);
            // Retain the encoded payload for rejoiners (bounded FIFO).
            if self.retained.insert(id, batch.raw.clone()).is_none() {
                self.retained_order.push_back(id);
                if self.retained_order.len() > RETAIN_BATCHES {
                    if let Some(old) = self.retained_order.pop_front() {
                        self.retained.remove(&old);
                    }
                }
            }
            // The completed RBC instance is pruned: every message we owed
            // the group for it has already been sent.
            self.msg_rbc.remove(&id);
            if id.sender == self.ctx.me {
                self.own_in_flight = self.own_in_flight.saturating_sub(1);
            }
            self.ctx.close_at(id_seg('b', id, ""));
            for (i, payload) in batch.payloads.into_iter().enumerate() {
                let cmd = MsgId {
                    sender: id.sender,
                    rbid: batch.start_rbid + i as u64,
                };
                if self.cmd_delivered.contains(&cmd) {
                    // A Byzantine sender packed this rbid into more than
                    // one batch; only the first ordered copy delivers.
                    continue;
                }
                self.cmd_delivered.insert(cmd);
                self.ctx.close_at(id_seg('m', cmd, ""));
                self.stats.delivered += 1;
                self.ctx.metrics.ab_delivered.inc();
                out.push_output(AbDelivery { id: cmd, payload });
            }
        }
        true
    }
}

fn wrap_msg(id: MsgId, sub: Step<RbMessage, Bytes>) -> AbStep {
    sub.forward(|inner| AbMessage::Msg { id, inner })
}

fn wrap_vect(origin: ProcessId, round: u32, sub: Step<RbMessage, Bytes>) -> AbStep {
    sub.forward(|inner| AbMessage::Vect {
        origin,
        round,
        inner,
    })
}

fn wrap_agree(round: u32, sub: Step<MvcMessage, MvcValue>) -> AbStep {
    sub.forward(|inner| AbMessage::Agree { round, inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::step::Process;
    use crate::testing::{ctx, Net, Schedule};

    type AbNet = Net<AtomicBroadcast>;

    fn coins(local: u64) -> Coins {
        Coins { local, nonce: 6 }
    }

    fn ab_net(n: usize, seed: u64) -> AbNet {
        ab_net_with(n, seed, |_| AbConfig::default())
    }

    fn ab_insts(
        n: usize,
        seed: u64,
        config: impl Fn(ProcessId) -> AbConfig,
    ) -> Vec<AtomicBroadcast> {
        (0..n)
            .map(|me| {
                AtomicBroadcast::new(
                    ctx(n, me, seed),
                    coins(seed ^ (me as u64) << 16),
                    config(me),
                )
            })
            .collect()
    }

    fn ab_net_with(n: usize, seed: u64, config: impl Fn(ProcessId) -> AbConfig) -> AbNet {
        Net::connect(ab_insts(n, seed, config), seed)
    }

    fn broadcast(net: &mut AbNet, p: ProcessId, payload: &[u8]) -> MsgId {
        let (id, step) = net
            .process_mut(p)
            .broadcast(Bytes::copy_from_slice(payload));
        net.absorb(p, step);
        id
    }

    /// The ids process `p` a-delivered, in order.
    fn delivered_ids<P: Process<Out = AbDelivery>>(net: &Net<P>, p: ProcessId) -> Vec<MsgId> {
        net.outputs(p).iter().map(|d| d.id).collect()
    }

    #[test]
    fn id_and_message_codec_roundtrip() {
        let msg = AbMessage::Msg {
            id: MsgId { sender: 2, rbid: 7 },
            inner: RbMessage::Init(Bytes::from_static(b"m")),
        };
        assert_eq!(AbMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
        let vect = AbMessage::Vect {
            origin: 1,
            round: 3,
            inner: RbMessage::Echo(Bytes::from_static(b"v")),
        };
        assert_eq!(AbMessage::from_bytes(&vect.to_bytes()).unwrap(), vect);
    }

    #[test]
    fn ids_codec_roundtrip() {
        let ids: BTreeSet<MsgId> = [MsgId { sender: 0, rbid: 1 }, MsgId { sender: 3, rbid: 0 }]
            .into_iter()
            .collect();
        let enc = encode_ids(&ids);
        assert_eq!(
            decode_ids(&enc).unwrap(),
            ids.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn single_message_delivered_everywhere() {
        let mut net = ab_net(4, 1);
        let id = broadcast(&mut net, 0, b"hello");
        net.run();
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 1, "process {p}");
            assert_eq!(net.outputs(p)[0].id, id);
            assert_eq!(net.outputs(p)[0].payload.as_ref(), b"hello");
        }
    }

    #[test]
    fn total_order_across_processes() {
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = ab_net(4, 100 + seed);
            net.set_schedule(schedule);
            for p in 0..4 {
                for k in 0..3 {
                    broadcast(&mut net, p, format!("m{p}:{k}").as_bytes());
                }
            }
            net.run();
            let order0 = delivered_ids(&net, 0);
            assert_eq!(order0.len(), 12, "all 12 messages delivered");
            for p in 1..4 {
                assert_eq!(
                    delivered_ids(&net, p),
                    order0,
                    "seed {seed} {schedule}: order diverged at {p}"
                );
            }
        }
    }

    #[test]
    fn no_duplicate_deliveries() {
        let mut net = ab_net(4, 9);
        for p in 0..4 {
            broadcast(&mut net, p, b"x");
        }
        net.run();
        for p in 0..4 {
            let mut ids = delivered_ids(&net, p);
            let before = ids.len();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), before, "duplicates at {p}");
        }
    }

    #[test]
    fn sender_order_preserved_per_sender() {
        // FIFO per sender is not guaranteed by atomic broadcast in
        // general, but identifiers from one sender are ordered within a
        // batch; at minimum every message must appear exactly once.
        let mut net = ab_net(4, 33);
        let ids: Vec<MsgId> = (0..5)
            .map(|k| broadcast(&mut net, 2, format!("m{k}").as_bytes()))
            .collect();
        net.run();
        for p in 0..4 {
            let got: BTreeSet<MsgId> = net.outputs(p).iter().map(|d| d.id).collect();
            assert_eq!(got, ids.iter().copied().collect());
        }
    }

    #[test]
    fn crash_faultload_delivers_for_survivors() {
        for schedule in Schedule::ALL {
            let mut net = ab_net(4, 5);
            net.set_schedule(schedule);
            net.crash(3);
            for p in 0..3 {
                broadcast(&mut net, p, format!("c{p}").as_bytes());
            }
            net.run();
            let order0 = delivered_ids(&net, 0);
            assert_eq!(order0.len(), 3, "{schedule}");
            for p in 1..3 {
                assert_eq!(delivered_ids(&net, p), order0, "{schedule}");
            }
        }
    }

    #[test]
    fn byzantine_bottom_attacker_cannot_block_delivery() {
        // Process 3 runs the paper's §4.2 attack at the MVC layer.
        for (seed, schedule) in Schedule::sweep(0..3) {
            let mut net = ab_net_with(4, 700 + seed, |p| AbConfig {
                byzantine_bottom: p == 3,
                ..AbConfig::default()
            });
            net.set_schedule(schedule);
            for p in 0..3 {
                broadcast(&mut net, p, format!("b{p}").as_bytes());
            }
            net.run();
            let order0 = delivered_ids(&net, 0);
            assert_eq!(
                order0.len(),
                3,
                "seed {seed} {schedule}: deliveries missing"
            );
            for p in 1..3 {
                assert_eq!(delivered_ids(&net, p), order0, "seed {seed} {schedule}");
            }
        }
    }

    #[test]
    fn burst_is_ordered_with_few_agreements() {
        // The paper's key observation: a burst needs very few agreements.
        let mut net = ab_net(4, 77);
        for p in 0..4 {
            for k in 0..10 {
                broadcast(&mut net, p, format!("burst{p}:{k}").as_bytes());
            }
        }
        net.run();
        for p in 0..4 {
            assert_eq!(net.outputs(p).len(), 40);
            let stats = net.process(p).stats();
            let ag = stats.agreements;
            assert!(ag <= 10, "too many agreements: {ag}");
            // One sample per non-⊥ agreement; together they order every batch.
            let batches = net.process(p).ctx.metrics.ab_batch.snapshot();
            assert_eq!(batches.count, ag - stats.bottom_agreements);
            let flushed: u64 = (0..4).map(|q| net.process(q).stats().batches).sum();
            assert_eq!(batches.sum, flushed);
        }
    }

    /// An AB the net never polls (the trait's default `poll` is empty):
    /// whatever round starts, the test started it.
    struct Unpolled(AtomicBroadcast);

    impl Process for Unpolled {
        type Msg = AbMessage;
        type Out = AbDelivery;

        fn handle_message(&mut self, from: ProcessId, msg: AbMessage) -> AbStep {
            self.0.handle_message(from, msg)
        }
    }

    #[test]
    fn rounds_wait_for_poll() {
        let insts = ab_insts(4, 55, |_| AbConfig::default());
        let mut net = Net::connect(insts.into_iter().map(Unpolled).collect(), 55);
        for p in 0..4 {
            let (_, step) = net.process_mut(p).0.broadcast(Bytes::from(format!("d{p}")));
            net.absorb(p, step);
        }
        // Drain all AB_MSG traffic: no agreement must have started.
        net.run();
        for p in 0..4 {
            assert!(net.outputs(p).is_empty(), "round started without poll");
            assert!(net.process(p).0.pending() > 0);
        }
        // Poll everyone: the agreement task kicks off and orders the lot
        // in a single agreement per process.
        for p in 0..4 {
            let step = net.process_mut(p).0.poll();
            net.absorb(p, step);
        }
        // Subsequent rounds start via further polls; emulate the drivers
        // by polling whenever the queue drains.
        loop {
            net.run();
            let mut more = false;
            for p in 0..4 {
                let step = net.process_mut(p).0.poll();
                more |= !step.is_empty();
                net.absorb(p, step);
            }
            if !more {
                break;
            }
        }
        let order0 = delivered_ids(&net, 0);
        assert_eq!(order0.len(), 4);
        for p in 1..4 {
            let order = delivered_ids(&net, p);
            assert_eq!(order, order0);
        }
        // One agreement ordered the entire batch.
        for p in 0..4 {
            assert_eq!(net.process(p).0.stats().agreements, 1, "process {p}");
        }
    }

    #[test]
    fn unorderable_ids_do_not_spin_rounds() {
        // What a rejoin leaves behind: each of three processes holds a
        // batch the others a-delivered while it was away, so no id ever
        // gathers f+1 supporting vectors. One round over them decides the
        // empty set; re-running it over the same ids would order nothing
        // again, forever, at full speed (ROADMAP item 0's livelock).
        let mut net = ab_net(4, 91);
        for p in 0..3usize {
            let stale = MsgId {
                sender: 3,
                rbid: 1000 + p as u64,
            };
            let raw = encode_batch(5000 + p as u64, &[Bytes::from_static(b"stale")]);
            let step = net.process_mut(p).inject_batch(stale, raw);
            net.absorb(p, step);
        }
        for p in 0..3 {
            let injected = (FlightKind::Recovery, 3, milestones::BATCH_INJECTED);
            let events = net.process(p).ctx.metrics.flight().events();
            let found = events.iter().find(|e| (e.kind, e.peer, e.a) == injected);
            assert_eq!(found.map(|e| e.b), Some(1000 + p as u64), "process {p}");
            let step = net.process_mut(p).poll();
            net.absorb(p, step);
        }
        net.run();
        for p in 0..3 {
            assert_eq!(net.process(p).round(), 1, "process {p} kept opening rounds");
            assert!(net.outputs(p).is_empty());
        }
        // Fresh content still gets ordered, by everyone, and then the
        // group goes quiet again.
        let id = broadcast(&mut net, 3, b"fresh");
        net.run();
        for p in 0..4 {
            let got = delivered_ids(&net, p);
            assert_eq!(got, vec![id], "process {p}");
        }
    }

    #[test]
    fn resumed_session_jumps_to_a_round_f_plus_1_peers_reached() {
        let mut ab = AtomicBroadcast::new(ctx(4, 0, 0), coins(1), AbConfig::default());
        ab.resume(&AbCursor {
            round: 2,
            a_delivered: vec![0; 4],
            cmd_delivered: vec![0; 4],
            next_rbid: 0,
            next_batch: 0,
        });
        // Round-5 vectors of two origins (f + 1), each RB-delivered on
        // three READYs; one origin alone moves nothing.
        let vect = encode_ids(&BTreeSet::new());
        for (origin, reached) in [(1, 2), (2, 5)] {
            for from in 1..4 {
                let (round, inner) = (5, RbMessage::Ready(vect.clone()));
                let step = ab.handle_message(
                    from,
                    AbMessage::Vect {
                        origin,
                        round,
                        inner,
                    },
                );
                assert!(step.faults.is_empty() && step.outputs.is_empty());
            }
            assert_eq!(ab.round(), reached, "after origin {origin}");
        }
        let recorded: Vec<(u64, u64)> = (ab.ctx.metrics.flight().events().iter())
            .filter(|e| e.kind == FlightKind::Recovery)
            .map(|e| (e.a, e.b))
            .collect();
        let expected = [(milestones::AB_RESUMED, 2), (milestones::FAST_FORWARD, 5)];
        assert_eq!(recorded, expected);
    }

    #[test]
    fn stats_track_broadcast_and_delivered() {
        let mut net = ab_net(4, 2);
        broadcast(&mut net, 1, b"s");
        net.run();
        assert_eq!(net.process(1).stats().broadcast, 1);
        for p in 0..4 {
            assert_eq!(net.process(p).stats().delivered, 1);
        }
    }

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
    fn far_future_round_rejected() {
        let mut ab = AtomicBroadcast::new(ctx(4, 0, 0), coins(1), AbConfig::default());
        let step = ab.handle_message(
            1,
            AbMessage::Vect {
                origin: 1,
                round: 500,
                inner: RbMessage::Init(Bytes::from_static(b"v")),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Unjustified);
    }

    /// One a-broadcast per turn, each run to quiescence, until process 0
    /// has concluded `rounds` agreement rounds.
    fn run_rounds(net: &mut AbNet, senders: usize, rounds: u32) {
        let mut k = 0;
        while net.process(0).round() < rounds {
            broadcast(net, k % senders, format!("r{k}").as_bytes());
            net.run();
            k += 1;
        }
    }

    /// Rounds with state in each of the three per-round maps.
    fn rounds_held(ab: &AtomicBroadcast) -> [usize; 3] {
        let vect_rounds: BTreeSet<u32> = ab.vect_rbc.keys().map(|(round, _)| *round).collect();
        [ab.agreements.len(), ab.vects.len(), vect_rounds.len()]
    }

    #[test]
    fn finished_rounds_are_freed() {
        let mut net = ab_net(4, 21);
        run_rounds(&mut net, 4, 200);
        let order0 = delivered_ids(&net, 0);
        assert!(order0.len() >= 100, "{} delivered", order0.len());
        for p in 0..4 {
            assert_eq!(delivered_ids(&net, p), order0, "process {p}");
            let ab = net.process(p);
            assert!(ab.round() >= 200);
            for held in rounds_held(ab) {
                assert!(
                    held <= MAX_ROUND_AHEAD as usize + 2,
                    "process {p} holds {held} rounds at round {}",
                    ab.round()
                );
            }
        }
    }

    #[test]
    fn frame_for_a_freed_round_creates_no_instance() {
        let mut net = ab_net(4, 22);
        run_rounds(&mut net, 4, 200);
        let metrics = net.process(0).ctx.metrics.clone();
        assert_eq!(metrics.ab_stale_round_dropped.get(), 0);
        let before = rounds_held(net.process(0));
        let replays = [
            AbMessage::Vect {
                origin: 1,
                round: 3,
                inner: RbMessage::Init(Bytes::from_static(b"v")),
            },
            AbMessage::Agree {
                round: 3,
                inner: MvcMessage::Init {
                    origin: 1,
                    inner: RbMessage::Init(Bytes::from_static(b"w")),
                },
            },
        ];
        for msg in replays {
            let step = net.process_mut(0).handle_message(1, msg);
            assert!(step.messages.is_empty() && step.faults.is_empty());
        }
        let ab = net.process(0);
        assert_eq!(rounds_held(ab), before);
        assert!(!ab.agreements.contains_key(&3) && !ab.vects.contains_key(&3));
        assert!(!ab.vect_rbc.contains_key(&(3, 1)));
        assert_eq!(metrics.ab_stale_round_dropped.get(), 2);
    }

    #[test]
    fn laggard_inside_the_horizon_catches_up() {
        let mut net = ab_net(4, 23);
        // Process 3 hears nothing while the other three run 60 rounds…
        net.hold(3);
        run_rounds(&mut net, 3, 60);
        let ahead = net.process(0).round();
        assert!(
            (60..=MAX_ROUND_AHEAD).contains(&ahead),
            "{ahead} rounds ahead"
        );
        assert_eq!(net.process(3).round(), 0);
        // …then gets everything at once, oldest rounds included: their
        // state is still there for it at every peer.
        net.release(3);
        net.run();
        let order0 = delivered_ids(&net, 0);
        assert!(order0.len() >= 30, "{} delivered", order0.len());
        for p in 1..4 {
            assert_eq!(delivered_ids(&net, p), order0, "process {p}");
        }
        assert!(net.process(3).round() >= ahead);
    }

    #[test]
    fn larger_group_total_order() {
        for schedule in Schedule::ALL {
            let mut net = ab_net(7, 13);
            net.set_schedule(schedule);
            for p in 0..7 {
                broadcast(&mut net, p, format!("g{p}").as_bytes());
            }
            net.run();
            let order0 = delivered_ids(&net, 0);
            assert_eq!(order0.len(), 7, "{schedule}");
            for p in 1..7 {
                assert_eq!(delivered_ids(&net, p), order0, "{schedule}");
            }
        }
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
