//! Byzantine-fault-tolerant **replicated state machines** on top of
//! atomic broadcast — the application pattern the paper's introduction
//! motivates ("consensus … has been shown equivalent to several other
//! distributed problems, such as state machine replication [23]").
//!
//! A [`Replica`] owns a [`Node`] and a deterministic state value; every
//! command submitted anywhere in the group is applied at every replica in
//! the same (FIFO-upgraded) total order, so all replicas stay in the same
//! state with no leader and up to `f` arbitrary faults.
//!
//! * [`Replica::submit`] — fire-and-forget command submission;
//! * [`Replica::submit_sync`] — blocks until the *own* command has been
//!   applied locally (at which point every correct replica applies it at
//!   the same position);
//! * [`Replica::read`] — a local read of the current state (sequentially
//!   consistent: it sees a prefix of the agreed history);
//! * [`Replica::barrier`] — a linearization point: broadcasts a marker
//!   and blocks until it is applied, after which a [`Replica::read`]
//!   reflects everything ordered before the barrier.

use crate::ab::{AbDelivery, MsgId};
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::fifo::FifoOrder;
use crate::node::{Node, NodeError};
use crate::recovery::scheduler::{
    DeferReason, RecoveryCommand, RotationConfig, RotationEffect, RotationState,
};
use crate::recovery::{
    accept_manifest, milestones, plan_fetch, select_cursor, AntiEntropyError, FillEntry, Hash,
    Manifest, MerkleTree, PeerHints, RecoveryConfig, RecoveryConfigError, Snapshot, SnapshotBundle,
    SnapshotState, XferMessage,
};
use crate::stack::Output;
use crate::ProcessId;
use bytes::{BufMut, Bytes, BytesMut};
use ritas_metrics::{unpoison, FlightKind, Layer, SuspicionKind};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Internal command framing: user commands vs barrier markers.
const TAG_USER: u8 = 1;
const TAG_MARKER: u8 = 2;
/// The first frame a rejoined replica broadcasts after resuming its
/// atomic-broadcast cursor. Every replica's FIFO upgrade restarts the
/// sender's expected rbid at this frame's own id before pushing it —
/// the rejoiner's post-resume counter starts above a slack gap that
/// must not read as a FIFO hole. A Byzantine sender abusing the tag can
/// only skip *its own* pending commands, which is indistinguishable
/// from never having sent them.
const TAG_REJOIN: u8 = 3;
/// A proactive-recovery rotation command (see
/// [`crate::recovery::scheduler`]): the payload is a
/// [`RecoveryCommand`], ordered through the same total order as user
/// commands so every replica applies it to the same [`RotationState`].
/// Replicas without the recovery pipeline ignore the tag.
const TAG_RECOVERY: u8 = 4;

/// Tracks which of our own commands have been applied, compactly
/// (watermark + sparse set over our sequential rbids).
#[derive(Debug, Default)]
struct OwnApplied {
    watermark: u64,
    sparse: BTreeSet<u64>,
}

impl OwnApplied {
    fn insert(&mut self, rbid: u64) {
        if rbid < self.watermark {
            return;
        }
        self.sparse.insert(rbid);
        while self.sparse.remove(&self.watermark) {
            self.watermark += 1;
        }
    }

    fn contains(&self, rbid: u64) -> bool {
        rbid < self.watermark || self.sparse.contains(&rbid)
    }

    /// Jumps the watermark over a rejoin gap: rbids below `rbid` belong
    /// to the pre-wipe incarnation and will never be applied *by us* —
    /// they are either in the snapshot we restored or lost with the old
    /// process, and a waiter must not hang on them.
    fn fast_forward(&mut self, rbid: u64) {
        if rbid > self.watermark {
            self.watermark = rbid;
        }
        self.sparse.retain(|&r| r >= rbid);
    }
}

struct Shared<S> {
    state: Mutex<S>,
    applied: Mutex<OwnApplied>,
    applied_cv: Condvar,
    /// Set when the applier thread exits (node shut down): no further
    /// deliveries will ever be applied.
    stopped: AtomicBool,
    /// The proactive-rotation driver, once armed (see
    /// [`Replica::start_rotation`]); the applier thread steps it.
    rotation: Mutex<Option<RotationDriver>>,
}

/// The applier's recovery bookkeeping — absent on a [`Replica::new`]
/// replica. The snapshot codec is captured as plain function pointers
/// where the [`SnapshotState`] bound is in scope, so the applier itself
/// needs no more than `S: Send`.
struct Recovery<S> {
    core: Arc<RecoveryCore>,
    encode: fn(&S, &mut Writer),
    decode: fn(&mut Reader<'_>) -> Result<S, WireError>,
}

/// One replica of a deterministic state machine.
///
/// # Example
///
/// A replicated counter over an in-memory cluster:
///
/// ```
/// use ritas::node::{Node, SessionConfig};
/// use ritas::rsm::Replica;
/// use bytes::Bytes;
///
/// let nodes = Node::cluster(SessionConfig::new(4)?)?;
/// let replicas: Vec<_> = nodes
///     .into_iter()
///     .map(|n| Replica::new(n, 0u64, |count, _from, cmd| {
///         if cmd == b"incr" {
///             *count += 1;
///         }
///     }))
///     .collect();
/// // Submit from one replica; the command applies at every replica.
/// replicas[2].submit_sync(Bytes::from_static(b"incr"))?;
/// assert_eq!(replicas[2].read(|c| *c), 1);
/// # for r in &replicas { r.shutdown(); }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Replica<S: Send + 'static> {
    node: Arc<Node>,
    shared: Arc<Shared<S>>,
    /// The application thread beside the node's protocol thread (the
    /// paper's two): it runs the rejoin driver when rejoining, then
    /// applies deliveries, serves state transfer and steps the rotation
    /// driver.
    applier: Option<JoinHandle<()>>,
    /// Snapshot/log bookkeeping — `Some` only for replicas built with
    /// [`Replica::with_recovery`] / [`Replica::rejoin`].
    recovery: Option<Arc<RecoveryCore>>,
}

impl<S: Send + 'static> core::fmt::Debug for Replica<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Replica")
            .field("id", &self.node.id())
            .finish_non_exhaustive()
    }
}

impl<S: Send + 'static> Replica<S> {
    /// Wraps `node` into a replica of `initial` state. `apply` must be
    /// **deterministic** — it runs at every replica with the same command
    /// sequence; any divergence (clocks, randomness, iteration order over
    /// unordered maps) forks the replicated state.
    pub fn new(
        node: Node,
        initial: S,
        apply: impl FnMut(&mut S, ProcessId, &[u8]) + Send + 'static,
    ) -> Self {
        Self::spawn(node, initial, None, None, false, apply)
    }

    /// The one construction path: builds the shared state and starts the
    /// application thread — the rejoin driver first when `rejoining`
    /// (only with `recovery`), which hands over its FIFO state on
    /// reaching Live, then [`run_applier`].
    fn spawn(
        node: Node,
        initial: S,
        recovery: Option<Recovery<S>>,
        stale: Option<Bytes>,
        rejoining: bool,
        mut apply: impl FnMut(&mut S, ProcessId, &[u8]) + Send + 'static,
    ) -> Self {
        let node = Arc::new(node);
        let shared = Arc::new(Shared {
            state: Mutex::new(initial),
            applied: Mutex::new(OwnApplied::default()),
            applied_cv: Condvar::new(),
            stopped: AtomicBool::new(false),
            rotation: Mutex::new(None),
        });
        let core = recovery.as_ref().map(|r| Arc::clone(&r.core));
        let applier = {
            let node = Arc::clone(&node);
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                let mut fifo = FifoOrder::new(node.group_size());
                if let (Some(rec), true) = (&recovery, rejoining) {
                    match run_rejoin(&node, &shared, rec, stale, &mut apply) {
                        Ok(resumed) => fifo = resumed,
                        Err(Aborted) => return abort_rejoin(&node, &shared),
                    }
                }
                run_applier(&node, &shared, recovery.as_ref(), fifo, &mut apply);
                mark_stopped(&shared);
            })
        };
        Replica {
            node,
            shared,
            applier: Some(applier),
            recovery: core,
        }
    }

    /// This replica's process id.
    pub fn id(&self) -> ProcessId {
        self.node.id()
    }

    /// The underlying node (metrics, link state, debug introspection).
    pub fn node(&self) -> &Node {
        &self.node
    }

    /// Submits a command without waiting for it to apply.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the node has shut down.
    pub fn submit(&self, command: Bytes) -> Result<MsgId, NodeError> {
        self.node.atomic_broadcast(frame(TAG_USER, &command))
    }

    /// Submits a command and blocks until this replica has applied it
    /// (every correct replica applies it at the same history position).
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the node has shut down.
    pub fn submit_sync(&self, command: Bytes) -> Result<MsgId, NodeError> {
        let id = self.submit(command)?;
        self.wait_applied(id.rbid)?;
        Ok(id)
    }

    /// A linearization barrier: returns once everything ordered before
    /// the barrier has been applied locally.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the node has shut down.
    pub fn barrier(&self) -> Result<(), NodeError> {
        let id = self.node.atomic_broadcast(frame(TAG_MARKER, &[]))?;
        self.wait_applied(id.rbid)
    }

    /// Reads the current state under the replica lock.
    pub fn read<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        f(&*unpoison(self.shared.state.lock()))
    }

    /// Shuts the underlying node down.
    pub fn shutdown(&self) {
        self.node.shutdown();
        self.shared.applied_cv.notify_all();
    }

    fn wait_applied(&self, rbid: u64) -> Result<(), NodeError> {
        let mut applied = unpoison(self.shared.applied.lock());
        while !applied.contains(rbid) {
            // Bail out once the applier has exited (node shut down): no
            // further deliveries will ever be applied, so the command can
            // never be observed as applied — that is a failure, not a
            // silent success. Never touch the node's delivery queue from
            // here — that would steal deliveries from the applier thread.
            if self.shared.stopped.load(Ordering::SeqCst) {
                return Err(NodeError::Disconnected);
            }
            // The applier notifies on every apply; the timeout only
            // covers shutdown racing the stopped-flag store.
            let cv = &self.shared.applied_cv;
            applied = unpoison(cv.wait_timeout(applied, Duration::from_millis(100))).0;
        }
        Ok(())
    }
}

impl<S: Send + 'static> Drop for Replica<S> {
    fn drop(&mut self) {
        self.shutdown();
        if let Some(h) = self.applier.take() {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery: snapshotting, state transfer, rejoin
// ---------------------------------------------------------------------------

/// Snapshot bundles a serving replica retains. Two, so a rejoiner that
/// accepted the previous boundary's manifest can still fetch it while
/// peers cross the next boundary.
const RETAINED_SNAPSHOTS: usize = 2;

/// The longest a recovering replica's applier waits on its feed with
/// nothing due: how late it notices a rotation driver armed meanwhile.
const XFER_SERVER_IDLE: Duration = Duration::from_millis(100);
/// How long one manifest-collection round waits for peer responses.
const MANIFEST_ROUND: Duration = Duration::from_millis(300);
/// Per-server timeout for one anti-entropy node/chunk fetch.
const FETCH_TIMEOUT: Duration = Duration::from_millis(500);
/// How long one fill round waits for peer responses.
const FILL_ROUND: Duration = Duration::from_millis(150);
/// After this many fill rounds with no progress, broadcast a marker to
/// force the stream forward so a bridgeable delivery appears.
const IDLE_PROBE_ROUNDS: u32 = 8;

struct LogEntry {
    sender: ProcessId,
    rbid: u64,
    payload: Bytes,
}

struct CoreInner {
    /// Global applied sequence number (markers included).
    applied_seq: u64,
    /// Per-sender rbid the next applied delivery must carry — the
    /// watermark frozen into snapshots.
    applied_next: Vec<u64>,
    /// Applied deliveries above the oldest retained snapshot, by global
    /// sequence — the fill log served to catching-up peers.
    log: BTreeMap<u64, LogEntry>,
    /// Retained snapshot bundles, oldest first.
    snaps: Vec<SnapshotBundle>,
    /// The proactive-recovery rotation coordinator — replicated state,
    /// mutated only by ordered `TAG_RECOVERY` commands and carried
    /// inside snapshots (appended after the application state).
    rotation: RotationState,
}

/// Snapshot/log bookkeeping: written and served by the applier thread,
/// read by the digest accessors.
struct RecoveryCore {
    cfg: RecoveryConfig,
    inner: Mutex<CoreInner>,
}

impl RecoveryCore {
    fn new(cfg: RecoveryConfig, n: usize) -> Arc<Self> {
        Arc::new(RecoveryCore {
            cfg,
            inner: Mutex::new(CoreInner {
                applied_seq: 0,
                applied_next: vec![0; n],
                log: BTreeMap::new(),
                snaps: Vec::new(),
                rotation: RotationState::default(),
            }),
        })
    }
}

/// Feeds one delivery through the FIFO upgrade, honoring rejoin markers
/// (see [`TAG_REJOIN`]).
fn push_with_reset(fifo: &mut FifoOrder, d: AbDelivery) -> Vec<AbDelivery> {
    if d.payload.first() == Some(&TAG_REJOIN) {
        fifo.reset_sender(d.id.sender, d.id.rbid);
    }
    fifo.push(d)
}

fn mark_stopped<S>(shared: &Shared<S>) {
    shared.stopped.store(true, Ordering::SeqCst);
    shared.applied_cv.notify_all();
}

impl<S> Recovery<S> {
    /// Advances the recovery bookkeeping over one applied delivery: the
    /// replicated rotation coordinator, the fill log, the per-sender
    /// watermark, and — at every `snapshot_every` stream boundary — a
    /// deterministic snapshot of `state`. Runs under the state lock, so
    /// no delivery can interleave between the boundary apply and its
    /// digest.
    fn record(
        &self,
        node: &Node,
        c: &mut CoreInner,
        state: &S,
        d: &AbDelivery,
    ) -> Option<RotationEffect> {
        let cfg = &self.core.cfg;
        // Rotation commands mutate the replicated coordinator state
        // inside the lock (they are part of the state the snapshot
        // digests); their side effects (key switch, gauges, suspicion
        // clearing) run after it. The AB origin is passed through so
        // `apply` can enforce the sender discipline (victim-only
        // schedule/complete).
        let effect = match d.payload.split_first() {
            Some((&TAG_RECOVERY, body)) => RecoveryCommand::from_bytes(body).ok().map(|cmd| {
                c.rotation
                    .apply(&cmd, d.id.sender as u32, node.group_size())
            }),
            _ => None,
        };
        c.applied_seq += 1;
        let seq = c.applied_seq;
        if let Some(next) = c.applied_next.get_mut(d.id.sender) {
            *next = d.id.rbid + 1;
        }
        c.log.insert(
            seq,
            LogEntry {
                sender: d.id.sender,
                rbid: d.id.rbid,
                payload: d.payload.clone(),
            },
        );
        if seq.is_multiple_of(cfg.snapshot_every) {
            let mut w = Writer::new();
            (self.encode)(state, &mut w);
            // The rotation coordinator is replicated state too: a
            // rejoiner must resume the rotation protocol (current epoch,
            // open slot, cursor) exactly where the group is.
            c.rotation.encode(&mut w);
            let snap = Snapshot {
                seq,
                next: c.applied_next.clone(),
                state: w.freeze(),
            };
            let bundle = SnapshotBundle::build(&snap, cfg.chunk_size);
            let m = node.metrics();
            m.recovery_snapshots_total.inc();
            m.flight_record(
                FlightKind::Recovery,
                node.id() as u32,
                milestones::SNAPSHOT,
                seq,
            );
            c.snaps.push(bundle);
            if c.snaps.len() > RETAINED_SNAPSHOTS {
                c.snaps.remove(0);
            }
            // Truncate the fill log below the oldest snapshot still
            // served: a rejoiner always restores at least that boundary,
            // so earlier entries can never be requested.
            let floor = c.snaps[0].manifest.seq;
            c.log = c.log.split_off(&(floor + 1));
        }
        effect
    }
}

/// Applies a batch of FIFO-released deliveries under one state-lock
/// acquisition — with `recovery`, advancing its bookkeeping in the same
/// critical section — then releases the waiters of our own commands.
fn apply_ready<S, F>(
    node: &Node,
    shared: &Shared<S>,
    recovery: Option<&Recovery<S>>,
    apply: &mut F,
    ready: &[AbDelivery],
) where
    F: FnMut(&mut S, ProcessId, &[u8]),
{
    if ready.is_empty() {
        return;
    }
    let me = node.id();
    let mut effects: Vec<RotationEffect> = Vec::new();
    let rotation_after = {
        let mut state = unpoison(shared.state.lock());
        let mut core = recovery.map(|r| (r, unpoison(r.core.inner.lock())));
        for d in ready {
            if let Some((&TAG_USER, body)) = d.payload.split_first() {
                apply(&mut state, d.id.sender, body);
            }
            if let Some((rec, c)) = &mut core {
                effects.extend(rec.record(node, c, &state, d));
            }
        }
        core.map(|(_, c)| c.rotation)
    };
    if let (Some(after), false) = (rotation_after, effects.is_empty()) {
        rotation_side_effects(node, me, &effects, after, node.group_size());
    }
    // Both user commands and markers count as applied. Hold the applied
    // lock across the notify so a waiter can never check-then-sleep
    // between our insert and the wakeup, and notify per drained batch —
    // sync-submit latency must come from the protocol, not from a poll
    // interval.
    node.metrics().rsm_applied_total.add(ready.len() as u64);
    let mut applied = unpoison(shared.applied.lock());
    for d in ready {
        if d.id.sender == me {
            applied.insert(d.id.rbid);
        }
    }
    node.metrics().rsm_applied_watermark.set(applied.watermark);
    shared.applied_cv.notify_all();
}

/// Turns accepted rotation-command effects into their side effects —
/// outside the state lock: the transport key switch, the rotation
/// gauges/counters, flight-recorder milestones, and (on a completed
/// wipe) clearing the rejuvenated replica's pre-wipe suspicion rows.
fn rotation_side_effects(
    node: &Node,
    me: ProcessId,
    effects: &[RotationEffect],
    after: RotationState,
    n: usize,
) {
    let m = node.metrics();
    let pack = |victim: u32, epoch: u64| (u64::from(victim) << 32) | (epoch & 0xffff_ffff);
    for eff in effects {
        match *eff {
            RotationEffect::Scheduled { victim, epoch } => {
                // Every replica switches its sealing keys the moment the
                // accepted schedule applies — the epoch advance *is* the
                // group-wide key rejuvenation.
                node.set_key_epoch(epoch);
                m.rotation_scheduled_total.inc();
                m.flight_record(
                    FlightKind::Recovery,
                    me as u32,
                    milestones::WIPE_SCHEDULED,
                    pack(victim, epoch),
                );
            }
            RotationEffect::Completed { victim, epoch } => {
                m.rotation_rounds_total.inc();
                // The wiped replica restarted from a clean image: its
                // pre-wipe suspicion evidence describes a process that
                // no longer exists.
                m.clear_suspicions_of(victim);
                m.flight_record(
                    FlightKind::Recovery,
                    me as u32,
                    milestones::WIPE_COMPLETED,
                    pack(victim, epoch),
                );
            }
            RotationEffect::Deferred { victim, epoch, .. } => {
                m.rotation_deferrals_total.inc();
                m.flight_record(
                    FlightKind::Recovery,
                    me as u32,
                    milestones::WIPE_DEFERRED,
                    pack(victim, epoch),
                );
            }
            RotationEffect::Rejected => {}
        }
    }
    m.rotation_epoch.set(after.epoch);
    m.rotation_active_victim
        .set(after.active.map_or(0, |(v, _)| u64::from(v) + 1));
    m.rotation_next_victim
        .set(u64::from(after.expected_victim(n)));
}

/// The application thread once Live, until the node shuts down: applies
/// every a-delivery already queued as one batch (one state-lock
/// acquisition) and, with `recovery`, answers transfer requests and
/// steps the rotation driver; without, transfer frames are dropped.
fn run_applier<S, F>(
    node: &Node,
    shared: &Shared<S>,
    recovery: Option<&Recovery<S>>,
    mut fifo: FifoOrder,
    apply: &mut F,
) where
    F: FnMut(&mut S, ProcessId, &[u8]),
{
    let mut open = true;
    while open {
        // A recovering replica wakes for its rotation check (or to see
        // whether a driver was armed); any other blocks until output.
        let wait = recovery.map(|_| match &*unpoison(shared.rotation.lock()) {
            Some(d) => d.next_check.saturating_duration_since(Instant::now()),
            None => XFER_SERVER_IDLE,
        });
        let mut ready = Vec::new();
        let mut next = node.recv_output(wait);
        loop {
            match next {
                Ok(Output::AbDelivered { delivery, .. }) => {
                    ready.extend(push_with_reset(&mut fifo, delivery));
                }
                Ok(Output::Xfer { from, payload }) => {
                    // Garbage from a Byzantine peer is dropped, not served.
                    let reply = recovery
                        .zip(XferMessage::from_bytes(&payload).ok())
                        .and_then(|(rec, msg)| serve_xfer(node, &rec.core, msg));
                    if let Some(reply) = reply {
                        let _ = node.send_xfer(from, reply.to_bytes());
                    }
                }
                Ok(_) => {}
                Err(NodeError::Timeout) => break,
                Err(_) => {
                    open = false;
                    break;
                }
            }
            next = node.recv_output(Some(Duration::ZERO));
        }
        apply_ready(node, shared, recovery, apply, &ready);
        if let Some(rec) = recovery {
            step_rotation(node, shared, &rec.core);
        }
    }
}

/// Answers one state-transfer request — manifest, Merkle nodes, chunk,
/// fill or batch — from a rejoining peer.
fn serve_xfer(node: &Node, core: &RecoveryCore, msg: XferMessage) -> Option<XferMessage> {
    match msg {
        XferMessage::ManifestReq => {
            // Hints come from the protocol thread; fetched before taking
            // the core lock (no lock is held across the round-trip).
            // A session that has seen no traffic serves empty hints (every
            // position reads as zero).
            let hints = node
                .with_stack(|stack, _| stack.ab(0).map(|ab| ab.hints()))
                .ok()?
                .unwrap_or_default();
            let manifest = unpoison(core.inner.lock()).snaps.last().map(|b| b.manifest);
            Some(XferMessage::ManifestResp { manifest, hints })
        }
        XferMessage::NodesReq {
            seq,
            level,
            indices,
        } => {
            let inner = unpoison(core.inner.lock());
            let hashes = inner
                .snaps
                .iter()
                .find(|b| b.manifest.seq == seq)
                .map(|b| indices.iter().map(|&i| b.tree.node(level, i)).collect())
                .unwrap_or_default();
            drop(inner);
            Some(XferMessage::NodesResp {
                seq,
                level,
                indices,
                hashes,
            })
        }
        XferMessage::ChunkReq { seq, idx } => {
            let inner = unpoison(core.inner.lock());
            let (data, proof) = match inner.snaps.iter().find(|b| b.manifest.seq == seq) {
                Some(b) => (
                    Bytes::copy_from_slice(b.chunk(idx, core.cfg.chunk_size)),
                    b.tree.proof(idx),
                ),
                None => (Bytes::new(), Vec::new()),
            };
            drop(inner);
            node.metrics().recovery_chunks_served.inc();
            Some(XferMessage::ChunkResp {
                seq,
                idx,
                data,
                proof,
            })
        }
        XferMessage::FillReq { from_seq, max } => {
            let inner = unpoison(core.inner.lock());
            let budget = (max as usize).min(core.cfg.fill_batch as usize);
            let mut entries = Vec::new();
            let mut want = from_seq;
            // Strictly contiguous from `from_seq`: a gap (below our log
            // floor, or beyond our applied tip) ends the response.
            while entries.len() < budget {
                match inner.log.get(&want) {
                    Some(e) => {
                        entries.push(FillEntry {
                            seq: want,
                            sender: e.sender as u32,
                            rbid: e.rbid,
                            payload: e.payload.clone(),
                        });
                        want += 1;
                    }
                    None => break,
                }
            }
            drop(inner);
            Some(XferMessage::FillResp { entries })
        }
        XferMessage::BatchReq { ids } => {
            let batches = node
                .with_stack(move |stack, _| {
                    let Some(ab) = stack.ab(0) else {
                        return Vec::new();
                    };
                    ids.into_iter()
                        .filter_map(|(sender, seq)| {
                            let id = MsgId {
                                sender: sender as ProcessId,
                                rbid: seq,
                            };
                            Some((sender, seq, ab.retained_batch(&id)?))
                        })
                        .collect()
                })
                .ok()?;
            Some(XferMessage::BatchResp { batches })
        }
        // Responses only mean something to a rejoin driver; a server
        // receiving one (stray or malicious) ignores it.
        _ => None,
    }
}

/// Why a rejoin gave up: the node shut down mid-transfer, or no holder
/// could serve a verifiable snapshot. Either way the replica stops.
struct Aborted;

impl From<NodeError> for Aborted {
    fn from(_: NodeError) -> Self {
        Aborted
    }
}

/// Marks the rejoin as aborted: closes the recovery spans, records the
/// `ABORTED` milestone and releases every waiter. The applier thread
/// returns right after this.
fn abort_rejoin<S>(node: &Node, shared: &Shared<S>) {
    let m = node.metrics();
    m.span_close("recover:sync");
    m.span_close("recover:catchup");
    m.flight_record(
        FlightKind::Recovery,
        node.id() as u32,
        milestones::ABORTED,
        0,
    );
    m.recovery_phase.set(0);
    mark_stopped(shared);
}

/// The one request/collect primitive of state transfer: sends `request`
/// to every peer in `targets`, then hands each decodable reply to
/// `on_reply` until it reports the round satisfied (`true`) or `window`
/// has elapsed. Undecodable payloads are dropped here; replies of the
/// wrong kind are the handler's to ignore. A-deliveries the round passes
/// over on the feed are pushed to `live`, in order. What the round
/// achieved is read from what the handler captured.
///
/// # Errors
///
/// [`NodeError::Disconnected`] when the node shut down mid-round.
fn xfer_round(
    node: &Node,
    targets: &[ProcessId],
    request: &XferMessage,
    window: Duration,
    live: &mut Vec<AbDelivery>,
    mut on_reply: impl FnMut(ProcessId, XferMessage) -> bool,
) -> Result<(), NodeError> {
    let request = request.to_bytes();
    for &p in targets {
        node.send_xfer(p, request.clone())?;
    }
    let deadline = Instant::now() + window;
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        match node.recv_output(Some(left)) {
            Ok(Output::Xfer { from, payload }) => {
                if XferMessage::from_bytes(&payload).is_ok_and(|msg| on_reply(from, msg)) {
                    return Ok(());
                }
            }
            Ok(Output::AbDelivered { delivery, .. }) => live.push(delivery),
            Ok(_) => {}
            Err(NodeError::Timeout) => return Ok(()),
            Err(e) => return Err(e),
        }
    }
}

/// What Syncing learned from `2f+1` peers.
struct Synced {
    /// The manifest `f+1` peers agree on, with its holders (`None`:
    /// rejoin from genesis).
    snapshot: Option<(Manifest, Vec<ProcessId>)>,
    /// Every answering peer's atomic-broadcast position.
    hints: Vec<PeerHints>,
}

/// Syncing, part one: collects manifests + stream hints from `2f+1`
/// peers until `f+1` of them agree on what to restore.
fn sync_manifests(
    node: &Node,
    peers: &[ProcessId],
    f: usize,
    live: &mut Vec<AbDelivery>,
) -> Result<Synced, NodeError> {
    let mut responses: HashMap<ProcessId, (Option<Manifest>, PeerHints)> = HashMap::new();
    loop {
        let mut answered = HashSet::new();
        xfer_round(
            node,
            peers,
            &XferMessage::ManifestReq,
            MANIFEST_ROUND,
            live,
            |from, msg| {
                if let XferMessage::ManifestResp { manifest, hints } = msg {
                    responses.insert(from, (manifest, hints));
                    answered.insert(from);
                }
                answered.len() == peers.len()
            },
        )?;
        if responses.len() < 2 * f + 1 {
            continue;
        }
        let with_manifest: Vec<(ProcessId, Manifest)> = responses
            .iter()
            .filter_map(|(&p, (om, _))| om.map(|man| (p, man)))
            .collect();
        let snapshot = accept_manifest(&with_manifest, f + 1);
        // Without an f+1-matching manifest: if f+1 peers (≥ one correct)
        // have no snapshot yet the cluster is young — rejoin from genesis
        // and let the fill protocol replay the whole log; otherwise peers
        // are mid-boundary — re-poll until they converge.
        let young = responses.values().filter(|(om, _)| om.is_none()).count() > f;
        if snapshot.is_some() || young {
            let hints = responses.into_values().map(|(_, h)| h).collect();
            return Ok(Synced { snapshot, hints });
        }
    }
}

/// Syncing, part two: downloads the snapshot `manifest` describes from
/// `servers` via Merkle anti-entropy — only the chunks that differ from
/// `stale`, each verified against the `f+1`-agreed root — and returns
/// its encoded bytes.
fn fetch_snapshot(
    node: &Node,
    chunk_size: usize,
    manifest: &Manifest,
    servers: &[ProcessId],
    stale: Option<&Bytes>,
    live: &mut Vec<AbDelivery>,
) -> Result<Vec<u8>, Aborted> {
    let m = node.metrics();
    let stale_tree = stale.map(|b| MerkleTree::build(b, chunk_size));
    // Resolve the fetch plan against one server per attempt: the hash
    // chain from the f+1-agreed root exposes a lying server (BadNodes),
    // after which we rotate to the next holder.
    let mut attempt = 0usize;
    let plan = loop {
        let srv = servers[attempt % servers.len()];
        attempt += 1;
        let mut dead = false;
        let fetch = |level: u8, indices: &[u32]| {
            let req = XferMessage::NodesReq {
                seq: manifest.seq,
                level,
                indices: indices.to_vec(),
            };
            let mut got = None;
            let round = xfer_round(node, &[srv], &req, FETCH_TIMEOUT, live, |_, msg| {
                if let XferMessage::NodesResp {
                    seq,
                    level: l,
                    indices: idx,
                    hashes,
                } = msg
                {
                    if seq == manifest.seq
                        && l == level
                        && idx == indices
                        && hashes.len() == indices.len()
                    {
                        got = Some(hashes);
                    }
                }
                got.is_some()
            });
            dead |= round.is_err();
            got.ok_or(AntiEntropyError::FetchFailed)
        };
        match plan_fetch(manifest, stale_tree.as_ref(), fetch) {
            Ok(p) => break p,
            Err(_) if dead => return Err(Aborted),
            Err(AntiEntropyError::BadNodes) => {
                m.suspect(srv as u32, SuspicionKind::BadChunk);
                m.recovery_chunk_proof_rejected.inc();
            }
            Err(AntiEntropyError::FetchFailed) => {}
        }
    };
    m.recovery_chunks_reused.add(plan.reuse.len() as u64);
    let total = manifest.len as usize;
    let mut buf = vec![0u8; total];
    let chunk_span = |idx: u32| {
        let start = (idx as usize).saturating_mul(chunk_size.max(1));
        (start, (start + chunk_size.max(1)).min(total))
    };
    for &idx in &plan.reuse {
        let (start, end) = chunk_span(idx);
        if let Some(src) = stale.and_then(|b| b.get(start..end)) {
            buf[start..end].copy_from_slice(src);
        }
    }
    for &idx in &plan.need {
        let (start, end) = chunk_span(idx);
        let req = XferMessage::ChunkReq {
            seq: manifest.seq,
            idx,
        };
        let mut fetched = false;
        // Rotate the starting server by chunk index so one corrupt holder
        // cannot serialize the whole download behind retries.
        for k in 0..servers.len() * 2 {
            let srv = servers[(idx as usize + k) % servers.len()];
            xfer_round(node, &[srv], &req, FETCH_TIMEOUT, live, |from, msg| {
                let XferMessage::ChunkResp {
                    seq,
                    idx: i,
                    data,
                    proof,
                } = msg
                else {
                    return false;
                };
                if seq != manifest.seq || i != idx {
                    return false;
                }
                if MerkleTree::verify_chunk(&manifest.root, idx, &data, &proof)
                    && data.len() == end - start
                {
                    buf[start..end].copy_from_slice(&data);
                    m.recovery_chunks_fetched.inc();
                    fetched = true;
                } else {
                    // A chunk that fails its Merkle proof is hard
                    // evidence against the server; ask the next holder.
                    m.suspect(from as u32, SuspicionKind::BadChunk);
                    m.recovery_chunk_proof_rejected.inc();
                }
                true
            })?;
            if fetched {
                break;
            }
        }
        if !fetched {
            // Every holder failed (all Byzantine would contradict the
            // f+1 manifest quorum): abort rather than install a torn
            // snapshot.
            return Err(Aborted);
        }
    }
    Ok(buf)
}

/// The value `f+1` of `copies` (one per peer) agree on — one of those
/// peers is correct, so it is the true value.
fn agreed<'a, T: PartialEq>(copies: &[&'a T], f: usize) -> Option<&'a T> {
    copies
        .iter()
        .copied()
        .find(|c| copies.iter().filter(|other| *other == c).count() > f)
}

/// Rounds can conclude on batch ids whose payload dissemination finished
/// before the wipe: fetches the raw batches from peers and injects any
/// copy `f+1` of them agree on.
fn fetch_missing_batches(
    node: &Node,
    peers: &[ProcessId],
    f: usize,
    live: &mut Vec<AbDelivery>,
) -> Result<(), NodeError> {
    let missing = node
        .with_stack(|stack, _| stack.ab(0).map(|ab| ab.missing_payloads()))?
        .unwrap_or_default();
    if missing.is_empty() {
        return Ok(());
    }
    let req = XferMessage::BatchReq {
        ids: missing
            .iter()
            .map(|id| (id.sender as u32, id.rbid))
            .collect(),
    };
    let mut copies: HashMap<(u32, u64), Vec<Bytes>> = HashMap::new();
    xfer_round(node, peers, &req, FILL_ROUND, live, |_, msg| {
        if let XferMessage::BatchResp { batches } = msg {
            for (sender, seq, raw) in batches {
                copies.entry((sender, seq)).or_default().push(raw);
            }
        }
        false
    })?;
    for ((sender, seq), raws) in copies {
        if let Some(raw) = agreed(&raws.iter().collect::<Vec<_>>(), f).cloned() {
            let id = MsgId {
                sender: sender as ProcessId,
                rbid: seq,
            };
            node.with_stack(move |stack, out| {
                out.extend(stack.with_ab(0, |ab| ab.inject_batch(id, raw)));
            })?;
        }
    }
    Ok(())
}

/// CatchingUp: replays the peers' applied log from our snapshot position
/// until the fill stream reaches a delivery the resumed atomic broadcast
/// already handed us live. The live deliveries collect in `live`; they
/// are applied only after the fill stream reaches one of them (never
/// double-applied: the bridge entry itself switches streams *instead of*
/// applying via fill).
fn catch_up<S, F>(
    node: &Node,
    shared: &Shared<S>,
    rec: &Recovery<S>,
    apply: &mut F,
    fifo: &mut FifoOrder,
    live: &mut Vec<AbDelivery>,
) -> Result<(), NodeError>
where
    F: FnMut(&mut S, ProcessId, &[u8]),
{
    let n = node.group_size();
    let f = (n - 1) / 3;
    let peers: Vec<ProcessId> = (0..n).filter(|&p| p != node.id()).collect();
    let applied_seq = || unpoison(rec.core.inner.lock()).applied_seq;
    // The ids of `live[..indexed]`.
    let mut buffered: HashSet<MsgId> = HashSet::new();
    let mut indexed = 0;
    let mut idle = 0u32;
    loop {
        // Poll every peer for the next stretch of the applied log.
        let req = XferMessage::FillReq {
            from_seq: applied_seq() + 1,
            max: rec.core.cfg.fill_batch,
        };
        let mut fills: HashMap<ProcessId, Vec<FillEntry>> = HashMap::new();
        xfer_round(node, &peers, &req, FILL_ROUND, live, |from, msg| {
            if let XferMessage::FillResp { entries } = msg {
                fills.insert(from, entries);
            }
            fills.len() == peers.len()
        })?;
        buffered.extend(live[indexed..].iter().map(|d| d.id));
        indexed = live.len();
        // Apply f+1-agreed entries strictly in sequence order: an entry
        // served byte-identically by f+1 peers is the true delivery at
        // that position of the total order.
        let mut progressed = false;
        let next_fill = |want: u64| {
            let served: Vec<&FillEntry> = fills
                .values()
                .filter_map(|entries| entries.iter().find(|e| e.seq == want))
                .collect();
            agreed(&served, f)
        };
        while let Some(entry) = next_fill(applied_seq() + 1) {
            let id = MsgId {
                sender: entry.sender as ProcessId,
                rbid: entry.rbid,
            };
            // The bridge: the next fill entry is already sitting in the
            // live buffer. From here on the buffer is the complete
            // total-order suffix (live deliveries only start once the
            // resumed AB concludes rounds normally, after which no round
            // is skipped), so switch to it and stop filling.
            if buffered.contains(&id) {
                return Ok(());
            }
            let d = AbDelivery {
                id,
                payload: entry.payload.clone(),
            };
            apply_ready(node, shared, Some(rec), apply, &[d]);
            // Keep the FIFO's view of the sender aligned with what the
            // fill stream applied (fills bypass the FIFO).
            fifo.reset_sender(id.sender, id.rbid + 1);
            progressed = true;
        }
        fetch_missing_batches(node, &peers, f, live)?;
        if progressed {
            idle = 0;
        } else {
            idle += 1;
            if idle >= IDLE_PROBE_ROUNDS {
                idle = 0;
                // Force the stream forward so a delivery we hold live
                // also lands in peers' fill logs.
                node.atomic_broadcast(frame(TAG_MARKER, &[]))?;
            }
        }
    }
}

/// The rejoin driver: Syncing → CatchingUp → Live.
///
/// Returns the FIFO state to continue as the live applier; on `Err` the
/// caller runs the one abort path.
fn run_rejoin<S, F>(
    node: &Node,
    shared: &Shared<S>,
    rec: &Recovery<S>,
    stale: Option<Bytes>,
    apply: &mut F,
) -> Result<FifoOrder, Aborted>
where
    F: FnMut(&mut S, ProcessId, &[u8]),
{
    let me = node.id();
    let n = node.group_size();
    let f = (n - 1) / 3;
    let m = node.metrics();
    let core = &rec.core;
    m.recovery_phase.set(1);
    m.flight_record(FlightKind::Recovery, me as u32, milestones::SYNCING, 0);
    m.span_open("recover:sync", Layer::Node);
    let peers: Vec<ProcessId> = (0..n).filter(|&p| p != me).collect();
    // Every a-delivery the transfer rounds pass over, in order. None
    // arrives before the resume below: until then the AB session is held.
    let mut live = Vec::new();

    let Synced { snapshot, hints } = sync_manifests(node, &peers, f, &mut live)?;
    // Genesis rejoin (no peer has snapshotted yet) starts from zero.
    let mut snap_next = vec![0; n];
    if let Some((manifest, servers)) = snapshot {
        let chunk_size = core.cfg.chunk_size;
        let buf = fetch_snapshot(
            node,
            chunk_size,
            &manifest,
            &servers,
            stale.as_ref(),
            &mut live,
        )?;
        // f+1 byte-identical manifests include one from a correct
        // replica, and every chunk verified against that root, so the
        // assembled bytes are a correct replica's snapshot encoding.
        let snap = Snapshot::from_bytes(&buf).map_err(|_| Aborted)?;
        let mut reader = Reader::new(&snap.state);
        let decoded = (rec.decode)(&mut reader).map_err(|_| Aborted)?;
        // The rotation coordinator rides after the application state in
        // the same snapshot encoding.
        let rotation = RotationState::decode(&mut reader).map_err(|_| Aborted)?;
        *unpoison(shared.state.lock()) = decoded;
        snap_next.clone_from(&snap.next);
        snap_next.resize(n, 0);
        {
            let mut c = unpoison(core.inner.lock());
            c.applied_seq = snap.seq;
            c.applied_next.clone_from(&snap_next);
            c.log.clear();
            c.snaps = vec![SnapshotBundle::build(&snap, chunk_size)];
            c.rotation = rotation;
        }
        // Seal outbound frames under the epoch the group had at the
        // snapshot boundary (catch-up replays any later advance). The
        // transport also fast-forwards on verified inbound traffic, so
        // this is a shortcut, not a correctness requirement.
        node.set_key_epoch(rotation.epoch);
    }
    let mut fifo = FifoOrder::from_watermarks(n, &snap_next);

    // --- Resume the atomic-broadcast cursor and catch up ---
    let profile = node
        .with_stack(|stack, _| stack.profile())
        .map_err(|_| Aborted)?;
    let cursor = select_cursor(me, n, f, &hints, &snap_next, profile);
    {
        let mut applied = unpoison(shared.applied.lock());
        applied.fast_forward(cursor.next_rbid);
        m.rsm_applied_watermark.set(applied.watermark);
        shared.applied_cv.notify_all();
    }
    node.with_stack(move |stack, out| out.extend(stack.ab_resume(0, &cursor)))?;
    m.span_close("recover:sync");
    m.recovery_phase.set(2);
    m.flight_record(
        FlightKind::Recovery,
        me as u32,
        milestones::CATCHING_UP,
        unpoison(core.inner.lock()).applied_seq,
    );
    m.span_open("recover:catchup", Layer::Node);
    // Announce the resume: every replica's FIFO restarts our rbid
    // sequence at this marker, and — once it lands in a peer's fill log
    // while also sitting in our live buffer — it gives the catch-up loop
    // a guaranteed bridge point even on an otherwise idle stream.
    node.atomic_broadcast(frame(TAG_REJOIN, &[]))?;
    catch_up(node, shared, rec, apply, &mut fifo, &mut live)?;

    // --- Switch to the live buffer ---
    // Entries up to the bridge point are duplicates of what the fill
    // stream applied; the FIFO's per-sender watermark drops them.
    let ready: Vec<AbDelivery> = live
        .into_iter()
        .flat_map(|d| push_with_reset(&mut fifo, d))
        .collect();
    apply_ready(node, shared, Some(rec), apply, &ready);
    let (live_seq, rotation) = {
        let c = unpoison(core.inner.lock());
        (c.applied_seq, c.rotation)
    };
    m.span_close("recover:catchup");
    m.recovery_phase.set(0);
    m.recovery_completed_total.inc();
    m.flight_record(FlightKind::Recovery, me as u32, milestones::LIVE, live_seq);
    // If this rejoin *is* the open rotation slot, close it: the ordered
    // WipeComplete advances the cursor on every replica and clears our
    // pre-wipe suspicion rows. (A reactive rejoin — no slot, or someone
    // else's — announces nothing.)
    if let Some((victim, epoch)) = rotation.active {
        if victim == me as u32 {
            let cmd = RecoveryCommand::WipeComplete { victim, epoch };
            let _ = node.atomic_broadcast(frame(TAG_RECOVERY, &cmd.to_bytes()));
        }
    }
    Ok(fifo)
}

impl<S: SnapshotState + Send + 'static> Replica<S> {
    /// Like [`Replica::new`], but with the recovery pipeline active: the
    /// replica snapshots its state at every `cfg.snapshot_every` stream
    /// boundary (producing a digest comparable across replicas), retains
    /// the last two snapshot bundles plus the post-snapshot delivery
    /// log, and serves the pull-based state-transfer protocol to
    /// rejoining peers.
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryConfigError`] when `cfg` contains a zero
    /// field (a zero `snapshot_every` would divide by zero at every
    /// stream boundary; zero `chunk_size` / `fill_batch` would wedge
    /// state transfer) — rejected here, before any thread spawns.
    pub fn with_recovery(
        node: Node,
        initial: S,
        cfg: RecoveryConfig,
        apply: impl FnMut(&mut S, ProcessId, &[u8]) + Send + 'static,
    ) -> Result<Self, RecoveryConfigError> {
        Self::spawn_recovering(node, initial, cfg, None, false, apply)
    }

    /// Rebuilds a wiped replica from its peers: fetches snapshot
    /// manifests from `2f+1` peers, accepts one only at `f+1` matching
    /// digests, downloads the chunks that differ from `stale` (an
    /// optional previously-retained snapshot encoding whose unchanged
    /// Merkle subtrees are reused instead of re-downloaded) with
    /// per-chunk proof verification, then replays the delivery log from
    /// the snapshot watermark and hands over to live deliveries without
    /// applying anything twice. The `node` must come from
    /// [`Node::rejoin`] (its atomic broadcast starts held).
    ///
    /// # Errors
    ///
    /// As [`Replica::with_recovery`]: a zero field in `cfg` is rejected
    /// before any thread spawns.
    pub fn rejoin(
        node: Node,
        initial: S,
        cfg: RecoveryConfig,
        stale: Option<Bytes>,
        apply: impl FnMut(&mut S, ProcessId, &[u8]) + Send + 'static,
    ) -> Result<Self, RecoveryConfigError> {
        Self::spawn_recovering(node, initial, cfg, stale, true, apply)
    }

    fn spawn_recovering(
        node: Node,
        initial: S,
        cfg: RecoveryConfig,
        stale: Option<Bytes>,
        rejoining: bool,
        apply: impl FnMut(&mut S, ProcessId, &[u8]) + Send + 'static,
    ) -> Result<Self, RecoveryConfigError> {
        cfg.validate()?;
        let recovery = Recovery {
            core: RecoveryCore::new(cfg, node.group_size()),
            encode: S::encode_snapshot,
            decode: S::decode_snapshot,
        };
        Ok(Self::spawn(
            node,
            initial,
            Some(recovery),
            stale,
            rejoining,
            apply,
        ))
    }

    /// The latest local snapshot digest as `(seq, merkle_root)` — equal
    /// across correct replicas at equal `seq`.
    pub fn snapshot_digest(&self) -> Option<(u64, Hash)> {
        let core = self.recovery.as_ref()?;
        let inner = unpoison(core.inner.lock());
        inner
            .snaps
            .last()
            .map(|b| (b.manifest.seq, b.manifest.root))
    }

    /// The encoded bytes of the latest local snapshot, if any. A
    /// wiped-but-not-erased replica feeds these back into
    /// [`Replica::rejoin`] as the `stale` image so Merkle anti-entropy
    /// can reuse unchanged chunks instead of re-downloading them.
    pub fn latest_snapshot_bytes(&self) -> Option<Bytes> {
        let core = self.recovery.as_ref()?;
        let inner = unpoison(core.inner.lock());
        inner.snaps.last().map(|b| b.bytes.clone())
    }

    /// The replicated rotation-coordinator state as of the last applied
    /// command (`None` on replicas without the recovery pipeline).
    pub fn rotation_state(&self) -> Option<RotationState> {
        self.recovery
            .as_ref()
            .map(|c| unpoison(c.inner.lock()).rotation)
    }

    /// Arms the proactive-recovery rotation driver (see
    /// [`crate::recovery::scheduler`]), which the applier thread steps:
    ///
    /// * proposes this replica's own wipe slot (via an ordered
    ///   `ScheduleWipe`) whenever the rotation cursor points at it and
    ///   `cfg.period` has elapsed since the last slot closed;
    /// * reacts to its slot opening — calling `on_wipe(epoch)` so the
    ///   embedding runtime tears this replica down and rejoins it (the
    ///   rejoin pipeline announces `WipeComplete` on reaching Live), or
    ///   deferring with an ordered `DeferWipe` when [`Node::is_stalled`]
    ///   or accumulated suspicion evidence says the group is already
    ///   degraded;
    /// * clears any peer's slot stuck active past `cfg.abort_after`.
    ///
    /// `on_wipe` must not block and must not drop the replica from
    /// inside the callback (signal the owning thread instead): it runs on
    /// the applier thread, which `Drop` joins. No-op on replicas without
    /// the recovery pipeline, and at most one driver per replica.
    pub fn start_rotation(&self, cfg: RotationConfig, on_wipe: impl Fn(u64) + Send + 'static) {
        let Some(core) = &self.recovery else {
            return;
        };
        let mut slot = unpoison(self.shared.rotation.lock());
        if slot.is_none() {
            let open = unpoison(core.inner.lock()).rotation.active;
            let (me, n) = (self.id() as u32, self.node.group_size());
            *slot = Some(RotationDriver::new(
                cfg,
                Box::new(on_wipe),
                me,
                n,
                Instant::now(),
                open,
            ));
        }
    }
}

/// Steps the rotation driver, if one is armed and its check is due, and
/// a-broadcasts the command it decides on.
fn step_rotation<S>(node: &Node, shared: &Shared<S>, core: &RecoveryCore) {
    let now = Instant::now();
    let mut slot = unpoison(shared.rotation.lock());
    let Some(driver) = slot.as_mut().filter(|d| d.next_check <= now) else {
        return;
    };
    let (rotation, has_snapshot) = {
        let c = unpoison(core.inner.lock());
        (c.rotation, !c.snaps.is_empty())
    };
    let seen = Observed {
        rotation,
        has_snapshot,
        stalled: node.is_stalled(),
        suspicion: node.metrics().suspicions().iter().map(|s| s.total()).sum(),
    };
    if let Some(cmd) = driver.step(now, seen) {
        let _ = node.atomic_broadcast(frame(TAG_RECOVERY, &cmd.to_bytes()));
    }
}

/// What the rotation driver reads at a step.
#[derive(Debug, Clone, Copy)]
struct Observed {
    /// The replicated coordinator state as of the last applied command.
    rotation: RotationState,
    /// Whether this replica holds a snapshot a rejoin could restore.
    has_snapshot: bool,
    /// [`Node::is_stalled`].
    stalled: bool,
    /// Suspicion evidence against all peers, summed.
    suspicion: u64,
}

/// The liveness side of proactive rotation (see
/// [`Replica::start_rotation`]): local bookkeeping the applier thread
/// steps. Its timers are local wall-clock; the *safety* of the protocol
/// never depends on them (any command they mistime is rejected
/// deterministically everywhere by [`RotationState::apply`]).
struct RotationDriver {
    cfg: RotationConfig,
    on_wipe: Box<dyn Fn(u64) + Send>,
    me: u32,
    n: usize,
    /// The applier steps the driver every `poll`, next at `next_check`.
    poll: Duration,
    next_check: Instant,
    /// Since when no slot has closed and this driver has proposed none.
    quiet_since: Instant,
    /// The open slot and when this driver first saw it open.
    slot_seen: Option<((u32, u64), Instant)>,
    /// The slot this driver last acted on.
    acted: Option<(u32, u64)>,
    /// `(rounds_completed, deferrals)` at the last step.
    closed: (u64, u64),
}

impl RotationDriver {
    /// The driver of replica `me` of `n`, armed at `now` while `open` is
    /// the open slot, if any. That slot is never this driver's grant: on
    /// a rejoined replica it is its own just-completed recovery (the
    /// rejoin pipeline's WipeComplete is still in flight, and reacting to
    /// it again would wipe the replica in a loop), and a foreign slot is
    /// the established drivers' stuck-slot duty.
    fn new(
        cfg: RotationConfig,
        on_wipe: Box<dyn Fn(u64) + Send>,
        me: u32,
        n: usize,
        now: Instant,
        open: Option<(u32, u64)>,
    ) -> Self {
        let poll = (cfg.period / 8).clamp(Duration::from_millis(10), XFER_SERVER_IDLE);
        RotationDriver {
            cfg,
            on_wipe,
            me,
            n,
            poll,
            next_check: now + poll,
            quiet_since: now,
            slot_seen: None,
            acted: open,
            closed: (0, 0),
        }
    }

    /// One decision at `now`: the command to a-broadcast, if any. When
    /// this replica's own slot opens and the health gate lets it go
    /// down, calls `on_wipe` instead.
    fn step(&mut self, now: Instant, seen: Observed) -> Option<RecoveryCommand> {
        self.next_check = now + self.poll;
        let rot = seen.rotation;
        let progress = (rot.rounds_completed, rot.deferrals);
        if progress != self.closed {
            self.closed = progress;
            self.quiet_since = now;
        }
        let Some(active) = rot.active else {
            self.slot_seen = None;
            // Never schedule the own wipe before the group has a snapshot
            // to restore from: a genesis rejoin races the survivors' log
            // pruning under load and can wedge. Correct replicas snapshot
            // at the same stream boundaries, so the local bundle is a
            // sound proxy for the group's (skew is absorbed by the Syncing
            // re-poll).
            let due = seen.has_snapshot
                && rot.expected_victim(self.n) == self.me
                && now.duration_since(self.quiet_since) >= self.cfg.period;
            if !due {
                return None;
            }
            // Rate-limit re-proposals: if this one is lost or rejected,
            // wait another full period.
            self.quiet_since = now;
            return Some(RecoveryCommand::ScheduleWipe {
                victim: self.me,
                epoch: rot.epoch + 1,
            });
        };
        let since = match self.slot_seen {
            Some((slot, t)) if slot == active => t,
            _ => {
                self.slot_seen = Some((active, now));
                now
            }
        };
        if self.acted == Some(active) {
            return None;
        }
        let (victim, epoch) = active;
        let reason = if victim == self.me {
            // Health gate: rotation must never *voluntarily* push the
            // group past f unavailable. (The epoch already advanced at
            // schedule time, so deferring keeps the key refresh.)
            if seen.stalled {
                DeferReason::Stalled
            } else if seen.suspicion >= self.cfg.suspicion_defer_threshold {
                DeferReason::Suspicion
            } else {
                self.acted = Some(active);
                (self.on_wipe)(epoch);
                return None;
            }
        } else if now.duration_since(since) >= self.cfg.abort_after {
            DeferReason::StuckSlot
        } else {
            return None;
        };
        self.acted = Some(active);
        Some(RecoveryCommand::DeferWipe {
            victim,
            epoch,
            reason,
        })
    }
}

fn frame(tag: u8, body: &[u8]) -> Bytes {
    let mut b = BytesMut::with_capacity(1 + body.len());
    b.put_u8(tag);
    b.put_slice(body);
    b.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SessionConfig;

    fn counters(n: usize) -> Vec<Replica<i64>> {
        let nodes = Node::cluster(SessionConfig::new(n).unwrap()).unwrap();
        nodes
            .into_iter()
            .map(|node| {
                Replica::new(node, 0i64, |state, _sender, cmd| match cmd {
                    b"incr" => *state += 1,
                    b"decr" => *state -= 1,
                    _ => {}
                })
            })
            .collect()
    }

    #[test]
    fn replicas_converge() {
        let replicas: Vec<_> = counters(4).into_iter().map(std::sync::Arc::new).collect();
        let handles: Vec<_> = replicas
            .iter()
            .map(|r| {
                let r = std::sync::Arc::clone(r);
                std::thread::spawn(move || {
                    for _ in 0..3 {
                        r.submit(Bytes::from_static(b"incr")).unwrap();
                    }
                    if r.id() == 0 {
                        r.submit(Bytes::from_static(b"decr")).unwrap();
                    }
                    // Sync on our last command, then a barrier.
                    r.submit_sync(Bytes::from_static(b"incr")).unwrap();
                    r.barrier().unwrap();
                })
            })
            .collect();
        // Every submitter must finish before any replica shuts down:
        // liveness only tolerates f crashes, so a replica that stops as
        // soon as *it* sees the final value can strand a straggler whose
        // last batch has not been ordered yet.
        for h in handles {
            h.join().unwrap();
        }
        // All barriers passed, so every command is ordered somewhere;
        // with the whole group alive each replica must apply the full
        // prefix. 4 replicas × 4 incr − 1 decr = 15.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        for r in &replicas {
            loop {
                let v = r.read(|s| *s);
                if v == 15 {
                    break;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "replica {} stuck at {v}, want 15",
                    r.id()
                );
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        }
        for r in &replicas {
            r.shutdown();
        }
    }

    #[test]
    fn submit_sync_observes_own_command() {
        let replicas: Vec<_> = counters(4).into_iter().map(std::sync::Arc::new).collect();
        let handles: Vec<_> = replicas
            .iter()
            .map(|r| {
                let r = std::sync::Arc::clone(r);
                std::thread::spawn(move || {
                    r.submit_sync(Bytes::from_static(b"incr")).unwrap();
                    r.read(|s| *s)
                })
            })
            .collect();
        // Join before any shutdown — see replicas_converge.
        let values: Vec<i64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for v in values {
            // At least our own increment must be visible.
            assert!(v >= 1);
        }
        for r in &replicas {
            r.shutdown();
        }
    }

    #[test]
    fn submit_sync_surfaces_shutdown_instead_of_silent_success() {
        use crate::node::{Node, NodeError};
        let mut nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        // Keep only replica 0 alive: with 3 of 4 processes gone, atomic
        // broadcast can never gather a quorum, so the command never
        // applies and the waiter blocks until shutdown.
        let node0 = nodes.remove(0);
        drop(nodes);
        let r = std::sync::Arc::new(Replica::new(node0, 0i64, |s: &mut i64, _, _| *s += 1));
        let waiter = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || r.submit_sync(Bytes::from_static(b"incr")))
        };
        std::thread::sleep(std::time::Duration::from_millis(100));
        r.shutdown();
        let got = waiter.join().unwrap();
        assert_eq!(
            got.unwrap_err(),
            NodeError::Disconnected,
            "an unapplied command must fail, not silently succeed"
        );
    }

    #[test]
    fn own_applied_compaction() {
        let mut a = OwnApplied::default();
        for rbid in [1u64, 0, 3, 2] {
            a.insert(rbid);
        }
        assert!(a.contains(3));
        assert!(!a.contains(4));
        assert_eq!(a.watermark, 4);
        assert!(a.sparse.is_empty());
    }

    #[test]
    fn own_applied_fast_forward_boundary() {
        let mut a = OwnApplied::default();
        a.insert(0);
        a.insert(5); // sparse
        a.fast_forward(1000);
        // Everything below the rejoin base reads as applied/covered…
        assert_eq!(a.watermark, 1000);
        assert!(a.contains(999));
        assert!(!a.contains(1000));
        assert!(a.sparse.is_empty());
        // …and post-resume rbids compact contiguously from the base.
        a.insert(1000);
        assert_eq!(a.watermark, 1001);
        // A stale fast-forward never regresses the watermark.
        a.fast_forward(10);
        assert_eq!(a.watermark, 1001);
    }

    fn small_recovery_cfg() -> RecoveryConfig {
        RecoveryConfig {
            snapshot_every: 8,
            chunk_size: 64,
            fill_batch: 64,
        }
    }

    fn incr_counter(s: &mut u64, _from: ProcessId, cmd: &[u8]) {
        if cmd == b"incr" {
            *s += 1;
        }
    }

    /// One applier loop serves both kinds of replica: fed the same command
    /// sequence, a plain group and a recovering group end in the same
    /// state having applied the same number of deliveries — and a plain
    /// replica steps over `TAG_RECOVERY` payloads (well-formed or not)
    /// without acting on them.
    #[test]
    fn plain_and_recovering_groups_apply_the_same_sequence() {
        let schedule = RecoveryCommand::ScheduleWipe {
            victim: 0,
            epoch: 1,
        };
        for recovering in [false, true] {
            let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
            let replicas: Vec<Replica<u64>> = nodes
                .into_iter()
                .map(|n| match recovering {
                    true => {
                        Replica::with_recovery(n, 0, small_recovery_cfg(), incr_counter).unwrap()
                    }
                    false => Replica::new(n, 0, incr_counter),
                })
                .collect();
            let r0 = &replicas[0];
            let ordered = |payload: Bytes| {
                let id = r0.node().atomic_broadcast(payload).unwrap();
                r0.wait_applied(id.rbid).unwrap();
            };
            for _ in 0..10 {
                r0.submit_sync(Bytes::from_static(b"incr")).unwrap();
            }
            ordered(frame(TAG_RECOVERY, &schedule.to_bytes()));
            ordered(frame(TAG_RECOVERY, b"\xffgarbage"));
            for _ in 0..5 {
                r0.submit_sync(Bytes::from_static(b"incr")).unwrap();
            }
            for r in &replicas {
                r.barrier().unwrap();
            }
            // 15 commands + 2 rotation frames + one marker per replica.
            let deadline = Instant::now() + Duration::from_secs(30);
            for r in &replicas {
                let applied = &r.node().metrics().rsm_applied_total;
                while applied.get() < 21 {
                    assert!(Instant::now() < deadline, "replica {} stuck", r.id());
                    std::thread::sleep(Duration::from_millis(5));
                }
                assert_eq!(applied.get(), 21, "recovering={recovering}");
                assert_eq!(r.read(|s| *s), 15, "recovering={recovering}");
                // Only the recovering group runs the rotation coordinator
                // (and switched its transport keys with the open slot).
                let rotation = r.rotation_state().map(|rot| (rot.active, rot.epoch));
                let expected = recovering.then_some((Some((0, 1)), 1));
                assert_eq!(rotation, expected);
                assert_eq!(r.node().key_epoch(), u64::from(recovering));
            }
            for r in &replicas {
                r.shutdown();
            }
        }
    }

    /// A 4-node session with no replicas on it: node 0 runs transfer
    /// rounds, `script(p, request)` is what peer `p` answers each request
    /// with (raw payloads, so it can also send garbage).
    fn scripted_round<R: Send>(
        script: impl Fn(ProcessId, &Node, XferMessage) -> Vec<Bytes> + Sync,
        round: impl FnOnce(&Node) -> R + Send,
    ) -> R {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        let result = std::thread::scope(|scope| {
            for peer in &nodes[1..] {
                let (nodes, script) = (&nodes, &script);
                scope.spawn(move || {
                    while let Ok(output) = peer.recv_output(Some(Duration::from_secs(30))) {
                        let Output::Xfer { from, payload } = output else {
                            continue;
                        };
                        let request = XferMessage::from_bytes(&payload).unwrap();
                        for reply in script(peer.id(), &nodes[0], request) {
                            peer.send_xfer(from, reply).unwrap();
                        }
                    }
                });
            }
            let result = round(&nodes[0]);
            // Ends the responders: their receive fails once shut down.
            for n in &nodes {
                n.shutdown();
            }
            result
        });
        result
    }

    fn manifest_resp() -> Bytes {
        XferMessage::ManifestResp {
            manifest: None,
            hints: PeerHints::default(),
        }
        .to_bytes()
    }

    /// Far longer than any test should take: a round that runs it out
    /// did not stop when it should have.
    const LONG_WINDOW: Duration = Duration::from_secs(20);

    #[test]
    fn xfer_round_stops_at_quorum_and_skips_garbage() {
        // Peer 3 never answers; peers 1 and 2 lead with an undecodable
        // payload and a reply of the wrong kind.
        let script = |p: ProcessId, _: &Node, _| match p {
            3 => vec![],
            _ => vec![
                Bytes::from_static(b"\xde\xad\xbe\xef"),
                XferMessage::FillResp { entries: vec![] }.to_bytes(),
                manifest_resp(),
            ],
        };
        let started = Instant::now();
        let seen = scripted_round(script, |node| {
            let mut seen = Vec::new();
            let request = XferMessage::ManifestReq;
            xfer_round(
                node,
                &[1, 2, 3],
                &request,
                LONG_WINDOW,
                &mut Vec::new(),
                |from, msg| {
                    assert!(from == 1 || from == 2);
                    seen.push(matches!(msg, XferMessage::ManifestResp { .. }));
                    seen.iter().filter(|&&wanted| wanted).count() == 2
                },
            )
            .unwrap();
            seen
        });
        // The garbage never reached the handler; the wrong-kind replies
        // did, without ending the round; the second wanted reply did.
        assert_eq!(
            seen.iter().filter(|&&wanted| !wanted).count(),
            2,
            "{seen:?}"
        );
        assert_eq!(seen.last(), Some(&true));
        assert_eq!(seen.len(), 4);
        assert!(started.elapsed() < LONG_WINDOW / 2, "ran out the window");
    }

    #[test]
    fn xfer_round_reports_shutdown_mid_round() {
        // The responder shuts the requester down once the request has
        // provably arrived, i.e. while the round is collecting.
        let script = |_: ProcessId, requester: &Node, _| {
            requester.shutdown();
            vec![]
        };
        let outcome = scripted_round(script, |node| {
            xfer_round(
                node,
                &[1],
                &XferMessage::ManifestReq,
                LONG_WINDOW,
                &mut Vec::new(),
                |_, _| false,
            )
        });
        assert_eq!(outcome, Err(NodeError::Disconnected));
    }

    /// A round keeps the a-deliveries it passes over on the feed — the
    /// catch-up's live buffer — instead of dropping them.
    #[test]
    fn xfer_round_keeps_the_deliveries_it_passes_over() {
        let script = |_: ProcessId, _: &Node, _| vec![manifest_resp()];
        let (live, id) = scripted_round(script, |node| {
            let id = node.atomic_broadcast(Bytes::from_static(b"live")).unwrap();
            // Delivered, so queued on the feed ahead of any reply.
            let deadline = Instant::now() + LONG_WINDOW;
            while node.metrics().ab_delivered.get() == 0 {
                assert!(Instant::now() < deadline, "never delivered");
                std::thread::sleep(Duration::from_millis(5));
            }
            let mut live = Vec::new();
            let request = XferMessage::ManifestReq;
            xfer_round(node, &[1], &request, LONG_WINDOW, &mut live, |_, msg| {
                matches!(msg, XferMessage::ManifestResp { .. })
            })
            .unwrap();
            (live, id)
        });
        assert_eq!(live.len(), 1, "{live:?}");
        assert_eq!(live[0].id, id);
    }

    /// A rotation config and a driver for replica 1 of 4 armed at the
    /// returned instant, with `open` already open; the wipe callback
    /// reports its epoch on the returned channel.
    fn armed_driver(
        open: Option<(u32, u64)>,
    ) -> (RotationDriver, Instant, std::sync::mpsc::Receiver<u64>) {
        let cfg = RotationConfig {
            period: Duration::from_secs(1),
            abort_after: Duration::from_secs(10),
            suspicion_defer_threshold: 5,
        };
        let (wiped, wipes) = std::sync::mpsc::channel();
        let on_wipe = Box::new(move |epoch: u64| wiped.send(epoch).unwrap());
        let t0 = Instant::now();
        (RotationDriver::new(cfg, on_wipe, 1, 4, t0, open), t0, wipes)
    }

    /// A healthy replica holding a snapshot, under `rotation`.
    fn healthy(rotation: RotationState) -> Observed {
        Observed {
            rotation,
            has_snapshot: true,
            stalled: false,
            suspicion: 0,
        }
    }

    /// The coordinator with `victim`'s slot open at `epoch`.
    fn slot_open(victim: u32, epoch: u64) -> RotationState {
        RotationState {
            epoch,
            active: Some((victim, epoch)),
            next_idx: u64::from(victim),
            ..RotationState::default()
        }
    }

    fn defer(victim: u32, epoch: u64, reason: DeferReason) -> Option<RecoveryCommand> {
        Some(RecoveryCommand::DeferWipe {
            victim,
            epoch,
            reason,
        })
    }

    const SEC: Duration = Duration::from_secs(1);

    #[test]
    fn driver_never_acts_on_a_slot_open_when_it_armed() {
        // Its own (a rejoined replica's just-completed wipe)…
        let (mut driver, t0, wipes) = armed_driver(Some((1, 3)));
        for k in 1..100 {
            assert_eq!(driver.step(t0 + k * SEC, healthy(slot_open(1, 3))), None);
        }
        assert!(wipes.try_recv().is_err(), "wiped on an old grant");
        // …but the next one is its grant.
        let next = RotationState {
            rounds_completed: 1,
            ..slot_open(1, 4)
        };
        assert_eq!(driver.step(t0 + 100 * SEC, healthy(next)), None);
        assert_eq!(wipes.try_recv(), Ok(4));
        // A foreign one, however long it stays open.
        let (mut driver, t0, _) = armed_driver(Some((2, 3)));
        for k in 1..100 {
            assert_eq!(driver.step(t0 + k * SEC, healthy(slot_open(2, 3))), None);
        }
    }

    #[test]
    fn driver_schedules_nothing_before_a_local_snapshot_exists() {
        let (mut driver, t0, _) = armed_driver(None);
        // Replica 1's turn, the period long over, but no snapshot yet.
        let turn = RotationState {
            next_idx: 1,
            ..RotationState::default()
        };
        let bare = Observed {
            has_snapshot: false,
            ..healthy(turn)
        };
        for k in 1..10 {
            assert_eq!(driver.step(t0 + k * SEC, bare), None);
        }
        let schedule = RecoveryCommand::ScheduleWipe {
            victim: 1,
            epoch: 1,
        };
        assert_eq!(driver.step(t0 + 10 * SEC, healthy(turn)), Some(schedule));
        // Not again until another period has passed.
        assert_eq!(driver.step(t0 + 10 * SEC + SEC / 2, healthy(turn)), None);
        assert_eq!(driver.step(t0 + 11 * SEC, healthy(turn)), Some(schedule));
    }

    #[test]
    fn driver_defers_a_stuck_foreign_slot() {
        let (mut driver, t0, wipes) = armed_driver(None);
        let stuck = healthy(slot_open(2, 1));
        // First seen one second in; stuck once `abort_after` has passed.
        assert_eq!(driver.step(t0 + SEC, stuck), None);
        assert_eq!(driver.step(t0 + 10 * SEC, stuck), None);
        let stuck_slot = defer(2, 1, DeferReason::StuckSlot);
        assert_eq!(driver.step(t0 + 11 * SEC, stuck), stuck_slot);
        // Once.
        assert_eq!(driver.step(t0 + 100 * SEC, stuck), None);
        assert!(wipes.try_recv().is_err());
    }

    #[test]
    fn driver_defers_its_own_slot_while_stalled() {
        let (mut driver, t0, wipes) = armed_driver(None);
        let stalled = Observed {
            stalled: true,
            ..healthy(slot_open(1, 1))
        };
        let deferred = defer(1, 1, DeferReason::Stalled);
        assert_eq!(driver.step(t0 + SEC, stalled), deferred);
        assert_eq!(driver.step(t0 + 2 * SEC, healthy(slot_open(1, 1))), None);
        assert!(wipes.try_recv().is_err(), "wiped a stalled replica");
    }

    /// Correct replicas must cut byte-identical snapshots at identical
    /// stream boundaries — the digest is what a rejoiner votes on.
    #[test]
    fn recovery_replicas_snapshot_identically() {
        let config = SessionConfig::new(4).unwrap();
        let nodes = Node::cluster(config).unwrap();
        let replicas: Vec<_> = nodes
            .into_iter()
            .map(|n| Replica::with_recovery(n, 0u64, small_recovery_cfg(), incr_counter).unwrap())
            .collect();
        for _ in 0..20 {
            replicas[0]
                .submit_sync(Bytes::from_static(b"incr"))
                .unwrap();
        }
        for r in &replicas {
            r.barrier().unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let digests: Vec<_> = replicas.iter().map(Replica::snapshot_digest).collect();
            if digests.iter().all(|d| d.is_some() && *d == digests[0]) {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "snapshot digests never converged: {digests:?}"
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(replicas[0].node().metrics().recovery_snapshots_total.get() >= 1);
        for r in &replicas {
            r.shutdown();
        }
    }

    /// The tentpole happy path at the rsm layer: crash + wipe a replica
    /// under traffic, rejoin it through snapshot transfer + catch-up, and
    /// require exact state convergence (any double-apply would overshoot
    /// the counter).
    #[test]
    fn rejoin_via_state_transfer() {
        let config = SessionConfig::new(4).unwrap();
        let (nodes, hub) = Node::cluster_with_hub(&config).unwrap();
        let mut replicas: Vec<_> = nodes
            .into_iter()
            .map(|n| Replica::with_recovery(n, 0u64, small_recovery_cfg(), incr_counter).unwrap())
            .collect();
        for _ in 0..20 {
            replicas[1]
                .submit_sync(Bytes::from_static(b"incr"))
                .unwrap();
        }
        // Fail-stop and wipe replica 3.
        hub.crash(3);
        let victim = replicas.pop().unwrap();
        drop(victim);
        // The survivors keep ordering (n - f = 3 alive).
        for _ in 0..20 {
            replicas[0]
                .submit_sync(Bytes::from_static(b"incr"))
                .unwrap();
        }
        // Rejoin from nothing but the session config.
        let node = Node::rejoin(&config, &hub, 3).unwrap();
        let m = node.metrics().clone();
        let rejoined =
            Replica::rejoin(node, 0u64, small_recovery_cfg(), None, incr_counter).unwrap();
        // Keep the stream moving while the transfer runs.
        for _ in 0..10 {
            replicas[0]
                .submit_sync(Bytes::from_static(b"incr"))
                .unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(60);
        loop {
            if m.recovery_completed_total.get() == 1 && rejoined.read(|s| *s) == 50 {
                break;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "rejoin stuck: completed={} counter={} phase={}",
                m.recovery_completed_total.get(),
                rejoined.read(|s| *s),
                m.recovery_phase.get()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(m.recovery_phase.get(), 0, "back to Live");
        let recovery = m.flight().events();
        for milestone in [milestones::AB_RESUMED, milestones::LIVE] {
            assert!(
                recovery
                    .iter()
                    .any(|e| e.kind == FlightKind::Recovery && e.a == milestone),
                "milestone {milestone} recorded"
            );
        }
        // Exactly once: the counter landed exactly on the submitted
        // total on every replica, including the rejoined one.
        for r in replicas.iter().chain([&rejoined]) {
            r.barrier().unwrap();
        }
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let values: Vec<u64> = replicas
                .iter()
                .chain([&rejoined])
                .map(|r| r.read(|s| *s))
                .collect();
            if values.iter().all(|&v| v == 50) {
                // Digest convergence: the rejoined replica's next
                // snapshot boundary must hash identically to a peer's.
                let d0 = replicas[0].snapshot_digest();
                let dr = rejoined.snapshot_digest();
                if d0.is_some() && d0 == dr {
                    break;
                }
            }
            assert!(
                std::time::Instant::now() < deadline,
                "post-rejoin convergence failed: values={values:?} d0={:?} dr={:?}",
                replicas[0].snapshot_digest(),
                rejoined.snapshot_digest()
            );
            std::thread::sleep(Duration::from_millis(20));
        }
        for r in replicas.iter().chain([&rejoined]) {
            r.shutdown();
        }
    }

    /// Satellite: shutting a node down while its state transfer is still
    /// in flight must abort cleanly — the applier thread exits (Drop
    /// joins it; a wedge would hang the test), waiters unblock with an
    /// error, and the ABORTED milestone lands in the flight ring.
    #[test]
    fn rejoin_shutdown_mid_transfer_aborts_cleanly() {
        let config = SessionConfig::new(4).unwrap();
        let (mut nodes, hub) = Node::cluster_with_hub(&config).unwrap();
        // Wipe replica 3; peers 0..2 stay up but run *no* recovery
        // servers, so the rejoiner's manifest requests are never
        // answered and the driver stays in Syncing forever.
        let node3 = nodes.pop().unwrap();
        drop(node3);
        let node = Node::rejoin(&config, &hub, 3).unwrap();
        let m = node.metrics().clone();
        let rejoined = Replica::rejoin(
            node,
            0u64,
            small_recovery_cfg(),
            None,
            |_: &mut u64, _, _| {},
        )
        .unwrap();
        std::thread::sleep(Duration::from_millis(300));
        assert_eq!(m.recovery_phase.get(), 1, "still syncing");
        rejoined.shutdown();
        // A waiter blocked on the recovering replica must surface the
        // shutdown, not hang.
        assert_eq!(
            rejoined.wait_applied(u64::MAX).unwrap_err(),
            NodeError::Disconnected
        );
        drop(rejoined); // joins the applier thread
        assert!(
            m.flight()
                .events()
                .iter()
                .any(|e| e.kind == FlightKind::Recovery && e.a == milestones::ABORTED),
            "aborted transfer must leave an ABORTED milestone"
        );
        assert_eq!(m.recovery_phase.get(), 0);
        drop(nodes);
        drop(hub);
    }
}
