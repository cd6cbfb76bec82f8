//! Threaded blocking runtime — the Rust equivalent of the paper's C API
//! (§3.1).
//!
//! The original RITAS library runs the whole protocol stack in a single
//! thread, separate from the application thread, and offers blocking
//! service requests (`ritas_rb_bcast`, `ritas_ab_recv`, `ritas_bc`, …).
//! [`Node`] reproduces that shape: one stack thread per process drives a
//! [`Stack`] over a [`Transport`]; the application calls blocking methods
//! that mirror the C functions:
//!
//! | C API | [`Node`] method |
//! |---|---|
//! | `ritas_rb_bcast` / `ritas_rb_recv` | [`Node::reliable_broadcast`] / [`Node::rb_recv`] |
//! | `ritas_eb_bcast` / `ritas_eb_recv` | [`Node::echo_broadcast`] / [`Node::eb_recv`] |
//! | `ritas_ab_bcast` / `ritas_ab_recv` | [`Node::atomic_broadcast`] / [`Node::atomic_recv`] |
//! | `ritas_bc` | [`Node::binary_consensus`] |
//! | `ritas_mvc` | [`Node::multi_valued_consensus`] |
//! | `ritas_vc` | [`Node::vector_consensus`] |
//! | `ritas_destroy` | [`Node::shutdown`] |

use crate::ab::AbDelivery;
use crate::adversary::{rewrite_frame, Strategy};
use crate::bc::Profile;
use crate::config::{ConfigError, Group};
use crate::error::ProtocolError;
use crate::mvc::MvcValue;
use crate::stack::{InstanceKey, Output, Stack, StackConfig, StackStep};
use crate::step::Target;
use crate::vc::DecisionVector;
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::KeyTable;
use ritas_metrics::{unpoison, FlightKind, Metrics, MetricsSnapshot};
use ritas_transport::{
    AuthConfig, AuthenticatedTransport, Hub, LinkState, TcpChaosHandle, TcpConfig, TcpEndpoint,
    Transport, TransportError,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{Read, Write};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{
    channel, sync_channel, Receiver, RecvTimeoutError, Sender, SyncSender, TryRecvError,
};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How often the worker refreshes the `/state` introspection snapshot.
const STATE_REFRESH_NS: u64 = 200_000_000;

/// The longest the protocol thread waits for a frame with nothing due:
/// how stale the heartbeat, the link events and `/state` may get on an
/// idle node, how late a stall is counted, and how long a command waits
/// on a transport whose [`Transport::wake`] does nothing.
const IDLE_TICK: Duration = Duration::from_millis(50);

/// How long inbound frames sealed under the *previous* key epoch stay
/// acceptable after a proactive key rotation (see [`Node::set_key_epoch`]):
/// long enough to cover in-flight frames and queue residue, short enough
/// that exfiltrated old-epoch keys die quickly.
const EPOCH_GRACE: Duration = Duration::from_secs(5);

/// Errors surfaced by the blocking node API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeError {
    /// The stack thread has shut down.
    Disconnected,
    /// A protocol-level error (e.g. duplicate proposal tag).
    Protocol(ProtocolError),
    /// A timed receive expired.
    Timeout,
}

impl core::fmt::Display for NodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NodeError::Disconnected => write!(f, "node has shut down"),
            NodeError::Protocol(e) => write!(f, "protocol error: {e}"),
            NodeError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<ProtocolError> for NodeError {
    fn from(e: ProtocolError) -> Self {
        NodeError::Protocol(e)
    }
}

/// Configuration for a node session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    group: Group,
    /// Seed for the trusted key dealer.
    pub master_seed: u64,
    /// Serve a Prometheus text-format `/metrics` endpoint per node (each
    /// binds an ephemeral localhost port; see [`Node::metrics_addr`]).
    pub metrics_endpoint: bool,
    /// No-progress budget: when set, each node reads as stalled (in
    /// [`Node::is_stalled`], `/health`, the `node_stalls_total` counter
    /// and the flight recorder) whenever work is outstanding but nothing
    /// a-delivers within the budget.
    pub stall_budget: Option<Duration>,
    /// Stack configuration: the lean binary consensus
    /// ([`crate::bc::Profile::Lean`]) unless changed.
    pub stack: StackConfig,
}

impl SessionConfig {
    /// Creates a configuration for `n` processes running the lean binary
    /// consensus.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n < 4`.
    pub fn new(n: usize) -> Result<Self, ConfigError> {
        Ok(SessionConfig {
            group: Group::new(n)?,
            master_seed: 0x5249_5441_5321, // "RITAS!"
            metrics_endpoint: false,
            stall_budget: None,
            stack: StackConfig::default().with_profile(Profile::Lean),
        })
    }

    /// Sets the per-node no-progress budget (see
    /// [`SessionConfig::stall_budget`]).
    pub fn with_stall_budget(mut self, budget: Duration) -> Self {
        self.stall_budget = Some(budget);
        self
    }

    /// Enables the live Prometheus `/metrics` endpoint on every node of
    /// the session (ephemeral localhost ports; query each node's bound
    /// address via [`Node::metrics_addr`]).
    pub fn with_metrics_endpoint(mut self) -> Self {
        self.metrics_endpoint = true;
        self
    }

    /// Sets the key-dealer seed.
    pub fn with_master_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// The seed the service tier's per-client key dealer derives from —
    /// the client-facing sibling of the pairwise replica key table. Every
    /// replica of a session (and every client dealt keys out-of-band)
    /// derives the same per-client keys from this value.
    pub fn client_key_seed(&self) -> u64 {
        // Domain-separated from the replica master seed so client keys
        // and pairwise replica keys never share a derivation root.
        self.master_seed ^ 0xC11E_17DE_A1E5_EED5
    }

    /// The group this session runs with.
    pub fn group(&self) -> Group {
        self.group
    }
}

/// A closure shipped to the protocol thread: it answers its caller
/// itself; what it pushes on the step is dispatched like any other stack
/// output.
type StackFn = Box<dyn FnOnce(&mut Stack, &mut StackStep) + Send>;

enum Command {
    RbBroadcast(Bytes),
    EbBroadcast(Bytes),
    AbBroadcast(Bytes, SyncSender<crate::ab::MsgId>),
    BcPropose {
        tag: u64,
        value: bool,
        reply: SyncSender<Result<bool, ProtocolError>>,
    },
    MvcPropose {
        tag: u64,
        value: Bytes,
        reply: SyncSender<Result<MvcValue, ProtocolError>>,
    },
    VcPropose {
        tag: u64,
        value: Bytes,
        reply: SyncSender<Result<DecisionVector, ProtocolError>>,
    },
    /// Point-to-point state-transfer frame to one peer (no agreement
    /// instance involved).
    SendXfer(ProcessId, Bytes),
    /// The port into the protocol thread (see [`Node::with_stack`]).
    WithStack(StackFn),
}

/// What travels on the command queue. The protocol thread blocks in the
/// transport, not here: whoever queues an event calls [`Transport::wake`]
/// afterwards, and the thread drains the queue before every frame.
enum Event {
    Cmd(Command),
    Shutdown,
}

enum PendingReply {
    Bc(SyncSender<Result<bool, ProtocolError>>),
    Mvc(SyncSender<Result<MvcValue, ProtocolError>>),
    Vc(SyncSender<Result<DecisionVector, ProtocolError>>),
}

/// Liveness state shared between the worker loop and the `/health` +
/// `/state` endpoints. Everything is lock-free except the
/// worker-refreshed `/state` JSON, so the endpoints never block on (or
/// wait for) a wedged protocol thread — that is exactly the situation
/// they exist to diagnose.
struct HealthShared {
    /// Last worker-loop iteration, in epoch nanoseconds.
    heartbeat_ns: AtomicU64,
    /// Last a-delivery observed by the worker, in epoch nanoseconds.
    progress_ns: AtomicU64,
    /// When outstanding work was first observed (0 = queue idle).
    pending_since_ns: AtomicU64,
    /// No-progress budget in nanoseconds (0 = none).
    budget_ns: u64,
    /// Worker-refreshed `/state` introspection JSON.
    state_json: Mutex<String>,
}

impl HealthShared {
    fn new(budget: Option<Duration>) -> Self {
        HealthShared {
            heartbeat_ns: AtomicU64::new(0),
            progress_ns: AtomicU64::new(0),
            pending_since_ns: AtomicU64::new(0),
            budget_ns: budget.map_or(0, |b| b.as_nanos() as u64),
            state_json: Mutex::new(String::from("null")),
        }
    }

    /// How long work has been outstanding with nothing a-delivered, at
    /// epoch time `now`, when that exceeds the budget — the node is then
    /// stalled. Computed from atomics wherever it is read, so it reads
    /// true while the protocol thread itself is wedged.
    fn stalled_for(&self, now: u64) -> Option<u64> {
        let since = self.pending_since_ns.load(Ordering::Relaxed);
        if self.budget_ns == 0 || since == 0 {
            return None;
        }
        // Progress restarts the clock: a slow-but-moving queue is not a
        // stall.
        let anchor = since.max(self.progress_ns.load(Ordering::Relaxed));
        let idle = now.saturating_sub(anchor);
        (idle > self.budget_ns).then_some(idle)
    }
}

/// A handle to one process of a running session.
///
/// All methods are thread-safe to call from the owning application
/// thread; the protocol stack itself runs in a dedicated thread, as in
/// the paper's implementation.
pub struct Node {
    id: ProcessId,
    group_size: usize,
    cmd_tx: Sender<Event>,
    // The outboxes sit behind a mutex only so `Node` stays `Sync` (it is
    // shared through `Arc<Node>`); each has one consumer at a time.
    rb_rx: Mutex<Receiver<(ProcessId, Bytes)>>,
    eb_rx: Mutex<Receiver<(ProcessId, Bytes)>>,
    /// The replica feed: [`Output::AbDelivered`] and [`Output::Xfer`], in
    /// the order the stack produced them (see [`Node::recv_output`]).
    feed: Mutex<Receiver<Output>>,
    transport: Arc<AuthenticatedTransport>,
    metrics: Metrics,
    health: Arc<HealthShared>,
    epoch: Instant,
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    metrics_addr: Option<SocketAddr>,
}

impl core::fmt::Debug for Node {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Node")
            .field("id", &self.id)
            .finish_non_exhaustive()
    }
}

impl Node {
    /// Builds an in-memory cluster of `n` nodes (one per process) over a
    /// [`Hub`], with pairwise keys dealt from the session seed. This is
    /// the quickest way to run the stack; for custom transports use
    /// [`Node::new`].
    ///
    /// # Errors
    ///
    /// Propagates transport construction failures (none today; reserved).
    pub fn cluster(config: SessionConfig) -> Result<Vec<Node>, NodeError> {
        // The hub handle is dropped here: links stay up for the lifetime
        // of the endpoints.
        Node::cluster_with_hub(&config).map(|(nodes, _)| nodes)
    }

    /// Like [`Node::cluster`], but also returns the [`Hub`] handle, which
    /// keeps fault-injection powers over the running session:
    /// [`Hub::crash`] fail-stops a process and [`Hub::reattach`] (via
    /// [`Node::rejoin`]) re-admits a wiped one with a fresh inbound queue.
    ///
    /// # Errors
    ///
    /// As [`Node::cluster`].
    pub fn cluster_with_hub(config: &SessionConfig) -> Result<(Vec<Node>, Hub), NodeError> {
        let mut hub = Hub::new(config.group.n());
        let nodes = hub
            .take_endpoints()
            .into_iter()
            .enumerate()
            .map(|(me, ep)| Node::new(config, me, ep))
            .collect::<Result<_, _>>()?;
        Ok((nodes, hub))
    }

    /// Rebuilds process `me` from **nothing but the session config** — the
    /// wipe-and-rejoin entry point. The replica's keys are re-derived from
    /// the dealt master seed, the hub re-admits it with a fresh inbound
    /// queue, and the stack comes up with its AB session *held*: inbound
    /// AB frames park in the out-of-context buffer until a recovery driver
    /// installs a snapshot and calls [`Stack::ab_resume`] (through
    /// [`Node::with_stack`]) with the cursor it agreed on. Only
    /// state-transfer frames flow before that.
    ///
    /// # Errors
    ///
    /// As [`Node::cluster`].
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the hub.
    pub fn rejoin(config: &SessionConfig, hub: &Hub, me: ProcessId) -> Result<Node, NodeError> {
        Node::assemble(config, me, hub.reattach(me), Metrics::new(), true, None)
    }

    /// Starts process `me` of the session described by `config` over
    /// `transport` (one endpoint of a mesh of `config.group().n()`
    /// processes): keys dealt from the session seed, the AH layer over
    /// it, the protocol thread, and the optional `/metrics` endpoint and
    /// stall budget.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the configured `/metrics` endpoint
    /// cannot bind.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the group.
    pub fn new<T: Transport + Sync + 'static>(
        config: &SessionConfig,
        me: ProcessId,
        transport: T,
    ) -> Result<Node, NodeError> {
        Node::assemble(config, me, transport, Metrics::new(), false, None)
    }

    /// [`Node::new`] with the registry `metrics` (shared with a transport
    /// that already counts into it), when `hold_ab`, the AB session held
    /// for a rejoin, and with a `strategy`, a Byzantine process.
    pub(crate) fn assemble<T: Transport + Sync + 'static>(
        config: &SessionConfig,
        me: ProcessId,
        transport: T,
        metrics: Metrics,
        hold_ab: bool,
        strategy: Option<Box<dyn Strategy>>,
    ) -> Result<Node, NodeError> {
        let table = KeyTable::dealer(config.group.n(), config.master_seed);
        let mut stack = Stack::with_config(
            config.group,
            me,
            table.view_of(me),
            config
                .master_seed
                .wrapping_mul(0xA076_1D64_78BD_642F)
                .wrapping_add(me as u64),
            config.stack,
        );
        if hold_ab {
            stack.set_ab_hold(true);
        }
        // Epoch 0 is the dealt table itself; the rekey machinery only
        // changes behavior once a rotation advances the epoch
        // (Node::set_key_epoch).
        let mut auth = AuthConfig::from_key_table(&table, me)
            .with_epoch_rekey(config.master_seed, 0, EPOCH_GRACE)
            .with_metrics(metrics.clone());
        if hold_ab {
            // A rejoiner lost its AH sequence counters but the peers'
            // replay windows did not: resume above anything the old
            // incarnation can have used (new-SA semantics). Wall-clock
            // seconds dominate any plausible frame count.
            let now = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_secs())
                .unwrap_or(u32::MAX as u64);
            auth = auth.with_initial_seq(now);
        }
        let transport = AuthenticatedTransport::new(transport, auth);
        let mut node = Node::spawn(transport, stack, metrics, config.stall_budget, strategy);
        if config.metrics_endpoint {
            node.serve_metrics().map_err(|_| NodeError::Disconnected)?;
        }
        Ok(node)
    }

    /// Builds a cluster over a real localhost **TCP** mesh — the paper's
    /// deployment transport — with the AH layer on top, as on every
    /// node. One endpoint per process, all in this OS process (for
    /// cross-host deployments, establish [`ritas_transport::TcpEndpoint`]s
    /// manually and use [`Node::new`]).
    ///
    /// # Errors
    ///
    /// Propagates mesh establishment failures as
    /// [`NodeError::Disconnected`].
    pub fn tcp_cluster(config: SessionConfig, timeout: Duration) -> Result<Vec<Node>, NodeError> {
        Node::tcp_cluster_with_chaos(config, timeout).map(|(nodes, _)| nodes)
    }

    /// Like [`Node::tcp_cluster`], but also returns one
    /// [`TcpChaosHandle`] per node for link fault injection: killing live
    /// sockets mid-run and watching the session layer reconnect,
    /// retransmit and keep the cluster a-delivering.
    ///
    /// # Errors
    ///
    /// As [`Node::tcp_cluster`].
    pub fn tcp_cluster_with_chaos(
        config: SessionConfig,
        timeout: Duration,
    ) -> Result<(Vec<Node>, Vec<TcpChaosHandle>), NodeError> {
        let n = config.group.n();
        // The session-resume handshake reuses the pairwise dealt keys, so
        // reconnects are MAC-authenticated and replay-protected below the
        // AH layer too.
        let table = KeyTable::dealer(n, config.master_seed);
        let metrics: Vec<Metrics> = (0..n).map(|_| Metrics::new()).collect();
        let registries = metrics.clone();
        let endpoints = TcpEndpoint::ephemeral_mesh(n, timeout, move |me| TcpConfig {
            metrics: registries[me].clone(),
            ..TcpConfig::from_key_table(&table, me)
        })
        .map_err(|_| NodeError::Disconnected)?;
        let mut nodes = Vec::with_capacity(n);
        let mut chaos = Vec::with_capacity(n);
        for ((me, ep), metrics) in endpoints.into_iter().enumerate().zip(metrics) {
            chaos.push(ep.chaos_handle());
            nodes.push(Node::assemble(&config, me, ep, metrics, false, None)?);
        }
        Ok((nodes, chaos))
    }

    /// Spawns the protocol thread for `stack` over `transport`, counting
    /// into `metrics`, and returns the application handle.
    fn spawn(
        transport: AuthenticatedTransport,
        mut stack: Stack,
        metrics: Metrics,
        stall_budget: Option<Duration>,
        strategy: Option<Box<dyn Strategy>>,
    ) -> Node {
        let id = stack.id();
        let group_size = stack.group().n();
        stack.set_metrics(metrics.clone());
        let transport = Arc::new(transport);
        let stop = Arc::new(AtomicBool::new(false));
        let (cmd_tx, cmd_rx) = channel::<Event>();
        let (rb_tx, rb_rx) = channel();
        let (eb_tx, eb_rx) = channel();
        let (feed_tx, feed_rx) = channel();
        let epoch = Instant::now();
        let health = Arc::new(HealthShared::new(stall_budget));

        // The single protocol thread of §3: it blocks in the transport
        // for the next frame, verifies it there (through the AH layer)
        // and drains the command queue whenever a wait ends.
        let worker = {
            let transport = Arc::clone(&transport);
            let stop = Arc::clone(&stop);
            let metrics = metrics.clone();
            let health = Arc::clone(&health);
            std::thread::spawn(move || {
                let mut state = Worker {
                    stack,
                    transport,
                    outbox: vec![Vec::new(); group_size],
                    loopback: VecDeque::new(),
                    replies: HashMap::new(),
                    ab_sent: BTreeMap::new(),
                    metrics: metrics.clone(),
                    health: Arc::clone(&health),
                    rb_tx,
                    eb_tx,
                    feed_tx,
                    strategy,
                };
                let mut last_state_refresh: u64 = 0;
                let mut stalled = false;
                'worker: loop {
                    // Trace events are stamped with nanoseconds since the
                    // node was spawned; the same clock drives the AB layer's
                    // age-based batch flush.
                    let now = epoch.elapsed().as_nanos() as u64;
                    metrics.set_time(now);
                    state.stack.set_now(now);
                    // Queued commands must flush by their age deadline even
                    // when no traffic arrives, so the wait for a frame ends
                    // there at the latest. A wake (a command was queued)
                    // ends it like a timeout: neither is an error, both
                    // fall through to the command queue and the tick/poll
                    // below.
                    let mut wait = state
                        .stack
                        .ab_next_deadline()
                        .map_or(IDLE_TICK, |deadline| {
                            Duration::from_nanos(deadline.saturating_sub(now)).min(IDLE_TICK)
                        });
                    // Exhaust everything already queued before advancing
                    // the agreement task: a round starts only in the
                    // `poll_all` below, so one round orders every batch
                    // that arrived while the queues drained.
                    loop {
                        match state.transport.recv_timeout(wait) {
                            Ok((from, frame)) => state.on_frame(from, frame),
                            Err(TransportError::Disconnected) => break 'worker,
                            // A timeout (the deadline, a wake, or nothing
                            // left queued) — or a per-link failure, which
                            // must not stop the runtime: the other links
                            // keep delivering while the session layer
                            // reconnects.
                            Err(_) => break,
                        }
                        if !state.drain_commands(&cmd_rx) {
                            break 'worker;
                        }
                        wait = Duration::ZERO;
                    }
                    if !state.drain_commands(&cmd_rx) {
                        break;
                    }
                    // Input exhausted: flush any batch past its age
                    // deadline, then start the next agreement round over
                    // the accumulated pending batches.
                    let later = epoch.elapsed().as_nanos() as u64;
                    metrics.set_time(later);
                    state.stack.set_now(later);
                    let step = state.stack.tick();
                    state.dispatch(step);
                    let step = state.stack.poll_all();
                    state.dispatch(step);
                    // The pass is over: what it sent each peer leaves as
                    // one batch, before the next wait (nothing is held
                    // across one).
                    state.flush();
                    state.surface_link_events();
                    // Liveness bookkeeping for `/health` and the stall
                    // budget: the heartbeat proves this loop is turning;
                    // `pending_since` marks how long work has been
                    // outstanding with nothing a-delivering.
                    health.heartbeat_ns.store(later.max(1), Ordering::Relaxed);
                    let pending =
                        !state.ab_sent.is_empty() || state.metrics.ab_queue_depth.get() > 0;
                    if pending {
                        let _ = health.pending_since_ns.compare_exchange(
                            0,
                            later.max(1),
                            Ordering::Relaxed,
                            Ordering::Relaxed,
                        );
                    } else {
                        health.pending_since_ns.store(0, Ordering::Relaxed);
                    }
                    // Whoever reads the stall computes it; this loop only
                    // counts its rising edge, one turn (≤ IDLE_TICK) late.
                    let stall = health.stalled_for(later);
                    if let (Some(idle), false) = (stall, stalled) {
                        metrics.node_stalls_total.inc();
                        metrics.flight_record(FlightKind::Stall, id as u32, idle, health.budget_ns);
                    }
                    stalled = stall.is_some();
                    if later.saturating_sub(last_state_refresh) >= STATE_REFRESH_NS {
                        last_state_refresh = later;
                        *unpoison(health.state_json.lock()) = state.state_json(later);
                    }
                }
                // A shutdown ends the pass early: what it sent still goes.
                state.flush();
                stop.store(true, Ordering::Relaxed);
            })
        };

        Node {
            id,
            group_size,
            cmd_tx,
            rb_rx: Mutex::new(rb_rx),
            eb_rx: Mutex::new(eb_rx),
            feed: Mutex::new(feed_rx),
            transport,
            metrics,
            health,
            epoch,
            stop,
            threads: vec![worker],
            metrics_addr: None,
        }
    }

    /// Queues `cmd` for the protocol thread and ends its wait for a frame.
    fn submit(&self, cmd: Command) -> Result<(), NodeError> {
        self.cmd_tx
            .send(Event::Cmd(cmd))
            .map_err(|_| NodeError::Disconnected)?;
        self.transport.wake();
        Ok(())
    }

    /// The current state of this node's link to `peer` (always
    /// [`LinkState::Up`] for failure-free transports). Transitions are
    /// recorded as [`FlightKind::LinkUp`]/[`FlightKind::LinkDown`] flight
    /// events.
    pub fn link_state(&self, peer: ProcessId) -> LinkState {
        self.transport.link_state(peer)
    }

    /// Switches the underlying transport to the pairwise key table of
    /// `epoch` (proactive key rejuvenation): outbound frames seal under
    /// the new epoch immediately; inbound frames from the previous epoch
    /// stay acceptable for a five-second grace window. Forward-only.
    pub fn set_key_epoch(&self, epoch: u64) {
        self.transport.set_key_epoch(epoch);
    }

    /// The key epoch outbound frames are currently sealed under (0
    /// before any rotation).
    pub fn key_epoch(&self) -> u64 {
        self.transport.key_epoch()
    }

    /// Starts serving this node's observability endpoints over HTTP on an
    /// ephemeral localhost port ([`SessionConfig::with_metrics_endpoint`]):
    /// `/metrics` (Prometheus text format, also the fallback for unknown
    /// paths), `/health` (lock-free liveness summary — safe to scrape
    /// even when the protocol thread is wedged) and `/state`
    /// (worker-refreshed protocol introspection). The bound address is
    /// [`Node::metrics_addr`]; the server stops with the node.
    fn serve_metrics(&mut self) -> std::io::Result<()> {
        let listener = std::net::TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let ctx = ServeCtx {
            metrics: self.metrics.clone(),
            health: Arc::clone(&self.health),
            epoch: self.epoch,
            id: self.id,
        };
        let stop = Arc::clone(&self.stop);
        self.threads.push(std::thread::spawn(move || {
            // Blocks in `accept`, as `ServiceServer` does; `shutdown` sets
            // `stop` and connects once to have it looked at.
            while let Ok((conn, _)) = listener.accept() {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                let _ = serve_metrics_request(conn, &ctx);
            }
        }));
        self.metrics_addr = Some(addr);
        Ok(())
    }

    /// Whether work is outstanding (own broadcasts in flight or commands
    /// queued) and nothing has a-delivered for longer than
    /// [`SessionConfig::stall_budget`]; always `false` without a budget.
    /// Read from atomics, so it answers — and reads `true` — while the
    /// protocol thread is wedged; that thread counts each stall in
    /// `node_stalls_total` and a [`FlightKind::Stall`] flight event on its
    /// next turn.
    pub fn is_stalled(&self) -> bool {
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.health.stalled_for(now).is_some()
    }

    /// Registers this node's flight recorder for a crash dump: on panic
    /// (any thread) or an explicit [`ritas_metrics::flight::dump_registered`]
    /// call, the bounded event ring is written to
    /// `{dir}/flight-{tag}.bin` (parse with
    /// [`ritas_metrics::flight::parse`]).
    pub fn enable_flight_dump(&self, dir: impl Into<std::path::PathBuf>, tag: impl Into<String>) {
        ritas_metrics::flight::register_dump(dir, tag, self.metrics.clone());
    }

    /// The address of the live `/metrics`, `/health` and `/state`
    /// endpoint, if the session config asked for one
    /// ([`SessionConfig::with_metrics_endpoint`]).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// The shared metrics registry this node's stack reports into. Live —
    /// counters keep moving while the stack runs.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Freezes the current metrics into a [`MetricsSnapshot`] (the
    /// observability dump: `snapshot.to_text()` / `snapshot.to_json()`).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.metrics.snapshot()
    }

    /// Number of processes in the group.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// The one port into the protocol thread: runs `f` there with
    /// exclusive access to the [`Stack`] and returns its result. Frames
    /// and outputs `f` pushes on the step it is handed are sent and
    /// delivered like any other stack output. Introspection and the
    /// recovery driver go through here ([`Stack::ab`], [`Stack::with_ab`],
    /// [`Stack::ab_resume`]); the broadcast and consensus requests keep
    /// their dedicated methods.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn with_stack<R: Send + 'static>(
        &self,
        f: impl FnOnce(&mut Stack, &mut StackStep) -> R + Send + 'static,
    ) -> Result<R, NodeError> {
        let (reply, rx) = sync_channel(1);
        let run = move |stack: &mut Stack, out: &mut StackStep| {
            let _ = reply.send(f(stack, out));
        };
        self.submit(Command::WithStack(Box::new(run)))?;
        rx.recv().map_err(|_| NodeError::Disconnected)
    }

    /// This process's identifier.
    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Reliably broadcasts `payload` (`ritas_rb_bcast`).
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn reliable_broadcast(&self, payload: Bytes) -> Result<(), NodeError> {
        self.submit(Command::RbBroadcast(payload))
    }

    /// Blocks until a reliable broadcast is delivered (`ritas_rb_recv`).
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn rb_recv(&self) -> Result<(ProcessId, Bytes), NodeError> {
        unpoison(self.rb_rx.lock())
            .recv()
            .map_err(|_| NodeError::Disconnected)
    }

    /// Like [`Node::rb_recv`] with a timeout.
    ///
    /// # Errors
    ///
    /// [`NodeError::Timeout`] when nothing arrived in time.
    pub fn rb_recv_timeout(&self, t: Duration) -> Result<(ProcessId, Bytes), NodeError> {
        map_timeout(unpoison(self.rb_rx.lock()).recv_timeout(t))
    }

    /// Echo-broadcasts `payload` (`ritas_eb_bcast`).
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn echo_broadcast(&self, payload: Bytes) -> Result<(), NodeError> {
        self.submit(Command::EbBroadcast(payload))
    }

    /// Blocks until an echo broadcast is delivered (`ritas_eb_recv`).
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn eb_recv(&self) -> Result<(ProcessId, Bytes), NodeError> {
        unpoison(self.eb_rx.lock())
            .recv()
            .map_err(|_| NodeError::Disconnected)
    }

    /// Atomically broadcasts `payload` (`ritas_ab_bcast`); returns the
    /// system-wide unique identifier `(sender, rbid)` assigned to the
    /// message, which deliveries can be correlated against.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn atomic_broadcast(&self, payload: Bytes) -> Result<crate::ab::MsgId, NodeError> {
        let (reply, rx) = sync_channel(1);
        self.submit(Command::AbBroadcast(payload, reply))?;
        rx.recv().map_err(|_| NodeError::Disconnected)
    }

    /// Blocks until the next message in the total order (`ritas_ab_recv`).
    /// Transfer frames queued ahead of it are dropped: a node read this
    /// way serves no state transfer.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn atomic_recv(&self) -> Result<AbDelivery, NodeError> {
        loop {
            if let Output::AbDelivered { delivery, .. } = self.recv_output(None)? {
                return Ok(delivery);
            }
        }
    }

    /// Like [`Node::atomic_recv`] with a timeout.
    ///
    /// # Errors
    ///
    /// [`NodeError::Timeout`] when nothing arrived in time.
    pub fn atomic_recv_timeout(&self, t: Duration) -> Result<AbDelivery, NodeError> {
        let deadline = Instant::now() + t;
        loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if let Output::AbDelivered { delivery, .. } = self.recv_output(Some(left))? {
                return Ok(delivery);
            }
        }
    }

    /// Blocks for the next item of the replica feed — an
    /// [`Output::AbDelivered`] or an [`Output::Xfer`] (an inbound
    /// state-transfer payload), in the order the stack produced them —
    /// for at most `timeout` (`None`: until one arrives;
    /// `Some(Duration::ZERO)`: only what is already queued). The one
    /// queue a replica's application thread waits on.
    ///
    /// # Errors
    ///
    /// [`NodeError::Timeout`] when nothing arrived in time,
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn recv_output(&self, timeout: Option<Duration>) -> Result<Output, NodeError> {
        let feed = unpoison(self.feed.lock());
        match timeout {
            None => feed.recv().map_err(|_| NodeError::Disconnected),
            Some(t) => map_timeout(feed.recv_timeout(t)),
        }
    }

    /// Sends a point-to-point state-transfer payload to `to` (encoded
    /// [`crate::recovery::XferMessage`] bytes). Transfer traffic bypasses
    /// the agreement protocols entirely; integrity comes from Merkle
    /// proofs and f+1 cross-checks at the recovery layer.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the stack thread has stopped.
    pub fn send_xfer(&self, to: ProcessId, payload: Bytes) -> Result<(), NodeError> {
        self.submit(Command::SendXfer(to, payload))
    }

    /// Proposes a bit on binary consensus instance `tag` and blocks until
    /// the decision (`ritas_bc`). All processes must use the same `tag`
    /// for the same logical instance.
    ///
    /// # Errors
    ///
    /// [`NodeError::Protocol`] on duplicate tags,
    /// [`NodeError::Disconnected`] if the stack thread stopped.
    pub fn binary_consensus(&self, tag: u64, value: bool) -> Result<bool, NodeError> {
        let (reply, rx) = sync_channel(1);
        self.submit(Command::BcPropose { tag, value, reply })?;
        rx.recv()
            .map_err(|_| NodeError::Disconnected)?
            .map_err(NodeError::Protocol)
    }

    /// Proposes a value on multi-valued consensus `tag`; blocks until the
    /// decision (`ritas_mvc`). `None` is the default value ⊥.
    ///
    /// # Errors
    ///
    /// As [`Node::binary_consensus`].
    pub fn multi_valued_consensus(&self, tag: u64, value: Bytes) -> Result<MvcValue, NodeError> {
        let (reply, rx) = sync_channel(1);
        self.submit(Command::MvcPropose { tag, value, reply })?;
        rx.recv()
            .map_err(|_| NodeError::Disconnected)?
            .map_err(NodeError::Protocol)
    }

    /// Proposes a value on vector consensus `tag`; blocks until the
    /// decided vector (`ritas_vc`).
    ///
    /// # Errors
    ///
    /// As [`Node::binary_consensus`].
    pub fn vector_consensus(&self, tag: u64, value: Bytes) -> Result<DecisionVector, NodeError> {
        let (reply, rx) = sync_channel(1);
        self.submit(Command::VcPropose { tag, value, reply })?;
        rx.recv()
            .map_err(|_| NodeError::Disconnected)?
            .map_err(NodeError::Protocol)
    }

    /// Stops the stack thread (`ritas_destroy`). Idempotent.
    pub fn shutdown(&self) {
        let _ = self.cmd_tx.send(Event::Shutdown);
        self.stop.store(true, Ordering::SeqCst);
        self.transport.wake();
        if let Some(addr) = self.metrics_addr {
            // Releases the endpoint thread's blocking `accept`.
            let _ = std::net::TcpStream::connect(addr);
        }
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        self.shutdown();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Everything the observability endpoint thread needs to answer a scrape
/// without touching the protocol thread.
struct ServeCtx {
    metrics: Metrics,
    health: Arc<HealthShared>,
    epoch: Instant,
    id: ProcessId,
}

/// Answers one scrape: reads the request until the header terminator,
/// routes on the path — `/health` (liveness JSON), `/state` (worker
/// introspection JSON) — and serves the Prometheus metrics page for
/// every other path (existing scrapers keep working unchanged).
fn serve_metrics_request(mut conn: std::net::TcpStream, ctx: &ServeCtx) -> std::io::Result<()> {
    conn.set_read_timeout(Some(Duration::from_millis(500)))?;
    conn.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut req = Vec::new();
    let mut buf = [0u8; 1024];
    loop {
        match conn.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => {
                req.extend_from_slice(&buf[..k]);
                if req.windows(4).any(|w| w == b"\r\n\r\n") || req.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    let path = request_path(&req);
    let (body, content_type) = match path.as_deref() {
        Some("/health") => (health_json(ctx), "application/json"),
        Some("/state") => (state_json_response(ctx), "application/json"),
        _ => (
            ctx.metrics.snapshot().to_prometheus(),
            "text/plain; version=0.0.4; charset=utf-8",
        ),
    };
    let resp = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: {content_type}\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    conn.write_all(resp.as_bytes())
}

/// The path component of the request line (`GET /health HTTP/1.1`).
fn request_path(req: &[u8]) -> Option<String> {
    let line = req.split(|&b| b == b'\r' || b == b'\n').next()?;
    let line = core::str::from_utf8(line).ok()?;
    let mut parts = line.split_whitespace();
    let _method = parts.next()?;
    let target = parts.next()?;
    // Ignore any query string.
    Some(target.split('?').next().unwrap_or(target).to_string())
}

/// The `/health` document: built exclusively from atomics and live
/// gauges, so it stays accurate (and responsive) while the protocol
/// thread is stuck — the heartbeat age going flat is itself the signal.
fn health_json(ctx: &ServeCtx) -> String {
    let now = ctx.epoch.elapsed().as_nanos() as u64;
    let h = &ctx.health;
    let heartbeat = h.heartbeat_ns.load(Ordering::Relaxed);
    let since = h.pending_since_ns.load(Ordering::Relaxed);
    let progress = h.progress_ns.load(Ordering::Relaxed);
    let m = &ctx.metrics;
    let mut suspicions = String::from("[");
    for (i, s) in m.suspicions().iter().enumerate() {
        if i > 0 {
            suspicions.push(',');
        }
        suspicions.push_str(&format!("{{\"peer\":{},\"total\":{}}}", s.peer, s.total()));
    }
    suspicions.push(']');
    // Proactive-recovery scheduler state, from the same lock-free gauges
    // the RSM layer refreshes on every applied rotation command
    // (`active_victim` is -1 while no wipe slot is open).
    let rotation = format!(
        "{{\"epoch\":{},\"active_victim\":{},\"next_victim\":{},\
         \"scheduled_total\":{},\"rounds_total\":{},\"deferrals_total\":{},\
         \"transport_epochs_adopted\":{},\"transport_epoch_rejected\":{}}}",
        m.rotation_epoch.get(),
        m.rotation_active_victim.get() as i64 - 1,
        m.rotation_next_victim.get(),
        m.rotation_scheduled_total.get(),
        m.rotation_rounds_total.get(),
        m.rotation_deferrals_total.get(),
        m.transport_epoch_adopted.get(),
        m.transport_epoch_rejected.get(),
    );
    format!(
        "{{\"id\":{},\"stalled\":{},\"budget_ns\":{},\
         \"heartbeat_age_ns\":{},\"pending\":{},\"pending_age_ns\":{},\
         \"progress_age_ns\":{},\"ab_queue_depth\":{},\"ab_in_flight\":{},\
         \"rsm_applied_watermark\":{},\"sessions_live\":{},\
         \"recovery_phase\":{},\
         \"stalls_total\":{},\
         \"rotation\":{rotation},\
         \"suspicions_total\":{},\"suspicions\":{}}}",
        ctx.id,
        h.stalled_for(now).is_some(),
        h.budget_ns,
        now.saturating_sub(heartbeat),
        since != 0,
        if since == 0 {
            0
        } else {
            now.saturating_sub(since)
        },
        if progress == 0 {
            now
        } else {
            now.saturating_sub(progress)
        },
        m.ab_queue_depth.get(),
        m.ab_sent_pending.get(),
        m.rsm_applied_watermark.get(),
        m.service_sessions_live.get(),
        m.recovery_phase.get(),
        m.node_stalls_total.get(),
        m.suspicions_total.get(),
        suspicions,
    )
}

/// The `/state` document: the worker's last introspection snapshot plus
/// how stale it is.
fn state_json_response(ctx: &ServeCtx) -> String {
    let now = ctx.epoch.elapsed().as_nanos() as u64;
    let heartbeat = ctx.health.heartbeat_ns.load(Ordering::Relaxed);
    let worker = unpoison(ctx.health.state_json.lock()).clone();
    format!(
        "{{\"id\":{},\"heartbeat_age_ns\":{},\"worker\":{worker}}}",
        ctx.id,
        now.saturating_sub(heartbeat)
    )
}

/// Bound on locally tracked a-broadcast send times ([`Worker::ab_sent`]):
/// entries are normally removed at a-delivery, but a stuck or partitioned
/// session must not grow the map without limit, so the oldest entry is
/// evicted (losing one latency sample) when a new send would exceed this.
const AB_SENT_CAPACITY: usize = 4096;

fn map_timeout<T>(r: Result<T, RecvTimeoutError>) -> Result<T, NodeError> {
    r.map_err(|e| match e {
        RecvTimeoutError::Timeout => NodeError::Timeout,
        RecvTimeoutError::Disconnected => NodeError::Disconnected,
    })
}

/// The state owned by the stack thread.
struct Worker {
    stack: Stack,
    transport: Arc<AuthenticatedTransport>,
    /// What this pass sends each peer, in order, indexed by peer: one
    /// [`AuthenticatedTransport::send_batch`] per peer when the pass ends
    /// ([`Worker::flush`]), so it is sealed under one ICV.
    outbox: Vec<Vec<Bytes>>,
    /// This process's own copies of what it sent, oldest first: they go
    /// straight back into the stack, never through the transport.
    loopback: VecDeque<Bytes>,
    replies: HashMap<InstanceKey, PendingReply>,
    /// Local a-broadcast times, for the a-deliver latency histogram.
    /// Bounded by [`AB_SENT_CAPACITY`]; ordered by id, so the first entry
    /// is the oldest local send (rbids are sequential).
    ab_sent: BTreeMap<crate::ab::MsgId, Instant>,
    metrics: Metrics,
    health: Arc<HealthShared>,
    rb_tx: Sender<(ProcessId, Bytes)>,
    eb_tx: Sender<(ProcessId, Bytes)>,
    feed_tx: Sender<Output>,
    /// A Byzantine node's lie, applied to everything it sends a peer.
    strategy: Option<Box<dyn Strategy>>,
}

impl Worker {
    /// Handles every queued command; `false` once the node is to stop.
    fn drain_commands(&mut self, cmd_rx: &Receiver<Event>) -> bool {
        loop {
            match cmd_rx.try_recv() {
                Ok(Event::Cmd(cmd)) => self.on_command(cmd),
                Ok(Event::Shutdown) | Err(TryRecvError::Disconnected) => return false,
                Err(TryRecvError::Empty) => return true,
            }
        }
    }

    fn on_command(&mut self, cmd: Command) {
        match cmd {
            Command::RbBroadcast(payload) => {
                let (_, step) = self.stack.rb_broadcast(payload);
                self.dispatch(step);
            }
            Command::EbBroadcast(payload) => {
                let (_, step) = self.stack.eb_broadcast(payload);
                self.dispatch(step);
            }
            Command::AbBroadcast(payload, reply) => {
                let (id, step) = self.stack.ab_broadcast(0, payload);
                if self.ab_sent.len() >= AB_SENT_CAPACITY {
                    self.ab_sent.pop_first();
                }
                self.ab_sent.insert(id, Instant::now());
                self.metrics.ab_sent_pending.set(self.ab_sent.len() as u64);
                let _ = reply.send(id);
                self.dispatch(step);
            }
            Command::BcPropose { tag, value, reply } => {
                let key = InstanceKey::Bc { tag };
                match self.stack.bc_propose(tag, value) {
                    Ok(step) => {
                        self.replies.insert(key, PendingReply::Bc(reply));
                        self.dispatch(step);
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Command::MvcPropose { tag, value, reply } => {
                let key = InstanceKey::Mvc { tag };
                match self.stack.mvc_propose(tag, value) {
                    Ok(step) => {
                        self.replies.insert(key, PendingReply::Mvc(reply));
                        self.dispatch(step);
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Command::VcPropose { tag, value, reply } => {
                let key = InstanceKey::Vc { tag };
                match self.stack.vc_propose(tag, value) {
                    Ok(step) => {
                        self.replies.insert(key, PendingReply::Vc(reply));
                        self.dispatch(step);
                    }
                    Err(e) => {
                        let _ = reply.send(Err(e));
                    }
                }
            }
            Command::SendXfer(to, payload) => {
                let frame = crate::stack::encode_xfer(&payload);
                self.metrics.transport_msgs_sent.inc();
                self.metrics.transport_bytes_sent.add(frame.len() as u64);
                self.queue(to, frame);
            }
            Command::WithStack(f) => {
                // Whoever gets a port call's answer finds everything
                // earlier commands and frames sent on the transport.
                self.flush();
                let mut step = StackStep::none();
                f(&mut self.stack, &mut step);
                self.dispatch(step);
            }
        }
    }

    /// A frame off the transport, already authenticated by the AH layer
    /// (which counts the wire frames).
    fn on_frame(&mut self, from: ProcessId, frame: Bytes) {
        self.metrics.transport_bytes_recv.add(frame.len() as u64);
        self.flight_frame(FlightKind::FrameIn, from as u32, &frame);
        let step = self.stack.handle_frame(from, frame);
        self.dispatch(step);
    }

    /// Records a frame crossing the transport, by digest and length (the
    /// sender digests what it hands to the transport, the receiver what
    /// the transport hands it: the same bytes).
    fn flight_frame(&self, kind: FlightKind, peer: u32, frame: &Bytes) {
        if self.metrics.flight().enabled() {
            let digest = ritas_metrics::flight::digest(frame);
            self.metrics
                .flight_record(kind, peer, digest, frame.len() as u64);
        }
    }

    /// Records link transitions (a self-healing transport reports
    /// outages and resumes here) in the flight recorder.
    fn surface_link_events(&self) {
        while let Some(ev) = self.transport.poll_link_event() {
            let kind = match ev.state {
                LinkState::Up => FlightKind::LinkUp,
                _ => FlightKind::LinkDown,
            };
            self.metrics
                .flight_record(kind, ev.peer as u32, ev.epoch, 0);
        }
    }

    /// Builds the `/state` introspection document. Runs on the protocol
    /// thread (throttled), so it may touch the stack freely; the endpoint
    /// thread only ever reads the cached result.
    fn state_json(&self, now_ns: u64) -> String {
        let m = &self.metrics;
        let mut links = String::from("[");
        for p in 0..self.transport.group_size() {
            if p > 0 {
                links.push(',');
            }
            let s = match self.transport.link_state(p) {
                LinkState::Up => "up",
                LinkState::Reconnecting => "reconnecting",
                LinkState::Down(_) => "down",
            };
            links.push_str(&format!("{{\"peer\":{p},\"state\":\"{s}\"}}"));
        }
        links.push(']');
        let ab = match self
            .stack
            .ab(0)
            .map(|ab| (ab.stats(), ab.round(), ab.pending()))
        {
            Some((stats, round, pending)) => format!(
                "{{\"round\":{round},\"pending_msgs\":{pending},\
                 \"broadcast\":{},\"delivered\":{},\"agreements\":{},\
                 \"bottom_agreements\":{},\"batches\":{},\"bc_rounds_max\":{},\
                 \"queue_depth\":{},\"in_flight\":{},\"window_in_flight\":{}}}",
                stats.broadcast,
                stats.delivered,
                stats.agreements,
                stats.bottom_agreements,
                stats.batches,
                stats.bc_rounds_max,
                m.ab_queue_depth.get(),
                self.ab_sent.len(),
                m.ab_sent_pending.get(),
            ),
            None => String::from("null"),
        };
        // Scheduler introspection mirrors `/health`'s rotation block so a
        // single `/state` scrape shows where the rotation cursor stands
        // relative to the protocol's progress watermarks.
        let rotation = format!(
            "{{\"epoch\":{},\"active_victim\":{},\"next_victim\":{},\
             \"scheduled_total\":{},\"rounds_total\":{},\"deferrals_total\":{}}}",
            m.rotation_epoch.get(),
            m.rotation_active_victim.get() as i64 - 1,
            m.rotation_next_victim.get(),
            m.rotation_scheduled_total.get(),
            m.rotation_rounds_total.get(),
            m.rotation_deferrals_total.get(),
        );
        format!(
            "{{\"time_ns\":{now_ns},\"ab\":{ab},\"instances\":{},\
             \"ooc_buffered\":{},\"rsm_applied_watermark\":{},\
             \"faults_detected\":{},\"rotation\":{rotation},\"links\":{links}}}",
            m.stack_instances.get(),
            m.stack_ooc_buffered.get(),
            m.rsm_applied_watermark.get(),
            m.faults_detected.get(),
        )
    }

    /// Sends and delivers what `step` carries, then feeds the stack its
    /// own copies of what it sent, in the order sent, until they have
    /// produced nothing more. (The stack has already counted the step's
    /// faults against their senders.)
    fn dispatch(&mut self, step: StackStep) {
        self.emit(step);
        while let Some(frame) = self.loopback.pop_front() {
            let step = self.stack.handle_frame(self.stack.id(), frame);
            self.emit(step);
        }
    }

    /// Queues `message` for `to` until the pass ends.
    fn queue(&mut self, to: ProcessId, message: Bytes) {
        if self.strategy.is_some() {
            self.queue_rewritten(to, message);
        } else if let Some(outbox) = self.outbox.get_mut(to) {
            // Out of range, the transport would refuse it anyway.
            outbox.push(message);
        }
    }

    /// [`Worker::queue`] on a Byzantine node: what the strategy makes of
    /// `message` is queued instead. Out of the honest path's way.
    #[cold]
    #[inline(never)]
    fn queue_rewritten(&mut self, to: ProcessId, message: Bytes) {
        let (me, n) = (self.stack.id(), self.transport.group_size());
        if let (Some(strategy), Some(outbox)) = (&mut self.strategy, self.outbox.get_mut(to)) {
            let frames = rewrite_frame(strategy.as_mut(), me, n, &message, to..to + 1);
            outbox.extend(frames.into_iter().map(|(_, frame)| frame));
        }
    }

    /// Hands each peer what this pass sent it, in one
    /// [`AuthenticatedTransport::send_batch`]. Best effort per link: a
    /// failure towards one peer (a crashed or departed one) does not hold
    /// back the others, and a transport that is gone is noticed by the
    /// loop at its next receive.
    fn flush(&mut self) {
        for (to, batch) in self.outbox.iter_mut().enumerate() {
            if batch.is_empty() {
                continue;
            }
            let _ = self.transport.send_batch(to, batch);
            batch.clear();
        }
    }

    fn emit(&mut self, step: StackStep) {
        let (me, n) = (self.stack.id(), self.transport.group_size());
        for out in step.messages {
            let len = out.message.len() as u64;
            match out.target {
                Target::All => {
                    let peers = n as u64 - 1;
                    self.metrics.transport_msgs_sent.add(peers);
                    self.metrics.transport_bytes_sent.add(peers * len);
                    self.flight_frame(FlightKind::FrameOut, u32::MAX, &out.message);
                    for to in (0..n).filter(|&to| to != me) {
                        self.queue(to, out.message.clone());
                    }
                    self.loopback.push_back(out.message);
                }
                Target::One(to) if to == me => self.loopback.push_back(out.message),
                Target::One(to) => {
                    self.metrics.transport_msgs_sent.inc();
                    self.metrics.transport_bytes_sent.add(len);
                    self.flight_frame(FlightKind::FrameOut, to as u32, &out.message);
                    self.queue(to, out.message);
                }
            }
        }
        for output in step.outputs {
            match output {
                Output::RbDelivered {
                    sender, payload, ..
                } => {
                    let _ = self.rb_tx.send((sender, payload));
                }
                Output::EbDelivered {
                    sender, payload, ..
                } => {
                    let _ = self.eb_tx.send((sender, payload));
                }
                Output::AbDelivered { ref delivery, .. } => {
                    if let Some(sent) = self.ab_sent.remove(&delivery.id) {
                        self.metrics
                            .ab_latency_ns
                            .record(sent.elapsed().as_nanos() as u64);
                        self.metrics.ab_sent_pending.set(self.ab_sent.len() as u64);
                    }
                    self.metrics.flight_record(
                        FlightKind::Deliver,
                        delivery.id.sender as u32,
                        delivery.id.rbid,
                        0,
                    );
                    // Any a-delivery is progress against the stall budget:
                    // the total order advanced.
                    self.health
                        .progress_ns
                        .store(self.metrics.time().max(1), Ordering::Relaxed);
                    let _ = self.feed_tx.send(output);
                }
                Output::BcDecided { key, decision } => {
                    if let Some(PendingReply::Bc(tx)) = self.replies.remove(&key) {
                        let _ = tx.send(Ok(decision));
                    }
                }
                Output::MvcDecided { key, decision } => {
                    if let Some(PendingReply::Mvc(tx)) = self.replies.remove(&key) {
                        let _ = tx.send(Ok(decision));
                    }
                }
                Output::VcDecided { key, vector } => {
                    if let Some(PendingReply::Vc(tx)) = self.replies.remove(&key) {
                        let _ = tx.send(Ok(vector));
                    }
                }
                Output::Xfer { .. } => {
                    let _ = self.feed_tx.send(output);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_cluster(config: SessionConfig, body: impl Fn(Node) + Send + Sync + Clone + 'static) {
        let nodes = Node::cluster(config).unwrap();
        let mut handles = Vec::new();
        for node in nodes {
            let body = body.clone();
            handles.push(std::thread::spawn(move || body(node)));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn reliable_broadcast_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            if node.id() == 0 {
                node.reliable_broadcast(Bytes::from_static(b"rb")).unwrap();
            }
            let (sender, payload) = node.rb_recv().unwrap();
            assert_eq!(sender, 0);
            assert_eq!(payload.as_ref(), b"rb");
            node.shutdown();
        });
    }

    #[test]
    fn echo_broadcast_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            if node.id() == 1 {
                node.echo_broadcast(Bytes::from_static(b"eb")).unwrap();
            }
            let (sender, payload) = node.eb_recv().unwrap();
            assert_eq!((sender, payload.as_ref()), (1, &b"eb"[..]));
            node.shutdown();
        });
    }

    #[test]
    fn binary_consensus_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            let d = node.binary_consensus(7, true).unwrap();
            assert!(d);
            node.shutdown();
        });
    }

    #[test]
    fn multi_valued_consensus_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            let d = node
                .multi_valued_consensus(3, Bytes::from_static(b"value"))
                .unwrap();
            assert_eq!(d.as_deref(), Some(&b"value"[..]));
            node.shutdown();
        });
    }

    #[test]
    fn vector_consensus_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            let me = node.id();
            let v = node
                .vector_consensus(1, Bytes::copy_from_slice(format!("p{me}").as_bytes()))
                .unwrap();
            assert_eq!(v.len(), 4);
            assert!(v.iter().flatten().count() >= 2);
            node.shutdown();
        });
    }

    #[test]
    fn atomic_broadcast_end_to_end() {
        run_cluster(SessionConfig::new(4).unwrap(), |node| {
            node.atomic_broadcast(Bytes::copy_from_slice(format!("m{}", node.id()).as_bytes()))
                .unwrap();
            let mut got = Vec::new();
            for _ in 0..4 {
                got.push(node.atomic_recv().unwrap());
            }
            assert_eq!(got.len(), 4);
            node.shutdown();
        });
    }

    #[test]
    fn duplicate_tag_rejected() {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|node| {
                std::thread::spawn(move || {
                    let _ = node.binary_consensus(9, true).unwrap();
                    if node.id() == 0 {
                        let err = node.binary_consensus(9, true).unwrap_err();
                        assert_eq!(err, NodeError::Protocol(ProtocolError::AlreadyStarted));
                    }
                    node.shutdown();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn faults_are_observable() {
        use ritas_metrics::SuspicionKind;
        let config = SessionConfig::new(4).unwrap();
        let mut hub = Hub::new(4);
        let mut eps = hub.take_endpoints().into_iter();
        let node = Node::new(&config, 0, eps.next().unwrap()).unwrap();
        let table = KeyTable::dealer(4, config.master_seed);
        let ep1 =
            AuthenticatedTransport::new(eps.next().unwrap(), AuthConfig::from_key_table(&table, 1));
        // A peer seals garbage that cannot decode as any protocol frame.
        ep1.send(0, Bytes::from_static(&[0xde, 0xad, 0xbe, 0xef]))
            .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let suspicions = loop {
            let s = node.metrics().suspicions();
            if !s.is_empty() || Instant::now() > deadline {
                break s;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        assert_eq!(suspicions.len(), 1, "garbage frame went unobserved");
        assert_eq!(suspicions[0].peer, 1);
        assert_eq!(suspicions[0].count(SuspicionKind::Malformed), 1);
        assert_eq!(node.metrics().faults_detected.get(), 1);
        node.shutdown();
    }

    #[test]
    fn recv_timeout_expires() {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        assert_eq!(
            nodes[0]
                .rb_recv_timeout(Duration::from_millis(20))
                .unwrap_err(),
            NodeError::Timeout
        );
        for n in &nodes {
            n.shutdown();
        }
    }

    /// What shutdown relies on from the channels underneath: a command
    /// still queued behind `Shutdown` when the protocol thread exits is
    /// destroyed with the queue, so the caller blocked on its reply wakes
    /// with `Disconnected` instead of waiting forever.
    #[test]
    fn command_queued_behind_shutdown_does_not_hold_its_reply() {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        let node = &nodes[0];
        let (entered_tx, entered_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        std::thread::scope(|scope| {
            // Park the protocol thread inside a port call.
            scope.spawn(move || {
                let _ = node.with_stack(move |_, _| {
                    entered_tx.send(()).unwrap();
                    let _ = gate_rx.recv();
                });
            });
            entered_rx.recv().unwrap();
            // Queue Shutdown, then an a-broadcast behind it — exactly
            // what `atomic_broadcast` sends, and the receive it blocks on.
            node.shutdown();
            let (reply, rx) = sync_channel(1);
            let queued = Command::AbBroadcast(Bytes::from_static(b"late"), reply);
            node.cmd_tx.send(Event::Cmd(queued)).unwrap();
            gate_tx.send(()).unwrap();
            assert_eq!(
                rx.recv_timeout(Duration::from_secs(30)),
                Err(RecvTimeoutError::Disconnected)
            );
        });
        // And once the thread is gone the call fails at the send.
        assert_eq!(
            node.atomic_broadcast(Bytes::from_static(b"later")),
            Err(NodeError::Disconnected)
        );
    }

    /// With one peer crashed every quorum of n − f = 3 needs the node's
    /// own vote. The vote never touches the node's link to itself, so
    /// cutting that link costs nothing.
    #[test]
    fn own_copies_never_cross_the_self_link() {
        let (nodes, hub) = Node::cluster_with_hub(&SessionConfig::new(4).unwrap()).unwrap();
        hub.crash(3);
        for p in 0..4 {
            hub.set_link(p, p, false);
        }
        let id = nodes[0]
            .atomic_broadcast(Bytes::from_static(b"quorum of three"))
            .unwrap();
        for node in &nodes[..3] {
            let delivery = node.atomic_recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(delivery.id, id);
        }
    }

    /// A command reaches the protocol thread through the wake, not
    /// through a frame or the idle tick: on a group with nothing to say,
    /// twenty port calls and twenty a-broadcasts come back in far less
    /// than the ≥ 50 ms *each* they would take waiting out the tick.
    #[test]
    fn commands_do_not_wait_for_a_frame_or_the_idle_tick() {
        let (nodes, hub) = Node::cluster_with_hub(&SessionConfig::new(4).unwrap()).unwrap();
        // Nobody else will ever send node 0 a frame.
        for p in 1..4 {
            hub.crash(p);
        }
        let node = &nodes[0];
        let t0 = Instant::now();
        for _ in 0..20 {
            assert_eq!(node.with_stack(|stack, _| stack.id()), Ok(0));
            node.atomic_broadcast(Bytes::from_static(b"idle")).unwrap();
        }
        let took = t0.elapsed();
        assert!(took < 20 * IDLE_TICK / 2, "40 commands took {took:?}");
        assert_eq!(node.metrics().transport_frames_recv.get(), 0);
    }

    /// What a broadcast costs the transport: the INIT and its ECHO leave
    /// in one pass, so each peer gets them as one AH frame of two
    /// records, the sender's own copies going straight back into its
    /// stack.
    #[test]
    fn broadcast_puts_one_ah_frame_per_peer_on_the_transport() {
        let config = SessionConfig::new(4).unwrap();
        let mut hub = Hub::new(4);
        let mut eps = hub.take_endpoints().into_iter();
        let node = Node::new(&config, 0, eps.next().unwrap()).unwrap();
        let peers: Vec<_> = eps.collect();
        node.reliable_broadcast(Bytes::from_static(b"rb")).unwrap();
        // Commands are served in order: when this one returns, the
        // broadcast and everything it set off locally are done.
        node.with_stack(|_, _| ()).unwrap();
        // The INIT, and the ECHO the node's own copy of the INIT set
        // off: two broadcasts, three messages each, both handled at home.
        let m = node.metrics();
        assert_eq!(m.transport_msgs_sent.get(), 2 * 3);
        assert_eq!(m.transport_frames_sent.get(), 3);
        assert_eq!(m.stack_frames_in.get(), 2);
        assert_eq!(m.transport_frames_recv.get(), 0);
        for peer in &peers {
            assert!(peer.try_recv().is_some());
            assert!(peer.try_recv().is_none());
        }
    }

    /// A well-formed stack frame that a peer puts on the wire unsealed
    /// is dropped by the AH layer and held against that peer: the stack
    /// never sees it, so nothing is delivered.
    #[test]
    fn an_unsealed_frame_never_reaches_the_stack() {
        use ritas_metrics::SuspicionKind;
        let config = SessionConfig::new(4).unwrap();
        let mut hub = Hub::new(4);
        let mut eps = hub.take_endpoints().into_iter();
        let node = Node::new(&config, 0, eps.next().unwrap()).unwrap();
        let ep1 = eps.next().unwrap();
        // Peer 1's RB INIT, exactly as its own stack encodes it.
        let table = KeyTable::dealer(4, config.master_seed);
        let mut stack = Stack::new(config.group(), 1, table.view_of(1), 1);
        let (_, step) = stack.rb_broadcast(Bytes::from_static(b"unsealed"));
        ep1.send(0, step.messages[0].message.clone()).unwrap();
        let m = node.metrics();
        let deadline = Instant::now() + Duration::from_secs(5);
        while m.transport_mac_rejected.get() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(m.transport_mac_rejected.get(), 1);
        let suspicions = m.suspicions();
        assert_eq!(suspicions.len(), 1);
        assert_eq!(suspicions[0].peer, 1);
        assert_eq!(suspicions[0].count(SuspicionKind::BadMac), 1);
        assert_eq!(m.stack_frames_in.get(), 0);
        assert_eq!(
            node.rb_recv_timeout(Duration::from_millis(100))
                .unwrap_err(),
            NodeError::Timeout
        );
        node.shutdown();
    }

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut conn = std::net::TcpStream::connect(addr).unwrap();
        conn.write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .unwrap();
        let mut resp = String::new();
        conn.read_to_string(&mut resp).unwrap();
        resp
    }

    #[test]
    fn observability_endpoints_serve_health_state_and_metrics() {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap().with_metrics_endpoint()).unwrap();
        nodes[0]
            .atomic_broadcast(Bytes::from_static(b"probe"))
            .unwrap();
        for n in &nodes {
            n.atomic_recv_timeout(Duration::from_secs(10)).unwrap();
        }
        // The worker refreshes /state at most every 200ms and only while
        // its loop turns: wait out the throttle, then turn the loop again.
        std::thread::sleep(Duration::from_millis(300));
        nodes[0]
            .atomic_broadcast(Bytes::from_static(b"probe2"))
            .unwrap();
        for n in &nodes {
            n.atomic_recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let addr = nodes[1].metrics_addr().unwrap();
        let health = http_get(addr, "/health");
        assert!(health.contains("application/json"), "{health}");
        assert!(health.contains("\"id\":1"), "{health}");
        assert!(health.contains("\"stalled\":false"), "{health}");
        assert!(health.contains("\"suspicions\":[]"), "{health}");
        let state = http_get(addr, "/state");
        assert!(
            state.contains("\"worker\":{"),
            "worker snapshot missing: {state}"
        );
        assert!(state.contains("\"ab\":{"), "{state}");
        assert!(state.contains("\"links\":["), "{state}");
        // Unknown paths (and /metrics) still serve the Prometheus page.
        let prom = http_get(addr, "/metrics");
        assert!(prom.contains("# TYPE ritas_transport_frames_sent counter"));
        let fallback = http_get(addr, "/");
        assert!(fallback.contains("# TYPE"));
        // The endpoint stops with its node: dropped, the port refuses.
        drop(nodes);
        assert!(
            std::net::TcpStream::connect(addr).is_err(),
            "endpoint outlived its node"
        );
    }

    /// With a broadcast that can never a-deliver (two of four replicas
    /// gone) and the protocol thread parked inside a port call,
    /// `is_stalled` and `/health` still flip once the budget runs out:
    /// the verdict is computed where it is read. The thread counts the
    /// stall when it turns again.
    #[test]
    fn a_wedged_protocol_thread_still_reads_as_stalled() {
        let budget = Duration::from_millis(200);
        let config = SessionConfig::new(4).unwrap().with_metrics_endpoint();
        let mut nodes = Node::cluster(config.with_stall_budget(budget)).unwrap();
        nodes.truncate(2);
        let node = &nodes[0];
        let addr = node.metrics_addr().unwrap();
        node.atomic_broadcast(Bytes::from_static(b"stuck")).unwrap();
        let wait_for = |what: &str, cond: &dyn Fn() -> bool| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while !cond() {
                assert!(Instant::now() < deadline, "{what}");
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        wait_for("never pending", &|| {
            http_get(addr, "/health").contains("\"pending\":true")
        });
        let (entered_tx, entered_rx) = channel();
        let (gate_tx, gate_rx) = channel::<()>();
        std::thread::scope(|scope| {
            scope.spawn(move || {
                node.with_stack(move |_, _| {
                    entered_tx.send(()).unwrap();
                    let _ = gate_rx.recv();
                })
            });
            entered_rx.recv().unwrap();
            let counted = node.metrics().node_stalls_total.get();
            wait_for("never stalled", &|| node.is_stalled());
            let health = http_get(addr, "/health");
            assert!(health.contains("\"stalled\":true"), "{health}");
            assert_eq!(node.metrics().node_stalls_total.get(), counted);
            gate_tx.send(()).unwrap();
            let stalls = &node.metrics().node_stalls_total;
            wait_for("never counted", &|| stalls.get() > counted);
        });
        let events = node.metrics().flight().events();
        assert!(events.iter().any(|e| e.kind == FlightKind::Stall));
    }

    #[test]
    fn flight_dump_is_parseable() {
        let dir = std::env::temp_dir().join(format!(
            "ritas-flight-test-{}-{}",
            std::process::id(),
            std::thread::current().name().unwrap_or("t").len()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        nodes[2].enable_flight_dump(&dir, "node2");
        nodes[0]
            .atomic_broadcast(Bytes::from_static(b"record me"))
            .unwrap();
        for n in &nodes {
            n.atomic_recv_timeout(Duration::from_secs(10)).unwrap();
        }
        let written = ritas_metrics::flight::dump_registered();
        let path = dir.join("flight-node2.bin");
        assert!(written.contains(&path), "{written:?}");
        let events = ritas_metrics::flight::parse(&std::fs::read(&path).unwrap()).unwrap();
        assert!(
            events.iter().any(|e| e.kind == FlightKind::FrameIn),
            "no inbound frames recorded"
        );
        assert!(
            events.iter().any(|e| e.kind == FlightKind::Deliver),
            "no delivery recorded"
        );
        let _ = std::fs::remove_dir_all(&dir);
        for n in &nodes {
            n.shutdown();
        }
    }

    #[test]
    fn cluster_span_dumps_correlate_quorum_arrivals() {
        use ritas_metrics::cluster::{estimate_skews, laggard_counts, quorum_rows, ReplicaTrace};
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        for n in &nodes {
            n.atomic_broadcast(Bytes::copy_from_slice(format!("c{}", n.id()).as_bytes()))
                .unwrap();
        }
        for n in &nodes {
            for _ in 0..4 {
                n.atomic_recv_timeout(Duration::from_secs(10)).unwrap();
            }
        }
        let traces: Vec<ReplicaTrace> = nodes
            .iter()
            .map(|n| ReplicaTrace {
                replica: n.id() as u32,
                spans: n.metrics().spans(),
            })
            .collect();
        let skews = estimate_skews(&traces);
        assert_eq!(skews.len(), 4);
        let rows = quorum_rows(&traces, &skews);
        assert!(!rows.is_empty(), "no quorum arrivals attributed");
        // Every attributed closer must be a real group member.
        assert!(rows.iter().all(|r| r.completed_by < 4), "{rows:?}");
        let laggards = laggard_counts(&rows);
        assert!(laggards.values().sum::<u64>() as usize == rows.len());
        for n in &nodes {
            n.shutdown();
        }
    }
}
