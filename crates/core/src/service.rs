//! The **service wiring layer**: everything needed to expose a
//! [`Replica`](crate::rsm::Replica) as an intrusion-tolerant *service*
//! that external clients can call — the paper's title promise ("…
//! Asynchronous **Services**") beyond the in-process protocol stack.
//!
//! The pieces, bottom-up:
//!
//! * [`ServiceCommand`] — the replicated command envelope `(client, seq,
//!   kind, payload)` that travels through atomic broadcast. Carrying the
//!   client identity and sequence number *inside* the ordered command is
//!   what makes retry deduplication deterministic: every correct replica
//!   sees the same duplicates at the same positions and skips them
//!   identically. The AB layer batches commands for throughput, but the
//!   total order it delivers is still *per command*, so this property is
//!   unchanged — including when the two copies of a retried command land
//!   in different batches.
//! * [`SessionTable`] — a bounded per-client table `(client, seq) →
//!   cached reply` with LRU eviction. Each replica holds one, inside the
//!   replicated state machine: it discharges exactly-once applies and
//!   answers retries from cache without re-ordering.
//! * [`ServiceReplica`] — wraps a [`Node`] into a replica whose apply
//!   function returns a **reply** per command — the write's, or the
//!   read-only query's evaluated at the command's position in the total
//!   order — records it in the session table, and wakes request waiters
//!   after local apply.
//!
//! The network face of this module (framed, HMAC-authenticated client
//! connections, reply voting, retries) lives in the `ritas-service`
//! crate; this module is transport-free so the same wiring also serves
//! in-process tests and the simulator.

use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::node::{Node, NodeError};
use crate::recovery::scheduler::{RotationConfig, RotationState};
use crate::recovery::{Hash, RecoveryConfig, RecoveryConfigError, SnapshotState};
use crate::rsm::Replica;
use bytes::Bytes;
use ritas_metrics::{unpoison, Layer, Metrics};
use std::collections::HashMap;
use std::convert::Infallible;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identifier of an external service client (disjoint from replica
/// [`ProcessId`](crate::ProcessId)s — clients are *not* group members).
pub type ClientId = u64;

/// Default bound on tracked client sessions per table.
pub const SESSION_TABLE_CAPACITY: usize = 4096;

/// What a client asks the service to do with a payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandKind {
    /// Apply the payload to the replicated state (the write path).
    Apply,
    /// Evaluate the read-only query at the command's position in the
    /// total order (a read).
    OrderedRead,
}

/// The envelope ordered through atomic broadcast for every client
/// request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceCommand {
    /// The requesting client.
    pub client: ClientId,
    /// The client's session sequence number (starts at 1, gap-free).
    pub seq: u64,
    /// Write or ordered read.
    pub kind: CommandKind,
    /// Opaque application payload.
    pub payload: Bytes,
}

impl WireMessage for ServiceCommand {
    fn encode(&self, w: &mut Writer) {
        w.u8(match self.kind {
            CommandKind::Apply => 1,
            CommandKind::OrderedRead => 2,
        })
        .u64(self.client)
        .u64(self.seq)
        .bytes(&self.payload);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let kind = match r.u8("svc.kind")? {
            1 => CommandKind::Apply,
            2 => CommandKind::OrderedRead,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "svc.kind",
                    tag,
                })
            }
        };
        Ok(ServiceCommand {
            kind,
            client: r.u64("svc.client")?,
            seq: r.u64("svc.seq")?,
            payload: r.bytes("svc.payload")?,
        })
    }
}

/// Outcome of a [`SessionTable`] lookup for an incoming request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SessionCheck {
    /// Not applied yet: submit it, or wait for its apply.
    New,
    /// Already applied; here is the cached reply.
    Cached(Bytes),
    /// `seq` is older than the session's last applied request and its
    /// reply is gone — the client has already moved past it.
    Stale,
}

#[derive(Debug, Default)]
struct Session {
    /// Highest applied sequence number (0 = none yet).
    last_seq: u64,
    /// Reply of the last applied request.
    last_reply: Option<Bytes>,
    /// LRU stamp (monotone per table).
    stamp: u64,
}

/// A bounded table of client sessions: per client, the last applied
/// `(seq, reply)` pair.
///
/// Each replica holds exactly one, inside its replicated state, and only
/// the apply path writes it — so every correct replica makes the same
/// dedup decisions and the same evictions. Eviction policy: inserting a
/// *new* client past the capacity evicts the least-recently-used session.
/// Requests still in flight are not in the table: they are local
/// knowledge (the [`ServiceReplica`]'s waiter map), which must never
/// steer a replicated eviction.
#[derive(Debug)]
pub struct SessionTable {
    cap: usize,
    clients: HashMap<ClientId, Session>,
    clock: u64,
}

impl SessionTable {
    /// Creates a table bounded to `cap` client sessions (`cap >= 1`).
    pub fn new(cap: usize) -> Self {
        SessionTable {
            cap: cap.max(1),
            clients: HashMap::new(),
            clock: 0,
        }
    }

    /// Number of tracked client sessions.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether no session is tracked.
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// Classifies request `(client, seq)` against the table.
    pub fn check(&self, client: ClientId, seq: u64) -> SessionCheck {
        match self.clients.get(&client) {
            None => SessionCheck::New,
            Some(s) if seq == s.last_seq => match &s.last_reply {
                Some(r) => SessionCheck::Cached(r.clone()),
                None => SessionCheck::Stale,
            },
            Some(s) if seq < s.last_seq => SessionCheck::Stale,
            Some(_) => SessionCheck::New,
        }
    }

    /// Whether `(client, seq)` has already been applied (the replicated
    /// dedup predicate: every correct replica answers identically).
    pub fn is_applied(&self, client: ClientId, seq: u64) -> bool {
        self.clients.get(&client).is_some_and(|s| seq <= s.last_seq)
    }

    /// Cached reply for `(client, seq)`, when the table still holds it.
    pub fn cached(&self, client: ClientId, seq: u64) -> Option<Bytes> {
        self.clients
            .get(&client)
            .filter(|s| s.last_seq == seq)
            .and_then(|s| s.last_reply.clone())
    }

    /// Records the applied reply for `(client, seq)`, creating the
    /// session — and evicting the least-recently-used one to make room —
    /// when the client is new.
    pub fn complete(&mut self, client: ClientId, seq: u64, reply: Bytes) {
        if !self.clients.contains_key(&client) {
            self.make_room();
        }
        self.clock += 1;
        let s = self.clients.entry(client).or_default();
        if seq >= s.last_seq {
            s.last_seq = seq;
            s.last_reply = Some(reply);
        }
        s.stamp = self.clock;
    }

    /// Evicts the least-recently-used session when the table is full.
    fn make_room(&mut self) {
        if self.clients.len() < self.cap {
            return;
        }
        let victim = self.clients.iter().min_by_key(|(_, s)| s.stamp);
        if let Some(c) = victim.map(|(c, _)| *c) {
            self.clients.remove(&c);
        }
    }
}

/// Canonical encoding of the session table for snapshots:
/// `cap | clock | count`, then per session, sorted by client id,
/// `id | last_seq | stamp | has_reply | reply`.
///
/// Everything that influences replicated behavior is included: the LRU
/// clock and per-session stamps drive eviction decisions, which are part
/// of the deterministic apply path, so a restored replica must make the
/// same evictions as its peers. Clients encode sorted by id (the map is
/// unordered in memory), so equal tables always produce equal bytes —
/// snapshot digests are vote-compared across replicas.
impl SnapshotState for SessionTable {
    fn encode_snapshot(&self, w: &mut Writer) {
        w.u64(self.cap as u64)
            .u64(self.clock)
            .u32(self.clients.len() as u32);
        let mut ids: Vec<ClientId> = self.clients.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let s = &self.clients[&id];
            w.u64(id).u64(s.last_seq).u64(s.stamp);
            match &s.last_reply {
                Some(reply) => {
                    w.u8(1).bytes(reply);
                }
                None => {
                    w.u8(0);
                }
            }
        }
    }

    /// The session count is bounded by the capacity the snapshot encodes,
    /// so garbage cannot make the decoder allocate unboundedly.
    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let cap = (r.u64("sess.cap")? as usize).max(1);
        let clock = r.u64("sess.clock")?;
        let count = r.u32("sess.count")? as usize;
        if count > cap {
            return Err(WireError::FieldTooLong {
                what: "sess.count",
                len: count,
            });
        }
        let mut clients = HashMap::new();
        for _ in 0..count {
            let id = r.u64("sess.client")?;
            let session = Session {
                last_seq: r.u64("sess.last_seq")?,
                stamp: r.u64("sess.stamp")?,
                last_reply: match r.u8("sess.has_reply")? {
                    0 => None,
                    _ => Some(r.bytes("sess.reply")?),
                },
            };
            clients.insert(id, session);
        }
        Ok(SessionTable {
            cap,
            clients,
            clock,
        })
    }
}

/// Errors surfaced by the service wiring layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The underlying node failed (shut down, protocol error).
    Node(NodeError),
    /// The request did not apply within the deadline (it may still apply
    /// later — retry against this or another replica; dedup makes the
    /// retry safe).
    Timeout,
    /// `session_capacity` requests submitted through this replica are
    /// still in flight (admission control) — back off and retry.
    Busy,
    /// `seq` is older than the client's last applied request and its
    /// cached reply is gone.
    Stale,
}

impl core::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ServiceError::Node(e) => write!(f, "node error: {e}"),
            ServiceError::Timeout => write!(f, "request did not apply in time"),
            ServiceError::Busy => write!(f, "too many requests in flight (busy)"),
            ServiceError::Stale => write!(f, "stale sequence number"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<NodeError> for ServiceError {
    fn from(e: NodeError) -> Self {
        ServiceError::Node(e)
    }
}

/// The replicated state wrapper: the application state plus the
/// *replicated* session table (dedup state is part of the state machine,
/// so every correct replica skips the same duplicates).
struct ServiceState<S> {
    app: S,
    sessions: SessionTable,
}

/// Snapshots capture the app state *and* the replicated session table:
/// restoring one without the other would either lose application data or
/// forget which `(client, seq)` pairs already applied — exactly the
/// state that keeps a retry across the snapshot boundary exactly-once.
impl<S: SnapshotState> SnapshotState for ServiceState<S> {
    fn encode_snapshot(&self, w: &mut Writer) {
        self.app.encode_snapshot(w);
        self.sessions.encode_snapshot(w);
    }

    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ServiceState {
            app: S::decode_snapshot(r)?,
            sessions: SessionTable::decode_snapshot(r)?,
        })
    }
}

/// One caller blocked on a reply: the ticket it withdraws itself by on
/// timeout, and where the reply goes.
struct Waiter {
    ticket: u64,
    tx: SyncSender<Bytes>,
}

/// A caller registered on a request: its ticket and reply channel.
type Ticket = (u64, Receiver<Bytes>);

/// The callers waiting on one `(client, seq)`.
#[derive(Default)]
struct Pending {
    /// Whether this replica a-broadcast the command. The request is then
    /// in flight here until it applies, however many of its callers time
    /// out, so a retry merges onto it instead of ordering a second copy.
    submitted: bool,
    waiters: Vec<Waiter>,
}

/// Every request this replica waits on — the only record of in-flight
/// requests. An entry lives until its command applies, its submit fails,
/// (when not submitted here) its last caller times out, or the replica
/// shuts down.
#[derive(Default)]
struct Waiters {
    next_ticket: u64,
    /// Entries with `submitted` set.
    submitted: usize,
    by_request: HashMap<(ClientId, u64), Pending>,
    /// Set at shutdown: every caller was woken, and no caller registers.
    closed: bool,
}

impl Waiters {
    /// Registers a caller on `key`, marking the entry submitted when
    /// `submit` is set.
    fn register(&mut self, key: (ClientId, u64), submit: bool) -> Ticket {
        let (tx, rx) = sync_channel(1);
        self.next_ticket += 1;
        let ticket = self.next_ticket;
        let entry = self.by_request.entry(key).or_default();
        if submit && !entry.submitted {
            entry.submitted = true;
            self.submitted += 1;
        }
        entry.waiters.push(Waiter { ticket, tx });
        (ticket, rx)
    }

    /// Removes the entry of `key`, returning its callers.
    fn remove(&mut self, key: (ClientId, u64)) -> Vec<Waiter> {
        let entry = self.by_request.remove(&key).unwrap_or_default();
        self.submitted -= usize::from(entry.submitted);
        entry.waiters
    }

    /// Removes one caller's waiter, leaving any other caller merged on
    /// the same `key` waiting; an entry not submitted here goes with its
    /// last caller.
    fn withdraw(&mut self, key: (ClientId, u64), ticket: u64) {
        if let Some(entry) = self.by_request.get_mut(&key) {
            entry.waiters.retain(|w| w.ticket != ticket);
            if entry.waiters.is_empty() && !entry.submitted {
                self.by_request.remove(&key);
            }
        }
    }
}

/// What [`ServiceReplica::lookup`] found for a request.
enum Lookup {
    /// Already applied: the cached reply.
    Applied(Bytes),
    /// The caller is registered on the request's entry; `true` when it
    /// must a-broadcast the command itself.
    Waiting(Ticket, bool),
}

/// The span path of request `(client, seq)` — `svc:{client}:{seq}{stage}`,
/// `stage` being `""`, `"/apply"` or `"/reply"` — and the only place the
/// service tier builds one: `None`, with nothing formatted, while tracing
/// is off.
pub fn request_span(metrics: &Metrics, client: ClientId, seq: u64, stage: &str) -> Option<String> {
    metrics
        .tracing_enabled()
        .then(|| format!("svc:{client}:{seq}{stage}"))
}

/// The per-delivery apply closure a [`ServiceReplica`] hands its
/// [`Replica`].
type Applier<S> = Box<dyn FnMut(&mut ServiceState<S>, crate::ProcessId, &[u8]) + Send>;

/// A replica of a deterministic request/reply service.
///
/// `apply` runs once per ordered client command at every replica and
/// returns the reply; `query` evaluates a read-only request at its
/// position in the total order, so every read is ordered like a write.
/// Both must be **deterministic** — replies are vote-compared byte-for-byte
/// across replicas by the client library, so any divergence (clocks,
/// randomness, map iteration order) reads as a Byzantine replica.
///
/// Front-end lookups answer from the replicated session table, under the
/// state lock — so a lookup waits while the applier holds that lock for
/// one batch. A request not yet applied waits in the replica's waiter
/// map, whose entries are the only record of what is in flight here.
///
/// # Example
///
/// ```
/// use ritas::node::{Node, SessionConfig};
/// use ritas::service::{CommandKind, ServiceConfig, ServiceReplica};
/// use bytes::Bytes;
/// use std::time::Duration;
///
/// let nodes = Node::cluster(SessionConfig::new(4)?)?;
/// let replicas: Vec<_> = nodes
///     .into_iter()
///     .map(|n| ServiceReplica::new(
///         n,
///         0u64,
///         ServiceConfig::default(),
///         |count, _client, cmd| {
///             if cmd == b"incr" { *count += 1; }
///             Bytes::from(count.to_be_bytes().to_vec())
///         },
///         |count, _q| Bytes::from(count.to_be_bytes().to_vec()),
///     ))
///     .collect();
/// // A client request (client 9, seq 1) submitted at replica 2 applies
/// // everywhere; the reply is the post-apply counter value.
/// let reply = replicas[2]
///     .submit(9, 1, CommandKind::Apply, Bytes::from_static(b"incr"), Duration::from_secs(10))?;
/// assert_eq!(reply.as_ref(), 1u64.to_be_bytes());
/// // A retry of the same (client, seq) is served from the session
/// // table without a second apply.
/// let again = replicas[2]
///     .submit(9, 1, CommandKind::Apply, Bytes::from_static(b"incr"), Duration::from_secs(10))?;
/// assert_eq!(again, reply);
/// # for r in &replicas { r.shutdown(); }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ServiceReplica<S: Send + 'static> {
    replica: Replica<ServiceState<S>>,
    waiters: Arc<Mutex<Waiters>>,
    metrics: Metrics,
}

/// Tuning for a [`ServiceReplica`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on the session table's clients, and on the requests submitted
    /// through one replica still in flight (past it: [`ServiceError::Busy`]).
    pub session_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            session_capacity: SESSION_TABLE_CAPACITY,
        }
    }
}

impl<S: Send + 'static> ServiceReplica<S> {
    /// Wraps `node` into a service replica over `initial` state.
    pub fn new(
        node: Node,
        initial: S,
        config: ServiceConfig,
        apply: impl FnMut(&mut S, ClientId, &[u8]) -> Bytes + Send + 'static,
        query: impl Fn(&S, &[u8]) -> Bytes + Send + 'static,
    ) -> Self {
        let built = Self::assemble(
            node,
            initial,
            &config,
            apply,
            query,
            |node, state, applier| Ok::<_, Infallible>(Replica::new(node, state, applier)),
        );
        match built {
            Ok(replica) => replica,
            Err(never) => match never {},
        }
    }

    /// The one construction path: builds the waiter map, the replicated
    /// state and the apply closure, and leaves to
    /// `build` only how the [`Replica`] underneath is started.
    fn assemble<E>(
        node: Node,
        initial: S,
        config: &ServiceConfig,
        apply: impl FnMut(&mut S, ClientId, &[u8]) -> Bytes + Send + 'static,
        query: impl Fn(&S, &[u8]) -> Bytes + Send + 'static,
        build: impl FnOnce(Node, ServiceState<S>, Applier<S>) -> Result<Replica<ServiceState<S>>, E>,
    ) -> Result<Self, E> {
        let metrics = node.metrics().clone();
        let waiters = Arc::new(Mutex::new(Waiters::default()));
        let state = ServiceState {
            app: initial,
            sessions: SessionTable::new(config.session_capacity),
        };
        let applier = Self::make_apply(metrics.clone(), Arc::clone(&waiters), apply, query);
        Ok(ServiceReplica {
            replica: build(node, state, Box::new(applier))?,
            waiters,
            metrics,
        })
    }

    /// The shared per-delivery apply closure: decode, replicated dedup,
    /// apply/query, wake local waiters.
    fn make_apply(
        m: Metrics,
        w: Arc<Mutex<Waiters>>,
        mut apply: impl FnMut(&mut S, ClientId, &[u8]) -> Bytes + Send + 'static,
        query: impl Fn(&S, &[u8]) -> Bytes + Send + 'static,
    ) -> impl FnMut(&mut ServiceState<S>, crate::ProcessId, &[u8]) + Send + 'static {
        move |state, _submitter, cmd| {
            let Ok(c) = ServiceCommand::from_bytes(cmd) else {
                // A correct front-end only ever submits well-formed
                // commands; garbage here means a Byzantine replica
                // injected into the ordered stream. Skipping it uniformly
                // keeps all correct replicas in the same state.
                return;
            };
            let reply = if state.sessions.is_applied(c.client, c.seq) {
                // Ordered duplicate: a retry submitted at another replica
                // was ordered after the original. Apply exactly once.
                m.service_dup_apply_skipped.inc();
                state.sessions.cached(c.client, c.seq)
            } else {
                let span = request_span(&m, c.client, c.seq, "/apply");
                if let Some(span) = &span {
                    m.span_open(span.as_str(), Layer::Service);
                }
                let reply = match c.kind {
                    CommandKind::Apply => (apply)(&mut state.app, c.client, &c.payload),
                    CommandKind::OrderedRead => {
                        m.service_reads_ordered.inc();
                        query(&state.app, &c.payload)
                    }
                };
                if let Some(span) = &span {
                    m.span_close(span);
                }
                m.service_commands_applied.inc();
                state.sessions.complete(c.client, c.seq, reply.clone());
                m.service_sessions_live.set(state.sessions.len() as u64);
                Some(reply)
            };
            // The request is no longer in flight here: wake its callers.
            let mut waiters = unpoison(w.lock());
            let woken = waiters.remove((c.client, c.seq));
            m.service_inflight.set(waiters.submitted as u64);
            drop(waiters);
            if let Some(reply) = reply {
                for waiter in woken {
                    let _ = waiter.tx.send(reply.clone());
                }
            }
        }
    }

    /// This replica's process id.
    pub fn id(&self) -> crate::ProcessId {
        self.replica.id()
    }

    /// Group size of the underlying session.
    pub fn group_size(&self) -> usize {
        self.replica.node().group_size()
    }

    /// The metrics registry shared with the underlying node.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Handles one client request end-to-end: dedup against the session
    /// table, submit through atomic broadcast when new, block until the
    /// command applies locally, return the reply.
    ///
    /// Safe to call concurrently from many connection threads; retries of
    /// a `(client, seq)` already submitted here merge onto its waiter-map
    /// entry instead of re-submitting — also after the first caller timed
    /// out.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Timeout`] when the command did not apply within
    /// `timeout` (it may still apply later — retrying is safe),
    /// [`ServiceError::Busy`] under in-flight admission control,
    /// [`ServiceError::Stale`] for sequence numbers older than the
    /// session's last reply, [`ServiceError::Node`] when the node is
    /// gone.
    pub fn submit(
        &self,
        client: ClientId,
        seq: u64,
        kind: CommandKind,
        payload: Bytes,
        timeout: Duration,
    ) -> Result<Bytes, ServiceError> {
        let (waiter, needs_submit) = match self.lookup(client, seq, true)? {
            Lookup::Applied(reply) => return Ok(reply),
            Lookup::Waiting(waiter, needs_submit) => (waiter, needs_submit),
        };
        let spans = request_span(&self.metrics, client, seq, "")
            .map(|request| (format!("{request}/ab"), request));
        let close_spans = || {
            if let Some((ab, request)) = &spans {
                self.metrics.span_close(ab);
                self.metrics.span_close(request);
            }
        };
        if needs_submit {
            if let Some((ab, request)) = &spans {
                self.metrics.span_open(request.as_str(), Layer::Service);
                self.metrics.span_open(ab.as_str(), Layer::Service);
            }
            let cmd = ServiceCommand {
                client,
                seq,
                kind,
                payload,
            };
            if let Err(e) = self.replica.submit(cmd.to_bytes()) {
                // The command never entered the ordered stream, so no apply
                // will remove its entry; left, it would make every retry
                // merge onto a request that is in flight nowhere.
                close_spans();
                let mut w = unpoison(self.waiters.lock());
                w.remove((client, seq));
                self.metrics.service_inflight.set(w.submitted as u64);
                return Err(ServiceError::Node(e));
            }
        }
        let reply = self.wait_reply(client, seq, waiter, timeout)?;
        close_spans();
        Ok(reply)
    }

    /// Waits for `(client, seq)` to apply locally **without submitting
    /// it** — the *observer* leg of the client's fan-out: the client
    /// submits at `f+1` replicas (at least one correct, so ordering is
    /// guaranteed) and merely observes at the rest, which answer from
    /// their own apply of the same ordered command without injecting
    /// duplicates into the ordered stream. An observer does not make the
    /// request in flight: a later [`ServiceReplica::submit`] of it here
    /// still submits.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Timeout`] when nothing applied in time (the
    /// command may not have been submitted anywhere yet),
    /// [`ServiceError::Stale`] for a sequence number already surpassed.
    pub fn await_reply(
        &self,
        client: ClientId,
        seq: u64,
        timeout: Duration,
    ) -> Result<Bytes, ServiceError> {
        match self.lookup(client, seq, false)? {
            Lookup::Applied(reply) => Ok(reply),
            Lookup::Waiting(waiter, _) => self.wait_reply(client, seq, waiter, timeout),
        }
    }

    /// The lookup behind [`ServiceReplica::submit`] (`submitting`) and
    /// [`ServiceReplica::await_reply`]: the cached reply when
    /// `(client, seq)` already applied, else the caller registered on its
    /// waiter-map entry — plus, for a submitter, whether no earlier
    /// caller here submitted it. The session-table check and the
    /// registration run under the state lock, which the apply closure
    /// holds while it takes the waiter lock, so no apply can land between
    /// them and leave the caller unwoken.
    fn lookup(&self, client: ClientId, seq: u64, submitting: bool) -> Result<Lookup, ServiceError> {
        self.metrics.service_requests_total.inc();
        self.replica.read(|state| {
            match state.sessions.check(client, seq) {
                SessionCheck::Cached(reply) => {
                    self.metrics.service_dedup_hits.inc();
                    return Ok(Lookup::Applied(reply));
                }
                SessionCheck::Stale => return Err(ServiceError::Stale),
                SessionCheck::New => {}
            }
            let (mut w, key) = (unpoison(self.waiters.lock()), (client, seq));
            if w.closed {
                return Err(ServiceError::Node(NodeError::Disconnected));
            }
            let in_flight = w.by_request.get(&key).is_some_and(|e| e.submitted);
            let needs_submit = submitting && !in_flight;
            if needs_submit && w.submitted >= state.sessions.cap {
                self.metrics.service_busy_rejected.inc();
                return Err(ServiceError::Busy);
            }
            if submitting && in_flight {
                self.metrics.service_dedup_hits.inc();
            }
            let waiter = w.register(key, needs_submit);
            self.metrics.service_inflight.set(w.submitted as u64);
            Ok(Lookup::Waiting(waiter, needs_submit))
        })
    }

    /// Blocks on a registered waiter. A caller whose command does not
    /// apply in time withdraws its waiter: nothing else would ever remove
    /// it if the command is never submitted anywhere. One whose waiter
    /// went at shutdown returns at once.
    fn wait_reply(
        &self,
        client: ClientId,
        seq: u64,
        (ticket, rx): Ticket,
        timeout: Duration,
    ) -> Result<Bytes, ServiceError> {
        rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Disconnected => ServiceError::Node(NodeError::Disconnected),
            RecvTimeoutError::Timeout => {
                unpoison(self.waiters.lock()).withdraw((client, seq), ticket);
                ServiceError::Timeout
            }
        })
    }

    /// Reads the application state under the replica lock (local tests
    /// and the integration suites' exactly-once audits).
    pub fn read_state<R>(&self, f: impl FnOnce(&S) -> R) -> R {
        self.replica.read(|s| f(&s.app))
    }

    /// A linearization barrier on the underlying replica.
    ///
    /// # Errors
    ///
    /// [`NodeError::Disconnected`] if the node has shut down.
    pub fn barrier(&self) -> Result<(), NodeError> {
        self.replica.barrier()
    }

    /// The underlying node: its [`Node::with_stack`] port lets
    /// service-level tests audit the batched ordering path (protocol
    /// stats, agreement round) without a pass-through per question.
    pub fn node(&self) -> &Node {
        self.replica.node()
    }

    /// Shuts the underlying node down, first dropping every registered
    /// waiter: a caller blocked in [`ServiceReplica::submit`] or
    /// [`ServiceReplica::await_reply`] returns [`NodeError::Disconnected`]
    /// at once instead of at its timeout, and later calls return it too.
    pub fn shutdown(&self) {
        {
            let mut w = unpoison(self.waiters.lock());
            w.closed = true;
            w.by_request.clear();
            w.submitted = 0;
            self.metrics.service_inflight.set(0);
        }
        self.replica.shutdown();
    }
}

impl<S: SnapshotState + Send + 'static> ServiceReplica<S> {
    /// Like [`ServiceReplica::new`] with the recovery pipeline active:
    /// the replica snapshots the app state *and* the replicated session
    /// table at every `recovery.snapshot_every` stream boundary and
    /// serves state transfer to rejoining peers (see
    /// [`Replica::with_recovery`]).
    ///
    /// # Errors
    ///
    /// Returns a [`RecoveryConfigError`] when `recovery` contains a
    /// zero field — rejected before any thread spawns.
    pub fn with_recovery(
        node: Node,
        initial: S,
        config: ServiceConfig,
        recovery: RecoveryConfig,
        apply: impl FnMut(&mut S, ClientId, &[u8]) -> Bytes + Send + 'static,
        query: impl Fn(&S, &[u8]) -> Bytes + Send + 'static,
    ) -> Result<Self, RecoveryConfigError> {
        Self::assemble(
            node,
            initial,
            &config,
            apply,
            query,
            |node, state, applier| Replica::with_recovery(node, state, recovery, applier),
        )
    }

    /// Rebuilds a wiped service replica from its peers via snapshot
    /// transfer and Merkle anti-entropy (see [`Replica::rejoin`]). The
    /// restored replicated session table keeps retried `(client, seq)`
    /// pairs exactly-once across the snapshot boundary: an ordered
    /// duplicate of a pre-snapshot command is skipped by the restored
    /// dedup state, not re-applied.
    ///
    /// # Errors
    ///
    /// As [`ServiceReplica::with_recovery`].
    pub fn rejoin(
        node: Node,
        initial: S,
        config: ServiceConfig,
        recovery: RecoveryConfig,
        stale: Option<Bytes>,
        apply: impl FnMut(&mut S, ClientId, &[u8]) -> Bytes + Send + 'static,
        query: impl Fn(&S, &[u8]) -> Bytes + Send + 'static,
    ) -> Result<Self, RecoveryConfigError> {
        Self::assemble(
            node,
            initial,
            &config,
            apply,
            query,
            |node, state, applier| Replica::rejoin(node, state, recovery, stale, applier),
        )
    }

    /// The latest local snapshot digest as `(seq, merkle_root)` — equal
    /// across correct replicas at equal `seq`. `None` for replicas built
    /// without recovery or before the first snapshot boundary.
    pub fn snapshot_digest(&self) -> Option<(u64, Hash)> {
        self.replica.snapshot_digest()
    }

    /// The encoded bytes of the latest local snapshot (see
    /// [`Replica::latest_snapshot_bytes`]) — the `stale` image for a
    /// later [`ServiceReplica::rejoin`].
    pub fn latest_snapshot_bytes(&self) -> Option<Bytes> {
        self.replica.latest_snapshot_bytes()
    }

    /// Arms the proactive-recovery rotation driver on the underlying
    /// replica (see [`Replica::start_rotation`]): `on_wipe(epoch)` fires
    /// when this replica's ordered wipe slot opens and it is healthy
    /// enough to take it.
    pub fn start_rotation(&self, cfg: RotationConfig, on_wipe: impl Fn(u64) + Send + 'static) {
        self.replica.start_rotation(cfg, on_wipe);
    }

    /// The replicated rotation-coordinator state (see
    /// [`Replica::rotation_state`]).
    pub fn rotation_state(&self) -> Option<RotationState> {
        self.replica.rotation_state()
    }

    /// The underlying node's current transport key epoch — the epoch its
    /// outbound frames are sealed under after rotation rekeys.
    pub fn key_epoch(&self) -> u64 {
        self.replica.node().key_epoch()
    }
}

impl<S: Send + 'static> core::fmt::Debug for ServiceReplica<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceReplica")
            .field("id", &self.replica.id())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::SessionConfig;
    use std::sync::Barrier;

    type Counters = Vec<Arc<ServiceReplica<u64>>>;

    fn counters(n: usize) -> Counters {
        let nodes = Node::cluster(SessionConfig::new(n).unwrap()).unwrap();
        counters_on(nodes, SESSION_TABLE_CAPACITY, Duration::ZERO)
    }

    /// Counter replicas over `nodes`, each apply stretched by `delay`.
    fn counters_on(nodes: Vec<Node>, session_capacity: usize, delay: Duration) -> Counters {
        nodes
            .into_iter()
            .map(|node| {
                Arc::new(ServiceReplica::new(
                    node,
                    0u64,
                    ServiceConfig { session_capacity },
                    move |count, _client, cmd| {
                        std::thread::sleep(delay);
                        if cmd == b"incr" {
                            *count += 1;
                        }
                        Bytes::from(count.to_be_bytes().to_vec())
                    },
                    |count, _q| Bytes::from(count.to_be_bytes().to_vec()),
                ))
            })
            .collect()
    }

    const T: Duration = Duration::from_secs(20);

    fn incr() -> Bytes {
        Bytes::from_static(b"incr")
    }

    #[test]
    fn command_codec_roundtrip() {
        for kind in [CommandKind::Apply, CommandKind::OrderedRead] {
            let c = ServiceCommand {
                client: 77,
                seq: 3,
                kind,
                payload: Bytes::from_static(b"body"),
            };
            assert_eq!(ServiceCommand::from_bytes(&c.to_bytes()).unwrap(), c);
        }
        assert!(ServiceCommand::from_bytes(&[9, 0, 0]).is_err());
    }

    #[test]
    fn submit_applies_and_retry_hits_cache() {
        let replicas = counters(4);
        let r0 = Arc::clone(&replicas[0]);
        let reply = r0.submit(5, 1, CommandKind::Apply, incr(), T).unwrap();
        assert_eq!(reply.as_ref(), 1u64.to_be_bytes());
        // Retry of the same (client, seq): served from the session table,
        // no second apply.
        let again = r0.submit(5, 1, CommandKind::Apply, incr(), T).unwrap();
        assert_eq!(again, reply);
        assert_eq!(r0.metrics().service_dedup_hits.get(), 1);
        assert_eq!(r0.read_state(|c| *c), 1);
        // A second sequence number applies normally.
        let next = r0.submit(5, 2, CommandKind::Apply, incr(), T).unwrap();
        assert_eq!(next.as_ref(), 2u64.to_be_bytes());
        // The replica layer sends no reply; its front-end counts those.
        assert_eq!(r0.metrics().service_replies_total.get(), 0);
        // One lookup per submit.
        assert_eq!(r0.metrics().service_requests_total.get(), 3);
        for r in &replicas {
            r.shutdown();
        }
    }

    /// DESIGN.md §5b at the service tier: with tracing off a request
    /// builds no span path and records no span; switched on, the next
    /// request records every stage.
    #[test]
    fn tracing_off_builds_and_records_no_request_span() {
        let replicas = counters(4);
        let request_spans = |r: &ServiceReplica<u64>| -> Vec<String> {
            let mut paths: Vec<String> = r
                .metrics()
                .spans()
                .into_iter()
                .map(|s| s.path)
                .filter(|p| p.starts_with("svc:"))
                .collect();
            paths.sort();
            paths
        };
        let applied_everywhere = |count: u64| {
            let deadline = std::time::Instant::now() + T;
            while replicas
                .iter()
                .any(|r| r.metrics().service_commands_applied.get() < count)
            {
                assert!(
                    std::time::Instant::now() < deadline,
                    "apply {count} missing"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        for r in &replicas {
            r.metrics().set_tracing(false);
        }
        let r0 = &replicas[0];
        r0.submit(5, 1, CommandKind::Apply, incr(), T).unwrap();
        applied_everywhere(1);
        for r in &replicas {
            assert_eq!(request_spans(r), Vec::<String>::new());
            assert_eq!(request_span(r.metrics(), 5, 1, "/apply"), None);
        }
        for r in &replicas {
            r.metrics().set_tracing(true);
        }
        r0.submit(5, 2, CommandKind::Apply, incr(), T).unwrap();
        applied_everywhere(2);
        assert_eq!(
            request_spans(r0),
            ["svc:5:2", "svc:5:2/ab", "svc:5:2/apply"]
        );
        assert_eq!(request_spans(&replicas[1]), ["svc:5:2/apply"]);
    }

    #[test]
    fn duplicate_submission_across_replicas_applies_once() {
        let replicas = counters(4);
        // The same (client, seq) lands at two different replicas — the
        // retry-after-failover pattern. Both order it; exactly one apply.
        // Nothing orders until both are in flight: else the second
        // replica may find the first copy applied and answer from cache.
        let (held, go) = (Arc::new(Barrier::new(5)), Arc::new(Barrier::new(5)));
        for r in &replicas {
            let (r, held, go) = (Arc::clone(r), Arc::clone(&held), Arc::clone(&go));
            std::thread::spawn(move || {
                r.node().with_stack(move |_, _| {
                    held.wait();
                    go.wait();
                })
            });
        }
        held.wait();
        let submit = |r: &Arc<ServiceReplica<u64>>| {
            let r = Arc::clone(r);
            std::thread::spawn(move || r.submit(9, 1, CommandKind::Apply, incr(), T))
        };
        let (h0, h1) = (submit(&replicas[0]), submit(&replicas[1]));
        while replicas[..2]
            .iter()
            .any(|r| r.metrics().service_inflight.get() == 0)
        {
            std::thread::sleep(Duration::from_millis(1));
        }
        go.wait();
        let a = h0.join().unwrap().unwrap();
        let b = h1.join().unwrap().unwrap();
        assert_eq!(a.as_ref(), 1u64.to_be_bytes());
        assert_eq!(a, b, "both submitters must observe the same reply");
        for r in &replicas {
            r.barrier().unwrap();
            assert_eq!(r.read_state(|c| *c), 1, "applied exactly once");
        }
        let skipped: u64 = replicas
            .iter()
            .map(|r| r.metrics().service_dup_apply_skipped.get())
            .sum();
        assert!(skipped > 0, "the ordered duplicate must be counted");
        for r in &replicas {
            r.shutdown();
        }
    }

    #[test]
    fn ordered_read_sees_prior_writes() {
        let replicas = counters(4);
        let r2 = &replicas[2];
        r2.submit(3, 1, CommandKind::Apply, incr(), T).unwrap();
        let read = r2.submit(3, 2, CommandKind::OrderedRead, Bytes::new(), T);
        assert_eq!(read.unwrap().as_ref(), 1u64.to_be_bytes());
        assert!(r2.metrics().service_reads_ordered.get() >= 1);
        for r in &replicas {
            r.shutdown();
        }
    }

    #[test]
    fn session_table_check_transitions() {
        let mut t = SessionTable::new(8);
        assert_eq!(t.check(1, 1), SessionCheck::New);
        t.complete(1, 1, Bytes::from_static(b"r1"));
        assert_eq!(
            t.check(1, 1),
            SessionCheck::Cached(Bytes::from_static(b"r1"))
        );
        assert!(t.is_applied(1, 1));
        assert_eq!(t.cached(1, 1), Some(Bytes::from_static(b"r1")));
        t.complete(1, 2, Bytes::from_static(b"r2"));
        assert_eq!(t.check(1, 1), SessionCheck::Stale);
        assert_eq!(t.check(1, 3), SessionCheck::New);
    }

    /// In flight = a waiter-map entry submitted here: it merges retries,
    /// bounds admission, outlives the replicated table's evictions, and
    /// goes when its command applies, whoever ordered it.
    #[test]
    fn in_flight_requests_merge_retries_and_bound_admission() {
        let (nodes, hub) = Node::cluster_with_hub(&SessionConfig::new(4).unwrap()).unwrap();
        let replicas = counters_on(nodes, 2, Duration::ZERO);
        // Replica 0's broadcasts go nowhere: what it submits stays in flight.
        for to in 1..4 {
            hub.set_link(0, to, false);
        }
        let (r0, short) = (&replicas[0], Duration::from_millis(50));
        let submit = |r: &ServiceReplica<u64>, client, timeout| {
            r.submit(client, 1, CommandKind::Apply, incr(), timeout)
        };
        for client in [1, 1, 2] {
            assert_eq!(submit(r0, client, short), Err(ServiceError::Timeout));
        }
        assert_eq!(r0.metrics().service_dedup_hits.get(), 1, "retry merged");
        assert_eq!(r0.metrics().service_inflight.get(), 2);
        assert_eq!(submit(r0, 3, short), Err(ServiceError::Busy));
        // Observers are never refused.
        assert_eq!(r0.await_reply(3, 1, short), Err(ServiceError::Timeout));
        // Clients 5 and 6 evict every session of the replicated table;
        // then (1, 1), ordered by replica 1, applies and frees its slot.
        for client in [5, 6, 1] {
            submit(&replicas[1], client, T).unwrap();
        }
        let start = std::time::Instant::now();
        while r0.read_state(|c| *c) < 3 {
            assert!(start.elapsed() < T, "replica 0 never applied");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r0.metrics().service_inflight.get(), 1);
        assert_eq!(submit(r0, 2, short), Err(ServiceError::Timeout));
        assert_eq!(r0.metrics().service_dedup_hits.get(), 2, "still merges");
        assert_eq!(submit(r0, 3, short), Err(ServiceError::Timeout));
        assert_eq!(r0.metrics().ab_broadcast.get(), 3, "one copy per request");
    }

    #[test]
    fn failed_submit_clears_in_flight_pin() {
        let replicas = counters(4);
        for r in &replicas {
            r.shutdown();
        }
        let r0 = &replicas[0];
        let submit = || r0.submit(5, 1, CommandKind::Apply, incr(), T).unwrap_err();
        assert!(matches!(submit(), ServiceError::Node(_)));
        // The failed submit leaves no waiter-map entry: a retry takes the
        // submit path again (Node error), not a merge onto a request that
        // is in flight nowhere.
        assert!(unpoison(r0.waiters.lock()).by_request.is_empty());
        assert_eq!(r0.metrics().service_inflight.get(), 0);
        let e = submit();
        assert!(matches!(e, ServiceError::Node(_)), "retry merged: {e:?}");
    }

    /// A retry of a timed-out submit at the same replica merges onto the
    /// request still in flight (or hits the cache once it applied): it
    /// never orders a second copy.
    #[test]
    fn retry_after_timed_out_submit_orders_no_second_copy() {
        let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
        let replicas = counters_on(nodes, SESSION_TABLE_CAPACITY, Duration::from_millis(300));
        let r0 = &replicas[0];
        let first = r0.submit(4, 1, CommandKind::Apply, incr(), Duration::from_millis(50));
        assert_eq!(first, Err(ServiceError::Timeout));
        let reply = r0.submit(4, 1, CommandKind::Apply, incr(), T).unwrap();
        assert_eq!(reply.as_ref(), 1u64.to_be_bytes());
        assert!(r0.metrics().service_dedup_hits.get() >= 1);
        assert_eq!(r0.metrics().ab_broadcast.get(), 1);
        for r in &replicas {
            r.barrier().unwrap();
            assert_eq!(r.metrics().service_dup_apply_skipped.get(), 0);
        }
    }

    /// An observer's waiter does not make a request in flight: a submit
    /// of the same key at that replica still a-broadcasts it, and both
    /// callers get the one reply. Then overlapping submitters and
    /// observers against a running applier: every call returns (the
    /// state-lock-then-waiter-lock order admits no deadlock).
    #[test]
    fn observing_does_not_block_submitting() {
        let replicas = counters(4);
        let r0 = &replicas[0];
        std::thread::scope(|scope| {
            let observer = scope.spawn(|| r0.await_reply(8, 1, T));
            while unpoison(r0.waiters.lock()).by_request.is_empty() {
                std::thread::yield_now();
            }
            let reply = r0.submit(8, 1, CommandKind::Apply, incr(), T).unwrap();
            assert_eq!(observer.join().unwrap(), Ok(reply));
        });
        assert_eq!(r0.metrics().ab_broadcast.get(), 1, "replica 0 submitted");
        std::thread::scope(|scope| {
            for thread in 0..4 {
                scope.spawn(move || {
                    for (seq, client) in (1..=10).flat_map(|s| (0..3).map(move |c| (s, c))) {
                        let got = match thread % 2 {
                            0 => r0.submit(client, seq, CommandKind::Apply, incr(), T),
                            _ => r0.await_reply(client, seq, T),
                        };
                        assert!(matches!(got, Ok(_) | Err(ServiceError::Stale)), "{got:?}");
                    }
                });
            }
        });
        r0.barrier().unwrap();
        assert_eq!(r0.read_state(|c| *c), 31, "each key applied once");
    }

    /// An observer that times out takes its waiter with it: requests for
    /// sequence numbers nobody ever submits must not grow the map.
    #[test]
    fn timed_out_observers_leave_no_waiter() {
        let replicas = counters(4);
        let r0 = &replicas[0];
        for seq in 1..=1000 {
            let e = r0.await_reply(7, seq, Duration::ZERO).unwrap_err();
            assert_eq!(e, ServiceError::Timeout);
        }
        assert!(unpoison(r0.waiters.lock()).by_request.is_empty());
        // Withdrawing is per caller: of two observers merged on one key,
        // the one that times out leaves the other registered — and a
        // later real submit of that command still answers it.
        std::thread::scope(|scope| {
            let patient = scope.spawn(|| r0.await_reply(7, 1, T));
            while unpoison(r0.waiters.lock()).by_request.is_empty() {
                std::thread::yield_now();
            }
            let e = r0.await_reply(7, 1, Duration::ZERO).unwrap_err();
            assert_eq!(e, ServiceError::Timeout);
            let w = unpoison(r0.waiters.lock());
            assert_eq!(w.by_request[&(7, 1)].waiters.len(), 1);
            drop(w);
            let reply = replicas[1].submit(7, 1, CommandKind::Apply, incr(), T);
            assert_eq!(patient.join().unwrap().unwrap(), reply.unwrap());
        });
        assert!(unpoison(r0.waiters.lock()).by_request.is_empty());
        for r in &replicas {
            r.shutdown();
        }
    }

    /// Satellite: snapshotting the replicated session table mid-retry and
    /// restoring it on a peer must keep a retried `(client, seq)`
    /// exactly-once across the snapshot boundary, and equal tables must
    /// encode byte-identically (digests are vote-compared).
    #[test]
    fn session_table_snapshot_restore_determinism() {
        let mut t = SessionTable::new(8);
        t.complete(7, 1, Bytes::from_static(b"r1"));
        t.complete(9, 5, Bytes::from_static(b"r5"));
        let mut w = Writer::new();
        t.encode_snapshot(&mut w);
        let bytes = w.freeze();
        // The layout, byte for byte: `cap | clock | count`, then per
        // session `id | last_seq | stamp | has_reply | reply`.
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        let golden = [
            "0000000000000008 0000000000000002 00000002",
            "0000000000000007 0000000000000001 0000000000000001 01 00000002 7231",
            "0000000000000009 0000000000000005 0000000000000002 01 00000002 7235",
        ];
        assert_eq!(hex, golden.concat().replace(' ', ""));
        // Determinism: re-encoding the same table yields the same bytes.
        let mut w2 = Writer::new();
        t.encode_snapshot(&mut w2);
        assert_eq!(bytes, w2.freeze(), "snapshot encoding must be stable");
        // Restore on a "peer" and replay the retry as an ordered
        // duplicate: the restored dedup state must skip it.
        let mut restored = SessionTable::decode_snapshot(&mut Reader::new(&bytes)).unwrap();
        assert!(restored.is_applied(7, 1), "pre-snapshot apply survived");
        assert_eq!(restored.cached(7, 1), Some(Bytes::from_static(b"r1")));
        // A retried command applies once; a second ordered copy is a
        // duplicate by the replicated predicate.
        assert!(!restored.is_applied(7, 2));
        restored.complete(7, 2, Bytes::from_static(b"r2"));
        assert!(restored.is_applied(7, 2), "second copy dedups");
        // Round-trip again: restored tables re-encode identically, so a
        // rejoined replica's next snapshot digest matches its peers'.
        let mut w3 = Writer::new();
        restored.encode_snapshot(&mut w3);
        let reencoded = w3.freeze();
        let t2 = SessionTable::decode_snapshot(&mut Reader::new(&reencoded)).unwrap();
        let mut w4 = Writer::new();
        t2.encode_snapshot(&mut w4);
        assert_eq!(reencoded, w4.freeze());
        // Eviction decisions after restore match the original's LRU
        // clock: the stamps are replicated state.
        assert_eq!(restored.len(), 2);
    }

    #[test]
    fn session_table_snapshot_rejects_garbage() {
        // Truncated input and absurd counts must error, not panic or
        // allocate unboundedly.
        assert!(SessionTable::decode_snapshot(&mut Reader::new(&[1, 2, 3])).is_err());
        let mut w = Writer::new();
        w.u64(4).u64(0).u32(u32::MAX);
        let bytes = w.freeze();
        assert!(SessionTable::decode_snapshot(&mut Reader::new(&bytes)).is_err());
        // The old layout, whose pin count trailed each reply, is rejected.
        let mut old = Writer::new();
        old.u64(8).u64(2).u32(2);
        for (id, seq, stamp, reply) in [(7, 1, 1, b"r1"), (9, 5, 2, b"r5")] {
            old.u64(id).u64(seq).u64(stamp).u8(1).bytes(reply).u32(0);
        }
        let old = old.freeze();
        let mut r = Reader::new(&old);
        let decoded = SessionTable::decode_snapshot(&mut r).and_then(|_| r.finish());
        assert!(matches!(decoded, Err(WireError::TrailingBytes { .. })));
    }

    #[test]
    fn session_table_lru_prefers_oldest() {
        let mut t = SessionTable::new(2);
        t.complete(1, 1, Bytes::from_static(b"a"));
        t.complete(2, 1, Bytes::from_static(b"b"));
        // Touch client 1 so client 2 is the LRU.
        t.complete(1, 2, Bytes::from_static(b"c"));
        t.complete(3, 1, Bytes::from_static(b"d"));
        assert!(t.is_applied(1, 2), "recently used session survived");
        assert!(!t.is_applied(2, 1), "LRU session evicted");
    }
}
