//! A self-healing TCP mesh — the paper's deployment transport (§2.1:
//! "reliability is provided by TCP"), made *actually* reliable.
//!
//! A bare TCP connection only approximates the paper's reliable channel:
//! one RST, peer restart or transient partition severs the link forever
//! and silently voids the assumption every protocol above depends on.
//! This endpoint therefore runs a session layer (see [`crate::session`])
//! on every link:
//!
//! * frames carry per-link monotone **sequence numbers** and cumulative
//!   **acks**; sent frames stay in a bounded retransmission buffer until
//!   acknowledged, and the receive side dedups, so retransmission is
//!   idempotent to the stack;
//! * a lost connection moves the link to `Reconnecting`: outbound frames
//!   keep buffering while a dialer retries with **exponential backoff +
//!   jitter** and resumes the session with a MAC-authenticated handshake
//!   (pairwise `KeyTable` keys, replay-protected by a strictly increasing
//!   session epoch); after the resume, unacked frames are retransmitted;
//! * writes are **bounded** (write deadline + bounded buffer with
//!   backpressure): a stalled peer yields [`TransportError::LinkDown`],
//!   never an indefinitely blocked sender;
//! * every link exposes an explicit `Up` / `Reconnecting` / `Down`
//!   state machine via [`Transport::link_state`] and
//!   [`Transport::poll_link_event`].
//!
//! The mesh is established deterministically: the lower-id process dials
//! the higher-id one; the same dial direction is kept for reconnects.
//! Composes with [`crate::AuthenticatedTransport`] to reproduce the
//! paper's TCP+IPSec channel — the session layer sits *below* the AH
//! layer, so AH's anti-replay window sees each sealed frame exactly once
//! and in order, exactly as over an unbroken socket.

use crate::session::{encode_frame, Backoff, Hello, RetransmitBuffer, HELLO_LEN, SESSION_HDR};
use crate::wire::MAX_FRAME;
use crate::{LinkDownReason, LinkEvent, LinkState, ProcessId, Transport, TransportError};
use bytes::Bytes;
use ritas_crypto::{KeyTable, SecretKey};
use ritas_metrics::{unpoison, Layer, Metrics, SpanAnnotation};
use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Timeout for one connect attempt and for each handshake read/write.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// Send an explicit ACK-only frame after this many unacknowledged
/// inbound frames (acks otherwise piggyback on outbound data).
const ACK_EVERY: u64 = 64;

/// Bound on the buffered link-event queue (oldest dropped beyond it).
const EVENT_QUEUE_CAP: usize = 1024;

/// Per-write deadline on link sockets; a write that cannot complete
/// within it marks the link down (and the frame is retransmitted after
/// the session resumes).
const WRITE_TIMEOUT: Duration = Duration::from_secs(2);

/// Retransmission-buffer bound in payload bytes (per link).
const TX_BUFFER_BYTES: usize = 32 * 1024 * 1024;

/// Reconnect backoff delay bounds.
const BACKOFF_MIN: Duration = Duration::from_millis(10);
const BACKOFF_MAX: Duration = Duration::from_millis(500);

/// Configuration of a [`TcpEndpoint`]'s session layer.
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// Pairwise session-handshake keys, indexed by peer id: the resume
    /// handshake is MAC-authenticated under them.
    pub keys: Vec<SecretKey>,
    /// How long [`Transport::send`] may wait for retransmission-buffer
    /// space before giving up with [`TransportError::LinkDown`].
    pub send_block: Duration,
    /// Retransmission-buffer bound in frames (per link).
    pub tx_buffer_frames: usize,
    /// Not a knob: the registry reconnects, retransmissions, duplicate
    /// drops, link-down transitions and outage spans are recorded in —
    /// the one the owner of the endpoint shares with the stack above it
    /// (a private one by default).
    pub metrics: Metrics,
}

impl TcpConfig {
    /// The config of process `me` over its row of a dealt [`KeyTable`],
    /// with the default buffer bounds.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range for the table.
    pub fn from_key_table(table: &KeyTable, me: ProcessId) -> Self {
        let view = table.view_of(me);
        TcpConfig {
            keys: (0..view.len()).map(|j| view.key_for(j)).collect(),
            send_block: Duration::from_secs(1),
            tx_buffer_frames: 4096,
            metrics: Metrics::default(),
        }
    }
}

/// Per-link mutable state, guarded by the link mutex.
struct LinkCore {
    state: LinkState,
    /// Write half of the live connection (`None` unless `Up`).
    writer: Option<TcpStream>,
    /// Sent-but-unacked frames, awaiting cumulative acks.
    buf: RetransmitBuffer,
    /// Last assigned outbound sequence number (first data frame is 1).
    tx_seq: u64,
    /// Highest contiguous inbound sequence delivered to the stack.
    rx_cum: u64,
    /// The `rx_cum` value last advertised to the peer.
    last_ack_sent: u64,
    /// Current session epoch (0 = never established).
    epoch: u64,
    /// Incremented on every connection install/teardown; readers carry
    /// the generation they were spawned under and exit on mismatch.
    generation: u64,
    /// Open outage span path, closed when the session resumes.
    down_span: Option<String>,
}

struct LinkShared {
    core: Mutex<LinkCore>,
    cond: Condvar,
}

struct Shared {
    me: ProcessId,
    n: usize,
    addrs: Vec<SocketAddr>,
    cfg: TcpConfig,
    links: Vec<Option<LinkShared>>,
    /// Frames towards the receiving thread; `None` is the marker a
    /// [`Transport::wake`] queues to end a blocked wait.
    inbound_tx: SyncSender<Option<(ProcessId, Bytes)>>,
    /// A wake no timed receive has consumed yet.
    woken: AtomicBool,
    events: Mutex<VecDeque<LinkEvent>>,
    up_count: AtomicUsize,
    closed: AtomicBool,
}

impl Shared {
    fn link(&self, peer: ProcessId) -> &LinkShared {
        self.links[peer].as_ref().expect("link exists")
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }

    fn push_event(&self, event: LinkEvent) {
        let mut q = unpoison(self.events.lock());
        if q.len() == EVENT_QUEUE_CAP {
            q.pop_front();
        }
        q.push_back(event);
    }

    fn set_links_up_gauge(&self) {
        self.cfg
            .metrics
            .transport_links_up
            .set(self.up_count.load(Ordering::SeqCst) as u64);
    }
}

/// Marks an `Up` link as lost: tears down the connection, moves the link
/// to `Reconnecting` (buffered frames are kept for retransmission) and
/// opens an outage span. No-op unless the link is currently `Up`.
fn note_down_locked(shared: &Shared, peer: ProcessId, core: &mut LinkCore) {
    if !matches!(core.state, LinkState::Up) {
        return;
    }
    let metrics = &shared.cfg.metrics;
    core.state = LinkState::Reconnecting;
    if let Some(w) = core.writer.take() {
        let _ = w.shutdown(Shutdown::Both);
    }
    core.generation += 1;
    shared.up_count.fetch_sub(1, Ordering::SeqCst);
    shared.set_links_up_gauge();
    metrics.transport_link_down_total.inc();
    let path = format!("link:{}-{}/out:{}", shared.me, peer, core.generation);
    metrics.span_open(path.clone(), Layer::Transport);
    metrics.span_annotate(&path, SpanAnnotation::LinkOutage, core.epoch);
    core.down_span = Some(path);
    shared.push_event(LinkEvent {
        peer,
        state: LinkState::Reconnecting,
        epoch: core.epoch,
    });
    shared.link(peer).cond.notify_all();
}

/// Marks a link terminally down (no further reconnection attempts).
fn terminal_down_locked(
    shared: &Shared,
    peer: ProcessId,
    core: &mut LinkCore,
    reason: LinkDownReason,
) {
    if matches!(core.state, LinkState::Down(_)) {
        return;
    }
    if matches!(core.state, LinkState::Up) {
        shared.up_count.fetch_sub(1, Ordering::SeqCst);
        shared.set_links_up_gauge();
    }
    shared.cfg.metrics.transport_link_down_total.inc();
    core.state = LinkState::Down(reason);
    if let Some(w) = core.writer.take() {
        let _ = w.shutdown(Shutdown::Both);
    }
    core.generation += 1;
    shared.push_event(LinkEvent {
        peer,
        state: LinkState::Down(reason),
        epoch: core.epoch,
    });
    shared.link(peer).cond.notify_all();
}

/// Reader-thread entry to `note_down_locked`, guarded by the generation
/// the reader was spawned under (a superseded reader must not tear down
/// the connection that replaced its own).
fn note_down(shared: &Arc<Shared>, peer: ProcessId, generation: u64) {
    let link = shared.link(peer);
    let mut core = unpoison(link.core.lock());
    if core.generation == generation {
        note_down_locked(shared, peer, &mut core);
    }
}

/// Installs a freshly handshaken connection on the link: prunes acked
/// frames, retransmits the rest, transitions to `Up` and spawns the
/// reader. Rejects stale epochs (the defense against replayed hellos).
fn install(
    shared: &Arc<Shared>,
    peer: ProcessId,
    stream: TcpStream,
    epoch: u64,
    peer_rx_cum: u64,
) -> std::io::Result<()> {
    stream.set_read_timeout(None)?;
    stream.set_write_timeout(Some(WRITE_TIMEOUT))?;
    let reader = stream.try_clone()?;
    let metrics = &shared.cfg.metrics;
    let link = shared.link(peer);
    let mut core = unpoison(link.core.lock());
    if shared.is_closed() || matches!(core.state, LinkState::Down(_)) || epoch <= core.epoch {
        let _ = stream.shutdown(Shutdown::Both);
        return Ok(());
    }
    if matches!(core.state, LinkState::Up) {
        // The peer re-dialed while we still considered the old connection
        // live (half-open failure): replace it.
        if let Some(w) = core.writer.take() {
            let _ = w.shutdown(Shutdown::Both);
        }
        shared.up_count.fetch_sub(1, Ordering::SeqCst);
    }
    let resumed = core.epoch > 0;
    core.epoch = epoch;
    core.generation += 1;
    let generation = core.generation;
    core.buf.ack(peer_rx_cum);
    core.state = LinkState::Up;
    core.writer = Some(stream);
    shared.up_count.fetch_add(1, Ordering::SeqCst);
    shared.set_links_up_gauge();

    // Retransmit everything the peer has not acknowledged, with the
    // current cumulative ack piggybacked.
    let mut write_failed = false;
    {
        let mut w = core.writer.as_ref().expect("writer just installed");
        for (seq, payload) in core.buf.iter() {
            if w.write_all(&encode_frame(seq, core.rx_cum, payload))
                .is_err()
            {
                write_failed = true;
                break;
            }
        }
    }
    core.last_ack_sent = core.rx_cum;
    if resumed {
        metrics.transport_reconnects_total.inc();
        if let Some(path) = core.down_span.take() {
            metrics.span_close(&path);
        }
    }
    shared.push_event(LinkEvent {
        peer,
        state: LinkState::Up,
        epoch,
    });
    let shared2 = Arc::clone(shared);
    std::thread::spawn(move || reader_loop(shared2, peer, reader, generation));
    link.cond.notify_all();
    if write_failed {
        note_down_locked(shared, peer, &mut core);
    }
    Ok(())
}

/// Per-connection reader: reassembles session frames, acks the peer's
/// acks, dedups retransmissions and delivers in-sequence payloads.
fn reader_loop(shared: Arc<Shared>, peer: ProcessId, mut stream: TcpStream, generation: u64) {
    loop {
        let mut len4 = [0u8; 4];
        if stream.read_exact(&mut len4).is_err() {
            note_down(&shared, peer, generation);
            return;
        }
        let len = u32::from_be_bytes(len4) as usize;
        if !(SESSION_HDR..=MAX_FRAME).contains(&len) {
            // A peer violating the framing gets its connection dropped;
            // the session layer will attempt a clean resume.
            note_down(&shared, peer, generation);
            return;
        }
        let mut buf = vec![0u8; len];
        if stream.read_exact(&mut buf).is_err() {
            note_down(&shared, peer, generation);
            return;
        }
        let seq = u64::from_be_bytes(buf[..8].try_into().expect("8 bytes"));
        let ack = u64::from_be_bytes(buf[8..16].try_into().expect("8 bytes"));
        let payload = Bytes::from(buf).slice(SESSION_HDR..);

        let link = shared.link(peer);
        let mut core = unpoison(link.core.lock());
        if core.generation != generation {
            return; // superseded by a newer connection
        }
        if core.buf.ack(ack) > 0 {
            link.cond.notify_all(); // space freed: wake backpressured senders
        }
        if seq <= core.rx_cum {
            // An ACK-only control frame (seq 0), or the retransmission
            // overlap after a resume: already delivered.
        } else if seq == core.rx_cum + 1 {
            core.rx_cum = seq;
            // Deliver while holding the link lock, and *before* any ack
            // write can fail: once `rx_cum` covers this frame the peer
            // will never retransmit it, so returning without delivering
            // here would lose it. The lock also stops a newer-generation
            // reader from slipping a retransmitted successor into the
            // channel between our `rx_cum` advance and our delivery.
            if shared.inbound_tx.send(Some((peer, payload))).is_err() {
                return;
            }
            if core.rx_cum - core.last_ack_sent >= ACK_EVERY {
                let frame = encode_frame(0, core.rx_cum, &[]);
                let ok = {
                    let mut w = core.writer.as_ref().expect("writer when Up");
                    w.write_all(&frame).is_ok()
                };
                if ok {
                    core.last_ack_sent = core.rx_cum;
                } else {
                    note_down_locked(&shared, peer, &mut core);
                    return;
                }
            }
        } else {
            // Sequence gap: the peer lost its session state (restart,
            // or Byzantine). Retransmission can no longer uphold the
            // reliable-channel contract — give up on the link rather
            // than deliver with a hole.
            terminal_down_locked(&shared, peer, &mut core, LinkDownReason::PeerStateLost);
            return;
        }
        drop(core);
    }
}

/// Dial-direction reconnect supervisor: while the link to `peer` is not
/// `Up`, keep dialing with exponential backoff + jitter and resume the
/// session. Exits when the endpoint closes or the link goes terminal.
fn dial_supervisor(shared: Arc<Shared>, peer: ProcessId) {
    let seed = ((shared.me as u64) << 32) ^ (peer as u64) ^ 0x9E37_79B9_7F4A_7C15;
    let mut backoff = Backoff::new(BACKOFF_MIN, BACKOFF_MAX, seed);
    loop {
        // Wait until the link needs (re)establishing.
        {
            let link = shared.link(peer);
            let mut core = unpoison(link.core.lock());
            loop {
                if shared.is_closed() {
                    return;
                }
                match core.state {
                    LinkState::Up => {
                        core = unpoison(link.cond.wait_timeout(core, Duration::from_millis(200))).0;
                    }
                    LinkState::Reconnecting => break,
                    LinkState::Down(_) => return,
                }
            }
        }
        match dial_once(&shared, peer) {
            Ok(true) => backoff.reset(),
            Ok(false) => return, // closed or terminal
            Err(_) => std::thread::sleep(backoff.next_delay()),
        }
    }
}

/// One dial + session-resume attempt. `Ok(true)` on success, `Ok(false)`
/// when the link no longer wants a connection, `Err` to back off.
fn dial_once(shared: &Arc<Shared>, peer: ProcessId) -> std::io::Result<bool> {
    let (epoch, rx_cum) = {
        let core = unpoison(shared.link(peer).core.lock());
        if !matches!(core.state, LinkState::Reconnecting) || shared.is_closed() {
            return Ok(false);
        }
        (core.epoch + 1, core.rx_cum)
    };
    let stream = TcpStream::connect_timeout(&shared.addrs[peer], HANDSHAKE_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT))?;
    stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT))?;
    let key = &shared.cfg.keys[peer];
    let hello = Hello {
        from: shared.me,
        to: peer,
        epoch,
        rx_cum,
    };
    let mut stream_ref = &stream;
    stream_ref.write_all(&hello.encode(key, false))?;
    let mut buf = [0u8; HELLO_LEN];
    stream_ref.read_exact(&mut buf)?;
    let (hello_ack, mac) =
        Hello::parse(&buf, true).ok_or_else(|| std::io::Error::other("malformed hello-ack"))?;
    if hello_ack.from != peer
        || hello_ack.to != shared.me
        || hello_ack.epoch != epoch
        || !hello_ack.verify(&mac, key, true)
    {
        return Err(std::io::Error::other("hello-ack rejected"));
    }
    install(shared, peer, stream, epoch, hello_ack.rx_cum)?;
    Ok(true)
}

/// Accept-direction handshake for one inbound connection: authenticate
/// the hello, enforce epoch monotonicity (replay defense), answer with
/// our cumulative sequence and install the session.
fn accept_handshake(shared: Arc<Shared>, stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
        || stream.set_write_timeout(Some(HANDSHAKE_TIMEOUT)).is_err()
    {
        return;
    }
    let mut stream_ref = &stream;
    let mut buf = [0u8; HELLO_LEN];
    if stream_ref.read_exact(&mut buf).is_err() {
        return;
    }
    let Some((hello, mac)) = Hello::parse(&buf, false) else {
        return;
    };
    // Dial direction is fixed: only lower-id peers dial us.
    if hello.to != shared.me || hello.from >= shared.me {
        return;
    }
    let key = &shared.cfg.keys[hello.from];
    if !hello.verify(&mac, key, false) {
        return;
    }
    let rx_cum = {
        let core = unpoison(shared.link(hello.from).core.lock());
        // A stale epoch is a replayed or superseded hello: drop the
        // connection without touching link state (a replay must not be
        // able to take a healthy link down).
        if hello.epoch <= core.epoch || matches!(core.state, LinkState::Down(_)) {
            return;
        }
        core.rx_cum
    };
    let hello_ack = Hello {
        from: shared.me,
        to: hello.from,
        epoch: hello.epoch,
        rx_cum,
    };
    if stream_ref.write_all(&hello_ack.encode(key, true)).is_err() {
        return;
    }
    let _ = install(&shared, hello.from, stream, hello.epoch, hello.rx_cum);
}

/// Accept loop: hands each inbound connection to a handshake thread.
/// Runs for the endpoint's whole lifetime (reconnects arrive here too).
fn acceptor_loop(shared: Arc<Shared>, listener: TcpListener) {
    loop {
        if shared.is_closed() {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared2 = Arc::clone(&shared);
                std::thread::spawn(move || accept_handshake(shared2, stream));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// One process's endpoint on a self-healing TCP full mesh.
///
/// # Example
///
/// ```
/// use ritas_crypto::KeyTable;
/// use ritas_transport::tcp::{TcpConfig, TcpEndpoint};
/// use ritas_transport::Transport;
/// use bytes::Bytes;
///
/// let table = KeyTable::dealer(4, 7);
/// let endpoints = TcpEndpoint::ephemeral_mesh(4, std::time::Duration::from_secs(5), |me| {
///     TcpConfig::from_key_table(&table, me)
/// })?;
/// endpoints[0].send(1, Bytes::from_static(b"over tcp"))?;
/// let (from, payload) = endpoints[1].recv()?;
/// assert_eq!((from, payload.as_ref()), (0, &b"over tcp"[..]));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct TcpEndpoint {
    shared: Arc<Shared>,
    /// Behind a mutex only so the endpoint stays `Sync`; one thread
    /// receives.
    inbound: Mutex<Receiver<Option<(ProcessId, Bytes)>>>,
}

impl core::fmt::Debug for TcpEndpoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpEndpoint")
            .field("me", &self.shared.me)
            .field("n", &self.shared.n)
            .finish_non_exhaustive()
    }
}

impl TcpEndpoint {
    /// Establishes the mesh for process `me` using a pre-bound listener
    /// and the address list of all processes (`addrs[me]` must be the
    /// listener's address), with the session keys of `cfg`. Blocks until
    /// every link is up or `timeout` expires.
    ///
    /// # Errors
    ///
    /// I/O errors from binding/dialing, or `TimedOut` if the mesh did not
    /// come up in time.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of range or `cfg` holds no key per process.
    pub fn establish(
        me: ProcessId,
        listener: TcpListener,
        addrs: &[SocketAddr],
        timeout: Duration,
        cfg: TcpConfig,
    ) -> std::io::Result<Self> {
        let n = addrs.len();
        assert!(me < n, "me out of range");
        assert_eq!(cfg.keys.len(), n, "need one session key per process");
        let deadline = Instant::now() + timeout;
        listener.set_nonblocking(true)?;

        let (inbound_tx, inbound_rx) = sync_channel(64 * 1024);
        let links = (0..n)
            .map(|peer| {
                (peer != me).then(|| LinkShared {
                    core: Mutex::new(LinkCore {
                        state: LinkState::Reconnecting,
                        writer: None,
                        buf: RetransmitBuffer::new(cfg.tx_buffer_frames, TX_BUFFER_BYTES),
                        tx_seq: 0,
                        rx_cum: 0,
                        last_ack_sent: 0,
                        epoch: 0,
                        generation: 0,
                        down_span: None,
                    }),
                    cond: Condvar::new(),
                })
            })
            .collect();
        let shared = Arc::new(Shared {
            me,
            n,
            addrs: addrs.to_vec(),
            cfg,
            links,
            inbound_tx,
            woken: AtomicBool::new(false),
            events: Mutex::new(VecDeque::new()),
            up_count: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
        });

        {
            let shared2 = Arc::clone(&shared);
            std::thread::spawn(move || acceptor_loop(shared2, listener));
        }
        for peer in me + 1..n {
            let shared2 = Arc::clone(&shared);
            std::thread::spawn(move || dial_supervisor(shared2, peer));
        }

        let endpoint = TcpEndpoint {
            shared,
            inbound: Mutex::new(inbound_rx),
        };
        // Initial establishment is just "every link reached Up once"
        // (epoch 0 means a link never completed its first handshake).
        let all_established = |shared: &Shared| {
            (0..n)
                .filter(|&p| p != me)
                .all(|p| unpoison(shared.link(p).core.lock()).epoch > 0)
        };
        while !all_established(&endpoint.shared) {
            if Instant::now() >= deadline {
                endpoint.close();
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "mesh did not come up in time",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(endpoint)
    }

    /// Test/demo convenience: builds a complete `n`-process mesh over
    /// ephemeral localhost ports, process `me` configured by
    /// `config_for(me)`, returning one endpoint per process.
    ///
    /// # Errors
    ///
    /// Propagates any bind/connect failure.
    pub fn ephemeral_mesh(
        n: usize,
        timeout: Duration,
        config_for: impl Fn(ProcessId) -> TcpConfig,
    ) -> std::io::Result<Vec<TcpEndpoint>> {
        let listeners: Vec<TcpListener> = (0..n)
            .map(|_| TcpListener::bind("127.0.0.1:0"))
            .collect::<std::io::Result<_>>()?;
        let addrs: Vec<SocketAddr> = listeners
            .iter()
            .map(|l| l.local_addr())
            .collect::<std::io::Result<_>>()?;
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(me, listener)| {
                let addrs = addrs.clone();
                let cfg = config_for(me);
                std::thread::spawn(move || {
                    TcpEndpoint::establish(me, listener, &addrs, timeout, cfg)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| std::io::Error::other("setup panicked"))?
            })
            .collect()
    }

    /// A cloneable chaos handle onto this endpoint's links, for fault
    /// injection in tests: kill live sockets and watch the session layer
    /// heal them.
    pub fn chaos_handle(&self) -> TcpChaosHandle {
        TcpChaosHandle {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Closes the endpoint: every link goes `Down(Closed)`, subsequent
    /// operations fail with [`TransportError::Disconnected`] and the
    /// session threads exit.
    pub fn close(&self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        for peer in 0..self.shared.n {
            if peer == self.shared.me {
                continue;
            }
            let link = self.shared.link(peer);
            let mut core = unpoison(link.core.lock());
            if matches!(core.state, LinkState::Up) {
                self.shared.up_count.fetch_sub(1, Ordering::SeqCst);
            }
            core.state = LinkState::Down(LinkDownReason::Closed);
            if let Some(w) = core.writer.take() {
                let _ = w.shutdown(Shutdown::Both);
            }
            core.generation += 1;
            link.cond.notify_all();
        }
        self.shared.set_links_up_gauge();
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}

/// A handle for killing live connections out from under a
/// [`TcpEndpoint`] — the chaos side of the session layer's contract.
/// Cloneable and independent of the endpoint's lifetime.
#[derive(Clone)]
pub struct TcpChaosHandle {
    shared: Arc<Shared>,
}

impl core::fmt::Debug for TcpChaosHandle {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TcpChaosHandle")
            .field("me", &self.shared.me)
            .finish_non_exhaustive()
    }
}

impl TcpChaosHandle {
    /// Forcibly shuts down the live socket to `peer` (both directions,
    /// mid-stream — both ends observe a hard failure and must resume the
    /// session). Returns `true` if a live connection was killed.
    pub fn kill_link(&self, peer: ProcessId) -> bool {
        if peer >= self.shared.n || peer == self.shared.me {
            return false;
        }
        let core = unpoison(self.shared.link(peer).core.lock());
        match &core.writer {
            Some(w) => {
                let _ = w.shutdown(Shutdown::Both);
                true
            }
            None => false,
        }
    }

    /// The current state of the link to `peer`.
    pub fn link_state(&self, peer: ProcessId) -> LinkState {
        if peer >= self.shared.n || peer == self.shared.me {
            return LinkState::Up;
        }
        unpoison(self.shared.link(peer).core.lock()).state
    }
}

impl Transport for TcpEndpoint {
    fn local_id(&self) -> ProcessId {
        self.shared.me
    }

    fn group_size(&self) -> usize {
        self.shared.n
    }

    fn send(&self, to: ProcessId, payload: Bytes) -> Result<(), TransportError> {
        let shared = &self.shared;
        if shared.is_closed() {
            return Err(TransportError::Disconnected);
        }
        if to >= shared.n {
            return Err(TransportError::UnknownPeer(to));
        }
        if to == shared.me {
            return shared
                .inbound_tx
                .send(Some((shared.me, payload)))
                .map_err(|_| TransportError::Disconnected);
        }
        let metrics = &shared.cfg.metrics;
        let link = shared.link(to);
        let mut core = unpoison(link.core.lock());
        let deadline = Instant::now() + shared.cfg.send_block;
        loop {
            if shared.is_closed() {
                return Err(TransportError::Disconnected);
            }
            if matches!(core.state, LinkState::Down(_)) {
                return Err(TransportError::LinkDown { peer: to });
            }
            if core.buf.has_space() {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                metrics.transport_send_backpressure_total.inc();
                return Err(TransportError::LinkDown { peer: to });
            }
            core = unpoison(link.cond.wait_timeout(core, deadline - now)).0;
        }
        core.tx_seq += 1;
        let seq = core.tx_seq;
        core.buf.push(seq, payload.clone());
        if matches!(core.state, LinkState::Up) {
            let frame = encode_frame(seq, core.rx_cum, &payload);
            core.last_ack_sent = core.rx_cum;
            let ok = {
                let mut w = core.writer.as_ref().expect("writer when Up");
                w.write_all(&frame).is_ok()
            };
            if !ok {
                // The frame stays buffered: the session layer delivers it
                // after the resume, so the send still succeeds.
                note_down_locked(shared, to, &mut core);
            }
        }
        Ok(())
    }

    fn recv(&self) -> Result<(ProcessId, Bytes), TransportError> {
        if self.shared.is_closed() {
            return Err(TransportError::Disconnected);
        }
        let inbound = unpoison(self.inbound.lock());
        loop {
            match inbound.recv() {
                Ok(Some(frame)) => return Ok(frame),
                Ok(None) => {} // a wake's marker: not for an untimed receive
                Err(_) => return Err(TransportError::Disconnected),
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(ProcessId, Bytes), TransportError> {
        if self.shared.is_closed() {
            return Err(TransportError::Disconnected);
        }
        let inbound = unpoison(self.inbound.lock());
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.woken.swap(false, Ordering::SeqCst) {
                return Err(TransportError::Timeout);
            }
            match inbound.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                Ok(Some(frame)) => return Ok(frame),
                // The marker of a wake: one this call has yet to see, or
                // one an earlier call already took by the flag alone.
                Ok(None) => {}
                Err(RecvTimeoutError::Timeout) => return Err(TransportError::Timeout),
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Disconnected),
            }
        }
    }

    fn wake(&self) {
        // The flag is the wake; the marker only unparks a receiver blocked
        // on an empty queue. A full queue has nobody parked on it, so the
        // marker may be refused.
        self.shared.woken.store(true, Ordering::SeqCst);
        let _ = self.shared.inbound_tx.try_send(None);
    }

    fn link_state(&self, peer: ProcessId) -> LinkState {
        if peer >= self.shared.n || peer == self.shared.me {
            return LinkState::Up;
        }
        unpoison(self.shared.link(peer).core.lock()).state
    }

    fn poll_link_event(&self) -> Option<LinkEvent> {
        unpoison(self.shared.events.lock()).pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh(n: usize) -> Vec<TcpEndpoint> {
        mesh_counting(n, Metrics::new())
    }

    /// A mesh whose endpoints all count into `metrics`.
    fn mesh_counting(n: usize, metrics: Metrics) -> Vec<TcpEndpoint> {
        mesh_with(n, |cfg| TcpConfig {
            metrics: metrics.clone(),
            ..cfg
        })
    }

    /// A mesh over keys dealt from a test seed, each endpoint's config
    /// adjusted by `tune`.
    fn mesh_with(n: usize, tune: impl Fn(TcpConfig) -> TcpConfig) -> Vec<TcpEndpoint> {
        let table = KeyTable::dealer(n, 99);
        TcpEndpoint::ephemeral_mesh(n, Duration::from_secs(10), |me| {
            tune(TcpConfig::from_key_table(&table, me))
        })
        .expect("mesh")
    }

    #[test]
    fn point_to_point_roundtrip() {
        let eps = mesh(2);
        eps[0].send(1, Bytes::from_static(b"ping")).unwrap();
        assert_eq!(eps[1].recv().unwrap(), (0, Bytes::from_static(b"ping")));
        eps[1].send(0, Bytes::from_static(b"pong")).unwrap();
        assert_eq!(eps[0].recv().unwrap(), (1, Bytes::from_static(b"pong")));
    }

    #[test]
    fn per_link_fifo() {
        let eps = mesh(2);
        for i in 0..200u32 {
            eps[0]
                .send(1, Bytes::copy_from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        for i in 0..200u32 {
            let (_, p) = eps[1].recv().unwrap();
            assert_eq!(p.as_ref(), i.to_be_bytes());
        }
    }

    #[test]
    fn loopback_works() {
        let eps = mesh(2);
        eps[0].send(0, Bytes::from_static(b"self")).unwrap();
        assert_eq!(eps[0].recv().unwrap(), (0, Bytes::from_static(b"self")));
    }

    #[test]
    fn broadcast_to_full_mesh() {
        let eps = mesh(4);
        for to in 0..4 {
            eps[2].send(to, Bytes::from_static(b"mesh")).unwrap();
        }
        for ep in &eps {
            let (from, payload) = ep.recv().unwrap();
            assert_eq!((from, payload.as_ref()), (2, &b"mesh"[..]));
        }
    }

    #[test]
    fn large_frame_roundtrip() {
        let eps = mesh(2);
        let big = Bytes::from(vec![0xabu8; 1_000_000]);
        eps[0].send(1, big.clone()).unwrap();
        assert_eq!(eps[1].recv().unwrap(), (0, big));
    }

    #[test]
    fn recv_timeout_expires() {
        let eps = mesh(2);
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn wake_before_a_timed_wait_ends_it_at_once() {
        let eps = mesh(2);
        eps[0].wake();
        eps[0].wake();
        let t0 = Instant::now();
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(30)).unwrap_err(),
            TransportError::Timeout
        );
        assert!(t0.elapsed() < Duration::from_secs(10));
        // Consumed: the markers left in the queue end no later wait.
        eps[1].send(0, Bytes::from_static(b"after")).unwrap();
        assert_eq!(
            eps[0].recv_timeout(Duration::from_secs(30)).unwrap(),
            (1, Bytes::from_static(b"after"))
        );
        assert_eq!(
            eps[0].recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn wake_during_a_timed_wait_ends_it() {
        let eps = mesh(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| {
                let t0 = Instant::now();
                let r = eps[0].recv_timeout(Duration::from_secs(30));
                (r, t0.elapsed())
            });
            eps[0].wake();
            let (r, waited) = waiter.join().unwrap();
            assert_eq!(r.unwrap_err(), TransportError::Timeout);
            assert!(waited < Duration::from_secs(10));
        });
    }

    #[test]
    fn wake_is_never_returned_by_recv_nor_counted_as_a_bad_frame() {
        use crate::{AuthConfig, AuthenticatedTransport};
        let table = KeyTable::dealer(2, 8);
        let metrics = Metrics::new();
        let mut eps = mesh(2).into_iter();
        let counting = AuthConfig::from_key_table(&table, 0).with_metrics(metrics.clone());
        let a = AuthenticatedTransport::new(eps.next().unwrap(), counting);
        let b =
            AuthenticatedTransport::new(eps.next().unwrap(), AuthConfig::from_key_table(&table, 1));
        a.wake();
        b.send(0, Bytes::from_static(b"frame")).unwrap();
        // The untimed receive skips the wake's marker and leaves the
        // wake for the next timed one.
        assert_eq!(a.recv().unwrap(), (1, Bytes::from_static(b"frame")));
        assert_eq!(
            a.recv_timeout(Duration::from_secs(30)).unwrap_err(),
            TransportError::Timeout
        );
        assert_eq!(a.rejected_frames(), 0);
        assert_eq!(metrics.transport_mac_rejected.get(), 0);
    }

    #[test]
    fn unknown_peer_rejected() {
        let eps = mesh(2);
        assert_eq!(
            eps[0].send(9, Bytes::new()).unwrap_err(),
            TransportError::UnknownPeer(9)
        );
    }

    #[test]
    fn close_disconnects() {
        let eps = mesh(2);
        eps[0].close();
        assert_eq!(eps[0].recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(
            eps[0].send(1, Bytes::new()).unwrap_err(),
            TransportError::Disconnected
        );
        assert_eq!(
            eps[0].link_state(1),
            LinkState::Down(LinkDownReason::Closed)
        );
    }

    #[test]
    fn authenticated_over_tcp() {
        use crate::{AuthConfig, AuthenticatedTransport};
        use ritas_crypto::KeyTable;
        let table = KeyTable::dealer(2, 8);
        let mut eps = mesh(2).into_iter();
        let a =
            AuthenticatedTransport::new(eps.next().unwrap(), AuthConfig::from_key_table(&table, 0));
        let b =
            AuthenticatedTransport::new(eps.next().unwrap(), AuthConfig::from_key_table(&table, 1));
        a.send(1, Bytes::from_static(b"sealed over tcp")).unwrap();
        assert_eq!(
            b.recv().unwrap(),
            (0, Bytes::from_static(b"sealed over tcp"))
        );
        assert_eq!(b.rejected_frames(), 0);
    }

    /// An AH batch longer than a session frame may be crosses as several
    /// frames, each under the cap, its messages in order.
    #[test]
    fn authenticated_batch_past_the_frame_cap_is_split_in_order() {
        use crate::{AuthConfig, AuthenticatedTransport};
        let table = KeyTable::dealer(2, 8);
        let (sent, received) = (Metrics::new(), Metrics::new());
        let mut eps = mesh(2).into_iter();
        let a = AuthenticatedTransport::new(
            eps.next().unwrap(),
            AuthConfig::from_key_table(&table, 0).with_metrics(sent.clone()),
        );
        let b = AuthenticatedTransport::new(
            eps.next().unwrap(),
            AuthConfig::from_key_table(&table, 1).with_metrics(received.clone()),
        );
        // 5 + 5 MiB fit in one frame; 8 MiB more would pass MAX_FRAME.
        let batch: Vec<Bytes> = [(5, 1u8), (5, 2), (8, 3)]
            .map(|(mib, fill)| Bytes::from(vec![fill; mib << 20]))
            .into();
        assert!(batch.iter().map(Bytes::len).sum::<usize>() > MAX_FRAME);
        a.send_batch(1, &batch).unwrap();
        for msg in &batch {
            let (from, got) = b.recv_timeout(Duration::from_secs(30)).unwrap();
            assert_eq!(from, 0);
            assert!(got == *msg, "out of order or corrupted");
        }
        assert_eq!(sent.transport_frames_sent.get(), 2);
        assert_eq!(received.transport_frames_recv.get(), 2);
        assert_eq!(b.rejected_frames(), 0);
    }

    // ---- session-layer behavior ----

    /// Waits (bounded) until the link from `ep` to `peer` is Up again.
    fn await_up(chaos: &TcpChaosHandle, peer: ProcessId) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while chaos.link_state(peer) != LinkState::Up {
            assert!(Instant::now() < deadline, "link did not heal in time");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn link_survives_socket_kill_without_loss_or_dup() {
        let metrics = Metrics::default();
        let eps = mesh_counting(2, metrics.clone());
        let chaos = eps[0].chaos_handle();

        // Interleave sends with repeated socket kills; every payload must
        // arrive exactly once, in order.
        let total = 500u32;
        for i in 0..total {
            eps[0]
                .send(1, Bytes::copy_from_slice(&i.to_be_bytes()))
                .unwrap();
            if i % 100 == 50 {
                assert!(chaos.kill_link(1) || chaos.link_state(1) != LinkState::Up);
                await_up(&chaos, 1);
            }
        }
        for i in 0..total {
            let (from, p) = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(from, 0);
            assert_eq!(p.as_ref(), i.to_be_bytes(), "lost or reordered at {i}");
        }
        assert!(
            metrics.transport_reconnects_total.get() > 0,
            "kills should force session resumes"
        );
    }

    #[test]
    fn sends_buffer_through_reconnecting_state() {
        let eps = mesh(2);
        let chaos = eps[0].chaos_handle();
        assert!(chaos.kill_link(1));
        // Sends keep succeeding while the link heals in the background.
        for i in 0..50u32 {
            eps[0]
                .send(1, Bytes::copy_from_slice(&i.to_be_bytes()))
                .unwrap();
        }
        for i in 0..50u32 {
            let (_, p) = eps[1].recv_timeout(Duration::from_secs(10)).unwrap();
            assert_eq!(p.as_ref(), i.to_be_bytes());
        }
    }

    #[test]
    fn link_events_report_outage_and_recovery() {
        let eps = mesh(2);
        let chaos = eps[0].chaos_handle();
        // Drain establishment events first.
        while eps[0].poll_link_event().is_some() {}
        assert!(chaos.kill_link(1));
        await_up(&chaos, 1);
        let deadline = Instant::now() + Duration::from_secs(5);
        let mut saw_reconnecting = false;
        let mut saw_up = false;
        while !(saw_reconnecting && saw_up) {
            assert!(Instant::now() < deadline, "missing link events");
            match eps[0].poll_link_event() {
                Some(ev) => {
                    assert_eq!(ev.peer, 1);
                    match ev.state {
                        LinkState::Reconnecting => saw_reconnecting = true,
                        LinkState::Up => {
                            assert!(ev.epoch > 1, "recovery must advance the epoch");
                            saw_up = true;
                        }
                        LinkState::Down(_) => panic!("unexpected terminal state"),
                    }
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }

    #[test]
    fn backpressure_surfaces_link_down_when_buffer_fills() {
        let metrics = Metrics::new();
        let eps = mesh_with(2, |cfg| TcpConfig {
            tx_buffer_frames: 8,
            send_block: Duration::from_millis(50),
            metrics: metrics.clone(),
            ..cfg
        });
        // Sever the peer's acceptor too so the link cannot heal, then
        // fill the bounded buffer.
        eps[1].close();
        let err = loop {
            match eps[0].send(1, Bytes::from(vec![0u8; 1024])) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert_eq!(err, TransportError::LinkDown { peer: 1 });
        assert_eq!(metrics.transport_send_backpressure_total.get(), 1);
    }

    #[test]
    fn keyed_session_resume_works_end_to_end() {
        let eps = mesh(2);
        let chaos = eps[0].chaos_handle();
        eps[0].send(1, Bytes::from_static(b"before")).unwrap();
        assert!(chaos.kill_link(1));
        await_up(&chaos, 1);
        eps[0].send(1, Bytes::from_static(b"after")).unwrap();
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(10)).unwrap(),
            (0, Bytes::from_static(b"before"))
        );
        assert_eq!(
            eps[1].recv_timeout(Duration::from_secs(10)).unwrap(),
            (0, Bytes::from_static(b"after"))
        );
    }

    #[test]
    fn sequence_gap_marks_link_peer_state_lost() {
        // A raw fake peer that completes the handshake and then sends a
        // gapped sequence — the honest endpoint must refuse to resume.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let fake_addr = listener.local_addr().unwrap();
        let honest_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let honest_addr = honest_listener.local_addr().unwrap();
        let table = KeyTable::dealer(2, 99);
        let key = table.view_of(1).key_for(0);
        // Honest endpoint is process 0; the fake peer is process 1, so
        // process 0 dials it.
        let fake = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut s = &stream;
            let mut buf = [0u8; HELLO_LEN];
            s.read_exact(&mut buf).unwrap();
            let (hello, _) = Hello::parse(&buf, false).unwrap();
            let hello_ack = Hello {
                from: 1,
                to: 0,
                epoch: hello.epoch,
                rx_cum: 0,
            };
            s.write_all(&hello_ack.encode(&key, true)).unwrap();
            // seq 5 with nothing before it: an impossible resume.
            s.write_all(&encode_frame(5, 0, b"gap")).unwrap();
            // Hold the socket open until the honest side reacts.
            std::thread::sleep(Duration::from_millis(500));
        });
        let ep = TcpEndpoint::establish(
            0,
            honest_listener,
            &[honest_addr, fake_addr],
            Duration::from_secs(10),
            TcpConfig::from_key_table(&table, 0),
        )
        .unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            if ep.link_state(1) == LinkState::Down(LinkDownReason::PeerStateLost) {
                break;
            }
            assert!(Instant::now() < deadline, "gap did not mark the link down");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(
            ep.send(1, Bytes::from_static(b"x")).unwrap_err(),
            TransportError::LinkDown { peer: 1 }
        );
        fake.join().unwrap();
    }
}
