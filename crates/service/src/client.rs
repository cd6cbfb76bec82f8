//! The intrusion-tolerant client library: fan-out, `f+1`-vote reply
//! masking, exactly-once retries, and ordered reads.
//!
//! A [`ServiceClient`] holds one authenticated connection per replica.
//! Each request is fanned to `2f+1` replicas — `f+1` in *submit* mode
//! (at least one correct replica orders the command) and the rest in
//! *observe* mode (they answer once the command applies, without
//! flooding the ordered stream with duplicates). The result is accepted
//! only when `f+1` replicas answer **byte-identically**: since atomic
//! broadcast puts every correct replica in the same state, correct
//! replicas return identical replies, and `f` liars can never assemble
//! an `f+1` quorum for a wrong answer.
//!
//! Retries reuse the same session sequence number, so a request that was
//! already ordered is answered from the replicated session table instead
//! of applying twice (exactly-once semantics end-to-end). A read takes
//! the same path as a write: it is evaluated at its position in the total
//! order, so it reflects every write that completed before it was
//! invoked.

use crate::wire::{
    connection_key, fresh_nonce, read_frame, read_frame_polling, write_frame, Hello, HelloAck,
    Reply, Request, RequestKind, RequestMode, Status,
};
use bytes::Bytes;
use ritas_crypto::{ClientKeyDealer, HmacKey, Sha1};
use ritas_metrics::Metrics;
use std::collections::{HashMap, HashSet};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning for a [`ServiceClient`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Seed of the client key dealer (must match the replicas' —
    /// [`ritas::node::SessionConfig::client_key_seed`]).
    pub key_seed: u64,
    /// Deadline for one vote round before escalating to a retry.
    pub request_timeout: Duration,
    /// Rounds before giving up (first attempt plus retries).
    pub max_attempts: u32,
    /// Backoff between rounds (doubled each retry).
    pub backoff: Duration,
    /// Connect timeout per replica.
    pub connect_timeout: Duration,
    /// Metrics registry the client reports into (client-side counters
    /// and the end-to-end latency histogram). Share one across clients
    /// to aggregate their counters.
    pub metrics: Metrics,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            key_seed: 0,
            request_timeout: Duration::from_secs(10),
            max_attempts: 4,
            backoff: Duration::from_millis(50),
            connect_timeout: Duration::from_secs(2),
            metrics: Metrics::new(),
        }
    }
}

/// Errors surfaced to the application by the client library.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClientError {
    /// No `f+1` byte-identical replies within all retry rounds.
    NoQuorum,
    /// `f+1` replicas agree the sequence number is stale (the session
    /// advanced past it and evicted the reply).
    Stale,
    /// Fewer than `2f+1` replicas are reachable.
    Unavailable,
}

impl core::fmt::Display for ClientError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ClientError::NoQuorum => write!(f, "no f+1 matching replies within retry budget"),
            ClientError::Stale => write!(f, "sequence number stale at a reply quorum"),
            ClientError::Unavailable => write!(f, "fewer than 2f+1 replicas reachable"),
        }
    }
}

impl std::error::Error for ClientError {}

/// One replica connection: the write half, the per-connection frame key
/// (derived from both handshake nonces), and the reader thread.
struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    key: Option<HmacKey<Sha1>>,
    reader: Option<JoinHandle<()>>,
}

/// An intrusion-tolerant client of a replicated RITAS service.
pub struct ServiceClient {
    id: u64,
    dealer: ClientKeyDealer,
    config: ClientConfig,
    conns: Vec<Conn>,
    tx: Sender<Reply>,
    rx: Receiver<Reply>,
    next_seq: u64,
    stop: Arc<AtomicBool>,
}

impl ServiceClient {
    /// Creates a client of id `id` for the replica group at `addrs`
    /// (index in `addrs` = replica id). Connections are established
    /// lazily; the constructor itself cannot fail.
    pub fn new(id: u64, addrs: Vec<SocketAddr>, config: ClientConfig) -> Self {
        let (tx, rx) = channel();
        let conns = addrs
            .into_iter()
            .map(|addr| Conn {
                addr,
                stream: None,
                key: None,
                reader: None,
            })
            .collect();
        ServiceClient {
            id,
            dealer: ClientKeyDealer::new(config.key_seed),
            config,
            conns,
            tx,
            rx,
            next_seq: 0,
            stop: Arc::new(AtomicBool::new(false)),
        }
    }

    /// This client's id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The metrics registry the client reports into.
    pub fn metrics(&self) -> &Metrics {
        &self.config.metrics
    }

    /// Group resilience `f = ⌊(n−1)/3⌋`.
    fn resilience(&self) -> usize {
        (self.conns.len() - 1) / 3
    }

    /// Submits `command` for ordered execution and returns the
    /// `f+1`-voted reply. Exactly-once: retries (ours or a competing
    /// fan-out leg's) of the same sequence number are answered from the
    /// replicated session table, never applied again.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoQuorum`] when the retry budget runs out without
    /// `f+1` byte-identical replies, [`ClientError::Stale`] when the
    /// session advanced past this request.
    pub fn invoke(&mut self, command: Bytes) -> Result<Bytes, ClientError> {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.vote_rounds(seq, RequestKind::Apply, command)
    }

    /// Returns the `f+1`-voted answer to `query`. A read is ordered like
    /// a write, so it reflects every write that completed before it was
    /// invoked: the replicas evaluate `query` at its position in the
    /// total order.
    ///
    /// # Errors
    ///
    /// Same as [`ServiceClient::invoke`].
    pub fn read(&mut self, query: Bytes) -> Result<Bytes, ClientError> {
        self.next_seq += 1;
        let seq = self.next_seq;
        self.vote_rounds(seq, RequestKind::OrderedRead, query)
    }

    /// The fan-out / vote / retry loop shared by writes and reads.
    fn vote_rounds(
        &mut self,
        seq: u64,
        kind: RequestKind,
        payload: Bytes,
    ) -> Result<Bytes, ClientError> {
        let m = self.config.metrics.clone();
        m.service_client_requests.inc();
        let start = Instant::now();
        let f = self.resilience();
        let mut backoff = self.config.backoff;
        for attempt in 0..self.config.max_attempts.max(1) {
            let escalate = attempt > 0;
            if escalate {
                m.service_client_retries.inc();
                std::thread::sleep(backoff);
                backoff = backoff.saturating_mul(2);
            }
            // First round: f+1 submitters (at least one correct orders
            // the command), the rest observe. Escalated rounds submit at
            // the full 2f+1 set — the pinned f+1 set may be exactly the
            // crashed/Byzantine replicas that made round one miss quorum,
            // and dedup in the replicated session table absorbs the extra
            // submissions.
            let (submitters, observers) = if escalate {
                (self.round_targets(seq, false), Vec::new())
            } else {
                let submitters = self.round_targets(seq, true);
                let observers = self
                    .round_targets(seq, false)
                    .into_iter()
                    .filter(|i| !submitters.contains(i))
                    .collect();
                (submitters, observers)
            };
            let sent = self.fan_out(&submitters, &observers, seq, kind, payload.clone());
            if sent.len() <= f {
                // Not even f+1 replicas reachable: no quorum can form.
                continue;
            }
            match self.collect_votes(seq, &sent, f + 1, self.config.request_timeout) {
                Some((Status::Ok, reply)) => {
                    m.service_e2e_latency_ns
                        .record(start.elapsed().as_nanos() as u64);
                    return Ok(reply);
                }
                Some((Status::Stale, _)) => return Err(ClientError::Stale),
                Some((Status::Busy, _)) | Some((Status::Error, _)) | None => {
                    // Back off and escalate to an all-submit round.
                }
            }
        }
        Err(ClientError::NoQuorum)
    }

    /// The replicas targeted this round: `f+1` submitters (rotated by
    /// `seq` for load spreading) or the full `2f+1` vote set.
    fn round_targets(&self, seq: u64, submitters_only: bool) -> Vec<usize> {
        let n = self.conns.len();
        let f = self.resilience();
        let count = if submitters_only { f + 1 } else { 2 * f + 1 };
        let first = ((self.id.wrapping_add(seq)) % n as u64) as usize;
        (0..count.min(n)).map(|k| (first + k) % n).collect()
    }

    /// Sends the request to each target, reconnecting dead links on the
    /// way. Returns the replicas a copy went out to.
    fn fan_out(
        &mut self,
        submitters: &[usize],
        observers: &[usize],
        seq: u64,
        kind: RequestKind,
        payload: Bytes,
    ) -> Vec<u16> {
        let mut sent = Vec::new();
        let legs = submitters
            .iter()
            .map(|&i| (i, RequestMode::Submit))
            .chain(observers.iter().map(|&i| (i, RequestMode::Observe)));
        for (i, mode) in legs {
            let request = Request {
                client: self.id,
                seq,
                kind,
                mode,
                payload: payload.clone(),
            };
            if self.send_to(i, &request) {
                sent.push(i as u16);
            }
        }
        sent
    }

    /// Sends one sealed request to replica `i`, dialing (or redialing)
    /// its connection if needed.
    fn send_to(&mut self, i: usize, request: &Request) -> bool {
        // One reconnect attempt per send: a dead stream is torn down and
        // redialed, then the send is tried once more. The frame is sealed
        // per attempt because each connection has its own nonce-derived
        // key.
        for _ in 0..2 {
            if self.conns[i].stream.is_none() && !self.connect(i) {
                return false;
            }
            let key = self.conns[i].key.as_ref().expect("connected above");
            let frame = request.seal(key);
            let stream = self.conns[i].stream.as_mut().expect("connected above");
            match write_frame(stream, &frame) {
                Ok(()) => return true,
                Err(_) => {
                    // Shut the socket down instead of just dropping the
                    // write half: the reader holds a cloned fd, and on a
                    // half-open connection (writes fail, reads only time
                    // out) it would otherwise run until its next redial
                    // joins it — blocking the whole client.
                    if let Some(s) = self.conns[i].stream.take() {
                        let _ = s.shutdown(Shutdown::Both);
                    }
                }
            }
        }
        false
    }

    /// Dials replica `i`, runs the HELLO handshake, and spawns its
    /// reader thread.
    fn connect(&mut self, i: usize) -> bool {
        let addr = self.conns[i].addr;
        let key = self.dealer.link_key(self.id, i as u64);
        let Ok(mut stream) = TcpStream::connect_timeout(&addr, self.config.connect_timeout) else {
            return false;
        };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(self.config.connect_timeout));
        let nonce = fresh_nonce();
        let hello = Hello {
            client: self.id,
            nonce,
        };
        if write_frame(&mut stream, &hello.seal(&key)).is_err() {
            return false;
        }
        let Ok(ack_frame) = read_frame(&mut stream) else {
            return false;
        };
        let Ok(ack) = HelloAck::open(&ack_frame, &key) else {
            return false;
        };
        if ack.nonce != nonce || ack.replica as usize != i {
            return false;
        }
        // Request/Reply frames ride the connection key derived from both
        // handshake nonces, binding them to this live connection (see
        // `wire::connection_key`).
        let conn_key = connection_key(&key, nonce, ack.server_nonce);
        // Steady-state read timeout: short, so the reader notices
        // shutdown promptly.
        let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
        let Ok(read_half) = stream.try_clone() else {
            return false;
        };
        if let Some(old) = self.conns[i].reader.take() {
            let _ = old.join();
        }
        self.conns[i].reader = Some(spawn_reader(
            read_half,
            i as u16,
            conn_key.clone(),
            self.tx.clone(),
            Arc::clone(&self.stop),
        ));
        self.conns[i].stream = Some(stream);
        self.conns[i].key = Some(conn_key);
        true
    }

    /// Drains the reply channel until `quorum` replicas agree
    /// byte-for-byte on `(status, payload)` for `seq`, until the replies
    /// still outstanding from `sent` could not bring any answer to
    /// `quorum`, or until the deadline passes. Counts a vote failure
    /// when replies arrived but never agreed.
    fn collect_votes(
        &self,
        seq: u64,
        sent: &[u16],
        quorum: usize,
        timeout: Duration,
    ) -> Option<(Status, Bytes)> {
        let deadline = Instant::now() + timeout;
        let mut votes: HashMap<(Status, Bytes), HashSet<u16>> = HashMap::new();
        let mut replied: HashSet<u16> = HashSet::new();
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            let outstanding = sent.iter().filter(|r| !replied.contains(r)).count();
            let best = votes.values().map(HashSet::len).max().unwrap_or(0);
            let reply = (best + outstanding >= quorum && !remaining.is_zero())
                .then(|| self.rx.recv_timeout(remaining).ok())
                .flatten();
            let Some(reply) = reply else {
                if !replied.is_empty() {
                    self.config.metrics.service_client_vote_failures.inc();
                }
                return None;
            };
            if reply.client != self.id || reply.seq != seq {
                continue; // stale round
            }
            replied.insert(reply.replica);
            let voters = votes
                .entry((reply.status, reply.payload.clone()))
                .or_default();
            voters.insert(reply.replica);
            if voters.len() >= quorum {
                return Some((reply.status, reply.payload));
            }
        }
    }

    /// Closes every connection and joins the reader threads.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for conn in &mut self.conns {
            if let Some(s) = conn.stream.take() {
                let _ = s.shutdown(std::net::Shutdown::Both);
            }
            if let Some(r) = conn.reader.take() {
                let _ = r.join();
            }
        }
    }
}

impl Drop for ServiceClient {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl core::fmt::Debug for ServiceClient {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceClient")
            .field("id", &self.id)
            .field("replicas", &self.conns.len())
            .finish_non_exhaustive()
    }
}

/// Spawns the per-connection reader: authenticates every inbound frame
/// under the connection's link key, enforces that the reply names the
/// replica this connection was dialed to (a replica cannot stuff votes
/// in its peers' names), and forwards accepted replies to the shared
/// vote channel.
fn spawn_reader(
    mut stream: TcpStream,
    replica: u16,
    key: HmacKey<Sha1>,
    tx: Sender<Reply>,
    stop: Arc<AtomicBool>,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Some(frame) = read_frame_polling(&mut stream, &stop) {
            match Reply::open(&frame, &key) {
                Ok(reply) if reply.replica == replica => {
                    if tx.send(reply).is_err() {
                        return;
                    }
                }
                Ok(_) | Err(_) => {}
            }
        }
    })
}
