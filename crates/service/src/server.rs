//! The replica-side client front-end: a TCP listener embedded in the
//! replica runtime that authenticates client connections, deduplicates
//! retries through the session table, submits commands via atomic
//! broadcast, and answers after the local apply.
//!
//! One [`ServiceServer`] runs next to each [`ServiceReplica`]; a client
//! talks to `2f+1` of them and masks Byzantine answers by `f+1` voting
//! (see the `client` module). The server never needs to be trusted
//! individually — a lying front-end is exactly the fault the vote
//! absorbs.

use crate::wire::{
    connection_key, fresh_nonce, read_frame_polling, write_frame, FrameError, Hello, HelloAck,
    Reply, Request, RequestKind, RequestMode, Status,
};
use bytes::Bytes;
use ritas::service::{request_span, CommandKind, ServiceError, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_metrics::Layer;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Tuning for a [`ServiceServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// How long one request may wait for its apply before the replica
    /// answers [`Status::Error`] and lets the client retry elsewhere.
    pub request_timeout: Duration,
    /// Socket read timeout (also the shutdown poll granularity).
    pub read_timeout: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            request_timeout: Duration::from_secs(20),
            read_timeout: Duration::from_millis(200),
        }
    }
}

/// The TCP front-end of one service replica.
pub struct ServiceServer<S: Send + 'static> {
    replica: Arc<ServiceReplica<S>>,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl<S: Send + 'static> ServiceServer<S> {
    /// Binds an ephemeral localhost listener and starts serving clients
    /// of `replica`, authenticating them against `dealer`.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures.
    pub fn spawn(
        replica: Arc<ServiceReplica<S>>,
        dealer: ClientKeyDealer,
        config: ServerConfig,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let replica = Arc::clone(&replica);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut conn_threads: Vec<JoinHandle<()>> = Vec::new();
                // Blocks in `accept`, so a client is served the moment it
                // connects; `shutdown` sets `stop` and connects once to
                // have it looked at.
                while let Ok((stream, _peer)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    // A finished thread's handle still holds its stack
                    // mapping until joined or dropped: drop those now, so
                    // the address space does not grow with every
                    // connection ever accepted.
                    conn_threads.retain(|t| !t.is_finished());
                    let replica = Arc::clone(&replica);
                    let stop = Arc::clone(&stop);
                    let config = config.clone();
                    conn_threads.push(std::thread::spawn(move || {
                        serve_connection(stream, replica, dealer, config, stop);
                    }));
                }
                for t in conn_threads {
                    let _ = t.join();
                }
            })
        };
        Ok(ServiceServer {
            replica,
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The replica this front-end serves.
    pub fn replica(&self) -> &Arc<ServiceReplica<S>> {
        &self.replica
    }

    /// Stops accepting, closes serving threads, and waits for them.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            // The accept thread sees `stop` at its next connection: make
            // one. If that fails and the thread has not already ended,
            // it is left to end by itself rather than joined forever.
            if TcpStream::connect(self.addr).is_ok() || t.is_finished() {
                let _ = t.join();
            }
        }
    }
}

impl<S: Send + 'static> Drop for ServiceServer<S> {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl<S: Send + 'static> core::fmt::Debug for ServiceServer<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("ServiceServer")
            .field("addr", &self.addr)
            .finish_non_exhaustive()
    }
}

/// Serves one authenticated client connection until EOF, error, or
/// server shutdown.
fn serve_connection<S: Send + 'static>(
    mut stream: TcpStream,
    replica: Arc<ServiceReplica<S>>,
    dealer: ClientKeyDealer,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    let metrics = replica.metrics().clone();
    let me = replica.id() as u16;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(config.read_timeout));

    // ---- handshake: HELLO / HELLO_ACK under the pairwise link key ----
    let hello_frame = match read_frame_polling(&mut stream, &stop) {
        Some(f) => f,
        None => return,
    };
    let client = match Hello::peek_client(&hello_frame) {
        Ok(c) => c,
        Err(_) => {
            metrics.service_auth_rejected.inc();
            return;
        }
    };
    let key = dealer.link_key(client, u64::from(me));
    let hello = match Hello::open(&hello_frame, &key) {
        Ok(h) => h,
        Err(_) => {
            metrics.service_auth_rejected.inc();
            return;
        }
    };
    let n = replica.group_size();
    // Challenge the client back with a fresh nonce: request frames are
    // MAC'd under the connection key derived from both nonces, so a
    // recorded HELLO + request transcript replayed by a network
    // adversary dies at the first request (it cannot re-seal under the
    // new key without the link key).
    let server_nonce = fresh_nonce();
    let ack = HelloAck {
        replica: me,
        n: n as u16,
        f: ((n - 1) / 3) as u16,
        nonce: hello.nonce,
        server_nonce,
    };
    if write_frame(&mut stream, &ack.seal(&key)).is_err() {
        return;
    }
    let conn_key = connection_key(&key, hello.nonce, server_nonce);

    // ---- request loop ----
    loop {
        let frame = match read_frame_polling(&mut stream, &stop) {
            Some(f) => f,
            None => return,
        };
        let request = match Request::open(&frame, &conn_key) {
            Ok(r) if r.client == hello.client => r,
            Ok(_) | Err(FrameError::BadMac) => {
                // Wrong MAC, or a (validly MACed) request for a different
                // client smuggled over this client's connection.
                metrics.service_auth_rejected.inc();
                continue;
            }
            Err(FrameError::Wire(_)) => {
                metrics.service_auth_rejected.inc();
                continue;
            }
        };
        let (status, payload) = execute(&replica, &request, config.request_timeout);
        let span = request_span(&metrics, request.client, request.seq, "/reply");
        if let Some(span) = &span {
            metrics.span_open(span.as_str(), Layer::Service);
        }
        let reply = Reply {
            replica: me,
            client: request.client,
            seq: request.seq,
            status,
            payload,
        };
        let ok = write_frame(&mut stream, &reply.seal(&conn_key)).is_ok();
        if let Some(span) = &span {
            metrics.span_close(span);
        }
        if !ok {
            return;
        }
        metrics.service_replies_total.inc();
    }
}

/// Runs one request against the replica, mapping service errors onto
/// wire statuses.
fn execute<S: Send + 'static>(
    replica: &ServiceReplica<S>,
    request: &Request,
    timeout: Duration,
) -> (Status, Bytes) {
    let kind = match request.kind {
        RequestKind::Apply => CommandKind::Apply,
        RequestKind::OrderedRead => CommandKind::OrderedRead,
    };
    let outcome = match request.mode {
        RequestMode::Observe => replica.await_reply(request.client, request.seq, timeout),
        RequestMode::Submit => replica.submit(
            request.client,
            request.seq,
            kind,
            request.payload.clone(),
            timeout,
        ),
    };
    match outcome {
        Ok(reply) => (Status::Ok, reply),
        Err(ServiceError::Busy) => (Status::Busy, Bytes::new()),
        Err(ServiceError::Stale) => (Status::Stale, Bytes::new()),
        Err(ServiceError::Timeout) | Err(ServiceError::Node(_)) => (Status::Error, Bytes::new()),
    }
}
