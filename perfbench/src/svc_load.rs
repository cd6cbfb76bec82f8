//! `svc-write`: light-load request latency through every tier. Four
//! `ServiceReplica`s behind `ServiceServer`s (loopback TCP at the client
//! edge, in-memory `Hub` between replicas) under two closed-loop
//! `ServiceClient`s, each `invoke`-ing one command at a time: client seal
//! → TCP → session table → atomic broadcast of ~1-command batches → RSM
//! apply → reply → f+1 vote.

use crate::load::{payload, payload_op, ColdStart, Counters, Mode, Pass, PassSpec, N, OP_TIMEOUT};
use crate::probe::{pin_to, GENERATOR_CPU, PROGRAM_CPU};
use crate::spans::{Name, Spans};
use crate::stats::{percentile, Rng, SegmentClock};
use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas::service::{ServiceConfig, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_metrics::{Metrics, MetricsSnapshot};
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Barrier, Mutex};
use std::time::Instant;

/// Closed-loop clients (the workload's window).
const CLIENTS: usize = 2;

/// The replicated state: a counter every write increments and returns,
/// plus how often each `(client, seq)` was applied — the measured
/// exactly-once check.
#[derive(Default)]
pub struct LoadState {
    total: u64,
    applied: HashMap<(u64, u64), u64>,
}

pub fn apply(state: &mut LoadState, client: u64, cmd: &[u8]) -> Bytes {
    let seq = payload_op(cmd).unwrap_or(u64::MAX);
    *state.applied.entry((client, seq)).or_insert(0) += 1;
    state.total += 1;
    Bytes::copy_from_slice(&state.total.to_be_bytes())
}

pub fn query(state: &LoadState, _q: &[u8]) -> Bytes {
    Bytes::copy_from_slice(&state.total.to_be_bytes())
}

pub fn counter_of(reply: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(reply.try_into().ok()?))
}

pub struct Group {
    servers: Vec<ServiceServer<LoadState>>,
    addrs: Vec<SocketAddr>,
    key_seed: u64,
}

impl Group {
    /// Four replicas with keys dealt from `key_seed`, each behind a TCP
    /// front-end on an ephemeral loopback port. Replicas and front-ends
    /// are confined to the program's CPU; the calling thread, and the
    /// client threads it spawns from here on, move to the generator's.
    pub fn build(key_seed: u64, program_tracing: bool) -> Group {
        pin_to(PROGRAM_CPU);
        let session = SessionConfig::new(N)
            .expect("n = 4 is a valid group")
            .with_master_seed(key_seed);
        let dealer = ClientKeyDealer::new(session.client_key_seed());
        let servers: Vec<_> = Node::cluster(session.clone())
            .expect("in-memory cluster")
            .into_iter()
            .map(|node| {
                let replica = ServiceReplica::new(
                    node,
                    LoadState::default(),
                    ServiceConfig::default(),
                    apply,
                    query,
                );
                replica.metrics().set_tracing(program_tracing);
                ServiceServer::spawn(replica.into(), dealer, ServerConfig::default())
                    .expect("loopback listener")
            })
            .collect();
        pin_to(GENERATOR_CPU);
        Group {
            addrs: servers.iter().map(ServiceServer::addr).collect(),
            servers,
            key_seed: session.client_key_seed(),
        }
    }

    pub fn client(&self, id: u64, metrics: &Metrics) -> ServiceClient {
        let config = ClientConfig {
            key_seed: self.key_seed,
            metrics: metrics.clone(),
            ..ClientConfig::default()
        };
        ServiceClient::new(id, self.addrs.clone(), config)
    }

    pub fn replica(&self, p: usize) -> &ServiceReplica<LoadState> {
        self.servers[p].replica()
    }

    fn snapshots(&self) -> Vec<MetricsSnapshot> {
        (0..N)
            .map(|p| self.replica(p).metrics().snapshot())
            .collect()
    }

    /// Has `client` invoke its first command and waits until every
    /// replica has applied it. Returns the voted reply.
    fn commit_first(&self, client: &mut ServiceClient, rng: &mut Rng, len: usize) -> Option<u64> {
        let reply = client.invoke(Bytes::from(payload(rng, 1, len))).ok()?;
        for p in 0..N {
            self.replica(p)
                .await_reply(client.id(), 1, OP_TIMEOUT)
                .ok()?;
        }
        counter_of(&reply)
    }

    /// Clients first (closing their sockets ends the serving threads at
    /// once), then every node told to stop before any is joined.
    pub fn teardown(self, clients: Vec<ServiceClient>) {
        drop(clients);
        for s in &self.servers {
            s.replica().shutdown();
        }
        drop(self.servers);
    }
}

/// Client metrics registry with span/trace recording off.
fn client_metrics() -> Metrics {
    let m = Metrics::new();
    m.set_tracing(false);
    m
}

/// One cold start: fresh keys → group built (threads, listeners) → client
/// connected (HELLO handshakes) → first command committed at every
/// replica.
pub fn setup_once(seed: u64) -> ColdStart {
    let mut rng = Rng::new(seed);
    let (cold, (group, client, first)) = ColdStart::time(|| {
        let group = Group::build(rng.next_u64(), false);
        let mut client = group.client(1000 + rng.next_u64() % 1_000_000, &client_metrics());
        let first = group.commit_first(&mut client, &mut rng, 64);
        (group, client, first)
    });
    assert_eq!(first, Some(1), "set-up command not committed");
    group.teardown(vec![client]);
    cold
}

/// The measured window, shared by the client threads.
struct Window {
    clock: SegmentClock,
    /// Requests completed in the window so far.
    done: u64,
    /// Replica counters when the window opened.
    start: Counters,
}

/// What one client thread brings back.
struct ClientLog {
    client: ServiceClient,
    /// The replicated counter each successful invoke returned, in order.
    replies: Vec<u64>,
    latencies: Vec<(u32, u64)>,
    attempted: u64,
    failed: u64,
    spans: Spans,
}

pub fn run(spec: &PassSpec) -> Pass {
    let epoch = Instant::now();
    let mut rng = Rng::new(spec.seed);
    let group = Group::build(rng.next_u64(), spec.program_tracing.at(0));
    let metrics = client_metrics();
    let first_id = 1000 + rng.next_u64() % 1_000_000;
    let mut clients: Vec<ServiceClient> = (0..CLIENTS as u64)
        .map(|c| group.client(first_id + c, &metrics))
        .collect();
    let mut violations: Vec<String> = Vec::new();
    if group.commit_first(&mut clients[0], &mut rng, spec.payload) != Some(1) {
        violations.push("set-up command not committed".into());
    }

    let per_client_warmup = spec.warmup / CLIENTS as u64;
    let window: Mutex<Option<Window>> = Mutex::new(None);
    // Set when the measured window closes; a request in flight at that
    // moment completes and is in no metric.
    let draining = AtomicBool::new(false);
    let gate = Barrier::new(CLIENTS + 1);

    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let workers: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, client)| {
                let mut rng = Rng::new(spec.seed ^ (c as u64 + 1).wrapping_mul(0x9E37_79B9));
                let (group, window, draining, gate) = (&group, &window, &draining, &gate);
                scope.spawn(move || {
                    let mut log = ClientLog {
                        replies: Vec::new(),
                        latencies: Vec::new(),
                        attempted: 0,
                        failed: 0,
                        spans: Spans::new(spec.spans.at(0), epoch),
                        client,
                    };
                    // Client 0 already spent seq 1 on the set-up command.
                    let mut seq = if c == 0 { 1 } else { 0 };
                    // One request; its latency in ns, or None if it failed.
                    let mut invoke = |log: &mut ClientLog| {
                        seq += 1;
                        let cmd = Bytes::from(payload(&mut rng, seq, spec.payload));
                        let t0 = Instant::now();
                        let s = log.spans.open(Name::ClientInvoke, seq, None);
                        let reply = log.client.invoke(cmd);
                        log.spans.close(s);
                        log.attempted += 1;
                        match reply.ok().as_deref().and_then(counter_of) {
                            Some(n) => {
                                log.replies.push(n);
                                Some(t0.elapsed().as_nanos() as u64)
                            }
                            None => {
                                log.failed += 1;
                                None
                            }
                        }
                    };
                    for _ in 0..per_client_warmup {
                        invoke(&mut log);
                    }
                    gate.wait(); // every client warm: the main thread opens the window
                    gate.wait();
                    while !draining.load(Ordering::SeqCst) {
                        let Some(ns) = invoke(&mut log) else {
                            // A healthy group refuses nothing; do not
                            // keep hammering a wedged one.
                            draining.store(true, Ordering::SeqCst);
                            break;
                        };
                        let mut window = window.lock().expect("window lock");
                        let w = window.as_mut().expect("window opened at the gate");
                        if draining.load(Ordering::SeqCst) {
                            break;
                        }
                        log.latencies.push((w.clock.current_segment(), ns));
                        w.done += 1;
                        if w.clock.completed(w.done) {
                            draining.store(true, Ordering::SeqCst);
                        }
                        let registries = (0..N).map(|p| group.replica(p).metrics());
                        spec.switch(w.clock.current_segment(), &mut log.spans, registries);
                    }
                    log
                })
            })
            .collect();
        gate.wait();
        *window.lock().expect("window lock") = Some(Window {
            start: Counters::read(&group.snapshots()),
            done: 0,
            clock: SegmentClock::start(spec.ops, spec.segments, spec.cap),
        });
        gate.wait();
        workers
            .into_iter()
            .map(|w| w.join().expect("client thread"))
            .collect()
    });

    let window = window
        .into_inner()
        .expect("window lock")
        .expect("the measured window opened");
    // Read once both clients are back: the one request that was in flight
    // when the window closed is counted too, one in ~2000.
    let counters = Counters::read(&group.snapshots()).since(&window.start);
    let clock = window.clock;

    let mut spans = Spans::new(spec.spans != Mode::Off, epoch);
    let mut latencies = Vec::new();
    let mut replies = vec![1]; // the set-up command's reply
    let (mut attempted, mut failed) = (1, 0);
    let mut clients = Vec::new();
    for log in logs {
        if log.replies.windows(2).any(|w| w[0] >= w[1]) {
            violations.push(format!(
                "client {}: replies not increasing",
                log.client.id()
            ));
        }
        latencies.extend(log.latencies);
        replies.extend(log.replies);
        attempted += log.attempted;
        failed += log.failed;
        spans.merge(log.spans);
        clients.push(log.client);
    }

    // Every voted reply is the replicated counter at its apply: together
    // they are exactly 1..=writes.
    let writes = attempted - failed;
    replies.sort_unstable();
    if replies.iter().copied().ne(1..=writes) {
        violations.push(format!(
            "voted replies are not the counter values 1..={writes}"
        ));
    }

    let mut extra = Vec::new();
    if spec.spans != Mode::Off {
        // Optimistic reads, after the writes: every answer is the final
        // counter.
        let mut read_ns = Vec::new();
        let reads = (spec.ops / 2).max(20);
        for i in 0..reads {
            let t0 = Instant::now();
            let s = spans.open(Name::ClientRead, i, None);
            let reply = clients[0].read(Bytes::from_static(b"total"));
            spans.close(s);
            attempted += 1;
            match reply.ok().as_deref().and_then(counter_of) {
                Some(n) if n == writes => read_ns.push(t0.elapsed().as_nanos() as u64),
                Some(n) => violations.push(format!("read returned {n}, counter is {writes}")),
                None => failed += 1,
            }
        }
        read_ns.sort_unstable();
        extra.push((
            "service.read_p50_ms",
            percentile(&read_ns, 50.0) as f64 / 1e6,
        ));
        extra.push((
            "service.read_p99_ms",
            percentile(&read_ns, 99.0) as f64 / 1e6,
        ));
    }

    // A barrier per replica orders a marker and waits for its apply, so
    // everything ordered before it is in the state read next.
    let mut duplicate_applies = 0;
    let mut states = Vec::new();
    for p in 0..N {
        if group.replica(p).barrier().is_err() {
            violations.push(format!("replica {p}: barrier failed"));
        }
        states.push(group.replica(p).read_state(|st| {
            duplicate_applies += st.applied.values().map(|c| c - 1).sum::<u64>();
            let mut applied: Vec<_> = st.applied.iter().map(|(&k, &v)| (k, v)).collect();
            applied.sort_unstable();
            (st.total, applied)
        }));
    }
    if states.iter().any(|s| s != &states[0]) {
        violations.push("replica states differ".into());
    }
    if states[0].0 != writes || states[0].1.len() as u64 != writes {
        violations.push(format!(
            "replicated counter {} / {} distinct commands, {writes} writes voted",
            states[0].0,
            states[0].1.len()
        ));
    }
    if duplicate_applies > 0 {
        violations.push(format!("{duplicate_applies} duplicate applies"));
    }
    let client_snap = metrics.snapshot();
    extra.push(("service.duplicate_applies", duplicate_applies as f64));
    extra.push((
        "service.client_retries",
        client_snap.counter("service_client_retries") as f64,
    ));
    extra.push((
        "service.vote_failures",
        client_snap.counter("service_client_vote_failures") as f64,
    ));
    group.teardown(clients);

    Pass {
        attempted,
        failed,
        violations,
        clock,
        latencies,
        counters,
        spans,
        extra,
    }
}
