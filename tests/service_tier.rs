//! Service-tier integration tests: the intrusion-tolerant client
//! front-end (`ritas-service`) over a real `n = 4, f = 1` replica group
//! with TCP client connections.
//!
//! Six properties from the paper's service model are checked here:
//!
//! 1. **Exactly-once** — a client retry of an in-flight request is
//!    answered from the session table, never applied twice, and the
//!    dedup path is observable through metrics.
//! 2. **`f+1`-vote reply masking** — one Byzantine replica returning
//!    corrupted (but correctly MAC'd) replies is outvoted by `f+1`
//!    byte-identical replies from correct replicas.
//! 3. **Bounded sessions** — the session table's LRU eviction never
//!    loses a live in-flight request; when a replica has as many
//!    requests in flight as the table has slots, its front-end sheds
//!    load with `Busy` and clients retry through.
//! 4. **Channel faults below the service** — over the real TCP replica
//!    mesh, a replica↔replica socket killed mid-run costs the clients
//!    nothing but latency.
//! 5. **A front-end down** — clients keep completing every invoke while
//!    one of the four front-ends refuses connections.
//! 6. **Reads are ordered** — a read reflects every write that completed
//!    before it, even when a lagging replica and a lying one agree on a
//!    stale answer.
//!
//! Timing-dependent (real threads, real sockets at the client edge).

mod common;

use bytes::Bytes;
use common::{audit_apply, audit_query, duplicate_applies, Audit};
use ritas::adversary::FrameMutator;
use ritas::node::{Node, SessionConfig};
use ritas::service::{ServiceConfig, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_metrics::Metrics;
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use ritas_service::wire::{
    connection_key, fresh_nonce, read_frame, write_frame, Hello, HelloAck, Reply, Request,
    RequestKind, RequestMode, Status,
};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Spawns a 4-replica group (in-memory replica mesh, TCP client edge)
/// and returns the front-ends plus the shared client key seed.
/// `apply_delay` artificially stretches every apply — used to keep
/// requests in flight long enough for admission pressure to be
/// deterministic rather than a race against the optimizer.
fn cluster(config: ServiceConfig, apply_delay: Duration) -> (Vec<ServiceServer<Audit>>, u64) {
    let session = SessionConfig::new(4).expect("n=4");
    let key_seed = session.client_key_seed();
    let nodes = Node::cluster(session).expect("cluster");
    (front_ends(nodes, key_seed, config, apply_delay), key_seed)
}

/// One audited `ServiceReplica` and its TCP front-end per node.
fn front_ends(
    nodes: Vec<Node>,
    key_seed: u64,
    config: ServiceConfig,
    apply_delay: Duration,
) -> Vec<ServiceServer<Audit>> {
    let dealer = ClientKeyDealer::new(key_seed);
    nodes
        .into_iter()
        .map(|node| {
            let replica = Arc::new(ServiceReplica::new(
                node,
                Audit::default(),
                config.clone(),
                move |state: &mut Audit, client, cmd: &[u8]| {
                    if !apply_delay.is_zero() {
                        std::thread::sleep(apply_delay);
                    }
                    audit_apply(state, client, cmd)
                },
                audit_query,
            ));
            ServiceServer::spawn(replica, dealer, ServerConfig::default()).expect("front-end")
        })
        .collect()
}

/// A gate that threads wait at until it opens.
#[derive(Clone, Default)]
struct Gate(Arc<(Mutex<bool>, Condvar)>);

impl Gate {
    fn open(&self) {
        *self.0 .0.lock().unwrap() = true;
        self.0 .1.notify_all();
    }

    fn pass(&self) {
        let (open, cv) = &*self.0;
        let _open = cv.wait_while(open.lock().unwrap(), |open| !*open).unwrap();
    }

    /// Holds the protocol thread of every replica of `servers` at this
    /// gate, returning once all of them wait there: nothing orders, so
    /// every request submitted stays in flight, while admission, which
    /// runs on the connection threads, keeps answering.
    fn hold_ordering(&self, servers: &[ServiceServer<Audit>]) {
        let held = Arc::new(std::sync::Barrier::new(servers.len() + 1));
        for s in servers {
            let (gate, held) = (self.clone(), Arc::clone(&held));
            let replica = Arc::clone(s.replica());
            std::thread::spawn(move || {
                let _ = replica.node().with_stack(move |_, _| {
                    held.wait();
                    gate.pass();
                });
            });
        }
        held.wait();
    }
}

fn addrs_of(servers: &[ServiceServer<Audit>]) -> Vec<SocketAddr> {
    servers.iter().map(|s| s.addr()).collect()
}

fn replicas_of(servers: &[ServiceServer<Audit>]) -> Vec<&ServiceReplica<Audit>> {
    servers.iter().map(|s| s.replica().as_ref()).collect()
}

/// Command payload: 8-byte request index, then filler.
fn payload(i: u64) -> Bytes {
    let mut v = vec![0u8; 24];
    v[..8].copy_from_slice(&i.to_be_bytes());
    Bytes::from(v)
}

fn shutdown(mut servers: Vec<ServiceServer<Audit>>) {
    for s in &mut servers {
        s.replica().shutdown();
        s.shutdown();
    }
}

/// A Byzantine front-end of replica `replica`: a proxy that holds the
/// replica's client link keys, which is what an intruded replica holds.
/// It answers a client's HELLO as the replica (with its own server
/// nonce), dials the real front-end at `real` as the same client,
/// forwards every request, and seals every reply back with `lie` applied
/// to `Status::Ok` payloads: a lie with a valid MAC, which only the
/// `f+1` vote can reject. Returns the address clients dial instead.
fn lying_front_end(
    real: SocketAddr,
    replica: u16,
    key_seed: u64,
    lie: impl Fn(&Request, Bytes) -> Bytes + Send + Sync + 'static,
) -> SocketAddr {
    let listener = TcpListener::bind(("127.0.0.1", 0)).expect("bind the liar");
    let addr = listener.local_addr().expect("liar address");
    let dealer = ClientKeyDealer::new(key_seed);
    let lie = Arc::new(lie);
    std::thread::spawn(move || {
        for down in listener.incoming().flatten() {
            let lie = Arc::clone(&lie);
            std::thread::spawn(move || relay(down, real, replica, dealer, &*lie));
        }
    });
    addr
}

/// Serves one client connection of [`lying_front_end`] until either
/// side closes it. A front-end serves a connection's requests in order,
/// so each reply upstream answers the request just forwarded.
fn relay(
    mut down: TcpStream,
    real: SocketAddr,
    replica: u16,
    dealer: ClientKeyDealer,
    lie: &dyn Fn(&Request, Bytes) -> Bytes,
) -> Option<()> {
    let hello_frame = read_frame(&mut down).ok()?;
    let client = Hello::peek_client(&hello_frame).ok()?;
    let key = dealer.link_key(client, u64::from(replica));
    let hello = Hello::open(&hello_frame, &key).ok()?;
    let mut up = TcpStream::connect(real).ok()?;
    // A frame is two writes (length, body): no Nagle delay on either hop.
    up.set_nodelay(true).ok()?;
    down.set_nodelay(true).ok()?;
    let nonce = fresh_nonce();
    write_frame(&mut up, &Hello { client, nonce }.seal(&key)).ok()?;
    let ack = HelloAck::open(&read_frame(&mut up).ok()?, &key).ok()?;
    let up_key = connection_key(&key, nonce, ack.server_nonce);
    let server_nonce = fresh_nonce();
    let ack = HelloAck {
        nonce: hello.nonce,
        server_nonce,
        ..ack
    };
    write_frame(&mut down, &ack.seal(&key)).ok()?;
    let down_key = connection_key(&key, hello.nonce, server_nonce);
    loop {
        let request = Request::open(&read_frame(&mut down).ok()?, &down_key).ok()?;
        write_frame(&mut up, &request.seal(&up_key)).ok()?;
        let mut reply = Reply::open(&read_frame(&mut up).ok()?, &up_key).ok()?;
        if reply.status == Status::Ok {
            reply.payload = lie(&request, reply.payload);
        }
        write_frame(&mut down, &reply.seal(&down_key)).ok()?;
    }
}

/// Every replica corrupts the *first* reply it sends for any given
/// `(client, seq)` — so the first vote round can never reach `f+1`
/// matching votes (all its replies are distinct garbage) and the client
/// must retry, deterministically, independent of scheduling or build
/// profile. The retry re-sends the same sequence number; it must be
/// answered from the session table or merged onto the in-flight request,
/// and the replicated state must show exactly one apply.
#[test]
fn client_retry_is_applied_exactly_once() {
    let (servers, key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let mut addrs = Vec::new();
    for (i, server) in servers.iter().enumerate() {
        let seen = Mutex::new(std::collections::HashSet::new());
        let lie = move |req: &Request, payload| {
            if seen.lock().unwrap().insert((req.client, req.seq)) {
                // First sight: a per-replica lie (valid MAC, wrong bytes).
                Bytes::from(format!("corrupt-{i}"))
            } else {
                payload
            }
        };
        addrs.push(lying_front_end(server.addr(), i as u16, key_seed, lie));
    }
    let metrics = Metrics::new();
    let mut client = ServiceClient::new(
        7,
        addrs,
        ClientConfig {
            key_seed,
            request_timeout: Duration::from_millis(700),
            max_attempts: 6,
            backoff: Duration::from_millis(20),
            metrics: metrics.clone(),
            ..ClientConfig::default()
        },
    );

    let reply = client.invoke(payload(1)).expect("invoke through retries");
    assert_eq!(reply.as_ref(), 1u64.to_be_bytes(), "first apply replies 1");
    client.shutdown();

    let snap = metrics.snapshot();
    let retries = snap
        .counters
        .get("service_client_retries")
        .copied()
        .unwrap_or(0);
    assert!(retries >= 1, "the corrupted first round must force a retry");

    // The retries were served from the session table, not re-applied.
    let dedup: u64 = servers
        .iter()
        .map(|s| {
            let m = s.replica().metrics();
            m.service_dedup_hits.get() + m.service_dup_apply_skipped.get()
        })
        .sum();
    assert!(dedup >= 1, "retry must be visible as a dedup hit");
    assert_eq!(
        duplicate_applies(&replicas_of(&servers)),
        0,
        "retry applied twice"
    );
    shutdown(servers);
}

/// One Byzantine front-end rewrites every successful reply payload with
/// a seeded bit-flip (the MAC is computed *after* tampering, so the lie
/// is cryptographically valid — only the `f+1` vote can reject it). The
/// client must still get every answer right, from the `f+1` correct
/// byte-identical replies.
#[test]
fn byzantine_replica_replies_are_outvoted() {
    let (servers, key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let tampered = Arc::new(AtomicU64::new(0));
    let mut addrs = addrs_of(&servers);
    {
        let mutator = Mutex::new(FrameMutator::new(0xBAD));
        let tampered = Arc::clone(&tampered);
        addrs[0] = lying_front_end(addrs[0], 0, key_seed, move |_req, payload| {
            tampered.fetch_add(1, Ordering::Relaxed);
            mutator.lock().unwrap().flip_bit(payload)
        });
    }

    let mut client = ServiceClient::new(
        11,
        addrs,
        ClientConfig {
            key_seed,
            ..ClientConfig::default()
        },
    );
    // Enough requests that the rotating fan-out contacts the Byzantine
    // replica repeatedly; the reply (the running total) is deterministic
    // for a single client, so every vote has a known right answer.
    for i in 1..=8u64 {
        let reply = client.invoke(payload(i)).expect("masked invoke");
        assert_eq!(
            reply.as_ref(),
            i.to_be_bytes(),
            "corrupted reply won the vote at request {i}"
        );
    }
    client.shutdown();

    assert!(
        tampered.load(Ordering::Relaxed) >= 1,
        "the Byzantine replica was never consulted — the test proved nothing"
    );
    assert_eq!(duplicate_applies(&replicas_of(&servers)), 0);
    shutdown(servers);
}

/// Exactly-once **across a batch boundary**: the same `(client, seq)`
/// is submitted concurrently at two *different* replicas. The AB layer
/// only ever packs one sender's queue into a batch, so the two copies
/// travel in two distinct batches by construction — the ordered stream
/// contains the duplicate at two positions, in different batches, and
/// the replicated session table must skip the second one at every
/// replica. Concurrent filler traffic at both submitters makes the
/// batches non-trivial, so the duplicate crosses a real batch boundary
/// rather than riding in two singleton batches.
#[test]
fn retry_across_batch_boundary_applies_once() {
    let (servers, _key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let t = Duration::from_secs(20);
    let start = Arc::new(std::sync::Barrier::new(10));

    // Filler: 4 unique clients per submitter replica, racing the
    // duplicate pair into the same batching window.
    let mut workers: Vec<_> = (0..8u64)
        .map(|i| {
            let r = Arc::clone(servers[(i % 2) as usize].replica());
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                r.submit(
                    200 + i,
                    1,
                    ritas::service::CommandKind::Apply,
                    payload(1),
                    t,
                )
                .map(|_| ())
            })
        })
        .collect();
    // The duplicate pair: same (client, seq) at replicas 0 and 1. Neither
    // replica has it in flight yet, so both submit into the ordered
    // stream.
    let dup: Vec<_> = [0usize, 1]
        .into_iter()
        .map(|replica| {
            let r = Arc::clone(servers[replica].replica());
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                start.wait();
                r.submit(99, 1, ritas::service::CommandKind::Apply, payload(1), t)
            })
        })
        .collect();
    let mut replies = Vec::new();
    for h in dup {
        replies.push(h.join().expect("dup submitter").expect("dup reply"));
    }
    assert_eq!(
        replies[0], replies[1],
        "both copies of (99, 1) must observe the same reply"
    );
    for w in workers.drain(..) {
        w.join().expect("filler").expect("filler reply");
    }

    // Both copies entered the ordered stream (in two different batches —
    // they have different senders) and exactly one applied.
    let skipped: u64 = servers
        .iter()
        .map(|s| s.replica().metrics().service_dup_apply_skipped.get())
        .sum();
    assert!(
        skipped >= 1,
        "the ordered duplicate must be skipped, not silently absent"
    );
    assert_eq!(
        duplicate_applies(&replicas_of(&servers)),
        0,
        "cross-batch dedup failed"
    );

    // Per-key audit: (99, 1) applied exactly once at every replica.
    for s in &servers {
        let count = s
            .replica()
            .read_state(|st| st.applied.get(&(99, 1)).copied().unwrap_or(0));
        assert_eq!(count, 1, "replica applied (99, 1) {count} times");
    }

    // The batched path was actually exercised: batches were formed and
    // every replica agrees on the batch count it delivered locally.
    let stats = servers[0]
        .replica()
        .node()
        .with_stack(|stack, _| stack.ab(0).map(|ab| ab.stats()))
        .expect("node alive")
        .expect("ab session exists");
    assert!(stats.batches >= 1, "no batch was ever flushed");
    shutdown(servers);
}

/// With a session table far smaller than the client population, eviction
/// pressure is constant — but in-flight requests live outside the table,
/// and the front-end sheds the overflow with `Busy` instead.
/// Every client must still complete, and every client's request must
/// actually reach the replicated state.
///
/// Note the scope: the *exactly-once dedup window* equals the table
/// capacity (see `DESIGN.md` §6) — a deliberately undersized table like
/// this one sheds load correctly but cannot remember completed sessions
/// long enough to absorb every duplicate ordered copy, which is why the
/// zero-duplicate audits live in the other tests, at default capacity.
/// What must hold at *any* capacity is what this test checks: no live
/// in-flight request is ever evicted, so every admitted request
/// completes and replies stay correct.
#[test]
fn session_bound_sheds_load_without_evicting_in_flight() {
    // Nothing orders until the gate opens, and the 12 clients' 24 first
    // submits land on 4 replicas of 4 slots each: some replica must shed
    // a fifth while its first four are in flight. The gate opens once
    // one has. (It holds ordering, not applies: an apply runs under the
    // state lock that admission takes too.)
    let (servers, key_seed) = cluster(
        ServiceConfig {
            session_capacity: 4,
        },
        Duration::ZERO,
    );
    let gate = Gate::default();
    gate.hold_ordering(&servers);
    let addrs = addrs_of(&servers);
    let start = Arc::new(std::sync::Barrier::new(12));

    let workers: Vec<_> = (0..12u64)
        .map(|c| {
            let addrs = addrs.clone();
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = ServiceClient::new(
                    100 + c,
                    addrs,
                    ClientConfig {
                        key_seed,
                        max_attempts: 60,
                        backoff: Duration::from_millis(5),
                        // Four sessions for twelve clients: an observer
                        // that asks after its command applied and its
                        // session was evicted waits for an apply that
                        // already happened. A round, not 10 s, pays.
                        request_timeout: Duration::from_millis(500),
                        ..ClientConfig::default()
                    },
                );
                start.wait();
                let reply = client.invoke(payload(1));
                client.shutdown();
                reply
            })
        })
        .collect();
    let shed = || -> u64 {
        let metrics = servers.iter().map(|s| s.replica().metrics());
        metrics.map(|m| m.service_busy_rejected.get()).sum()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while shed() == 0 {
        assert!(Instant::now() < deadline, "no replica shed a submit");
        std::thread::sleep(Duration::from_millis(1));
    }
    gate.open();
    let mut ok = 0;
    for w in workers {
        if w.join().expect("client thread").is_ok() {
            ok += 1;
        }
    }
    assert_eq!(ok, 12, "every client must get through the Busy shedding");

    // The bound actually engaged: some requests were shed with Busy.
    let busy: u64 = servers
        .iter()
        .map(|s| s.replica().metrics().service_busy_rejected.get())
        .sum();
    assert!(busy >= 1, "12 clients through 4 slots must shed some load");

    // No in-flight request was evicted: every admitted request reached
    // the replicated state (a lost one would strand its waiter and fail
    // that client's invoke above).
    for s in &servers {
        let _ = s.replica().barrier();
    }
    let distinct = servers[0].replica().read_state(|st| st.applied.len());
    assert_eq!(distinct, 12, "every client's request must have applied");
    shutdown(servers);
}

/// The service group over the real TCP replica mesh (the other tests
/// order over the in-memory hub), driven by TCP clients while the
/// replica 0 ↔ 1 socket is killed mid-run. Every invoke must succeed
/// and apply exactly once, and the session layer must report the
/// resume — so a run whose kill missed cannot pass.
#[test]
fn service_over_tcp_mesh_survives_a_killed_replica_link() {
    const CLIENTS: u64 = 3;
    const REQUESTS: u64 = 20;
    let session = SessionConfig::new(4).expect("n=4");
    let key_seed = session.client_key_seed();
    let (nodes, chaos) =
        Node::tcp_cluster_with_chaos(session, Duration::from_secs(10)).expect("tcp mesh");
    let servers = front_ends(nodes, key_seed, ServiceConfig::default(), Duration::ZERO);
    let addrs = addrs_of(&servers);

    let done = Arc::new(AtomicU64::new(0));
    let workers: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let addrs = addrs.clone();
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut client = ServiceClient::new(
                    300 + c,
                    addrs,
                    ClientConfig {
                        key_seed,
                        ..ClientConfig::default()
                    },
                );
                let mut ok = 0;
                for i in 1..=REQUESTS {
                    if client.invoke(payload(i)).is_ok() {
                        ok += 1;
                    }
                    done.fetch_add(1, Ordering::Relaxed);
                }
                client.shutdown();
                ok
            })
        })
        .collect();

    // Kill the link a third of the way in, with the clients still going.
    let deadline = Instant::now() + Duration::from_secs(60);
    while done.load(Ordering::Relaxed) < CLIENTS * REQUESTS / 3 {
        assert!(Instant::now() < deadline, "clients made no progress");
        std::thread::sleep(Duration::from_millis(1));
    }
    assert!(chaos[0].kill_link(1), "link 0->1 was not live at the kill");

    let ok: u64 = workers.into_iter().map(|w| w.join().expect("client")).sum();
    assert_eq!(ok, CLIENTS * REQUESTS, "an invoke failed under link chaos");

    let reconnects = || -> u64 {
        servers
            .iter()
            .map(|s| s.replica().metrics().transport_reconnects_total.get())
            .sum()
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while reconnects() == 0 {
        assert!(Instant::now() < deadline, "the killed link never resumed");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(duplicate_applies(&replicas_of(&servers)), 0);
    let distinct = servers[0]
        .replica()
        .read_state(|st| st.applied.len() as u64);
    assert_eq!(distinct, CLIENTS * REQUESTS, "every invoke applied");
    shutdown(servers);
}

/// Clients keep completing every invoke while one front-end is gone
/// (shut down: its connections closed, new ones refused) and its replica
/// keeps ordering. This is the client's unreachable-replica path: the
/// write or the redial to the dead front-end fails, the fan-out counts
/// only the live legs, and the `f+1` vote forms from the 2 live
/// front-ends of the 3 targeted — in the first round, with no retry.
#[test]
fn clients_complete_every_invoke_while_a_front_end_is_gone() {
    let (mut servers, key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let metrics = Metrics::new();
    let mut clients: Vec<ServiceClient> = (0..3)
        .map(|c| {
            ServiceClient::new(
                400 + c,
                addrs_of(&servers),
                ClientConfig {
                    key_seed,
                    metrics: metrics.clone(),
                    ..ClientConfig::default()
                },
            )
        })
        .collect();
    // Every client connected to the front-ends it targets.
    for i in 1..=4 {
        for c in &mut clients {
            c.invoke(payload(i)).expect("invoke, all front-ends up");
        }
    }

    let mut gone = servers.pop().expect("four front-ends");
    gone.shutdown();
    assert!(
        TcpStream::connect(gone.addr()).is_err(),
        "the shut-down front-end still accepts connections"
    );
    for i in 5..=12 {
        for c in &mut clients {
            c.invoke(payload(i)).expect("invoke, one front-end gone");
        }
    }
    for c in &mut clients {
        c.shutdown();
    }

    let retries = metrics
        .snapshot()
        .counters
        .get("service_client_retries")
        .copied()
        .unwrap_or(0);
    assert_eq!(retries, 0, "a vote needed a retry");
    // 3 clients x 12 invokes, each one request that completed.
    assert_eq!(metrics.service_client_requests.get(), 36);
    assert_eq!(metrics.service_e2e_latency_ns.snapshot().count, 36);
    let mut replicas = replicas_of(&servers);
    replicas.push(gone.replica());
    assert_eq!(duplicate_applies(&replicas), 0);
    let distinct = gone.replica().read_state(|st| st.applied.len());
    assert_eq!(distinct, 3 * 12, "every invoke applied");
    gone.replica().shutdown();
    shutdown(servers);
}

/// A read never misses a write that completed before it. Replica 1 lags
/// (its protocol thread is wedged for 2 s, so it cannot apply the write)
/// and replica 0's front-end lies on every read with the pre-write total
/// while answering writes honestly. Client 1's write (seq 1) goes to the
/// `2f+1` set rotated by `(id + seq) mod n = 2`, i.e. {2, 3, 0}, and
/// completes at `f+1 = 2` replies without replica 1. Its read (seq 2)
/// goes to the set rotated by `(1 + 2) mod 4 = 3`, i.e. {3, 0, 1}. The
/// lagging replica is outside the write's set on purpose: a front-end
/// serves one connection's requests in order, so a replica still waiting
/// to apply the write would answer the read only after it. An answer
/// taken from local state could then be the stale total from both
/// replica 1 and replica 0. Ordered, the read is evaluated after the
/// write, and the correct replicas 3 and 1 answer the post-write total.
#[test]
fn a_read_never_misses_a_completed_write() {
    let (servers, key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let mut addrs = addrs_of(&servers);
    addrs[0] = lying_front_end(addrs[0], 0, key_seed, |req, payload| {
        if req.kind == RequestKind::Apply {
            payload
        } else {
            Bytes::from(0u64.to_be_bytes().to_vec())
        }
    });
    let lagging = Arc::clone(servers[1].replica());
    let (wedged, wedged_rx) = std::sync::mpsc::channel();
    let wedge = std::thread::spawn(move || {
        lagging.node().with_stack(move |_, _| {
            let _ = wedged.send(());
            std::thread::sleep(Duration::from_secs(2));
        })
    });
    wedged_rx
        .recv()
        .expect("replica 1's protocol thread is wedged");

    let mut client = ServiceClient::new(
        1,
        addrs,
        ClientConfig {
            key_seed,
            ..ClientConfig::default()
        },
    );
    let written = client.invoke(payload(1)).expect("write (seq 1)");
    assert_eq!(
        written.as_ref(),
        1u64.to_be_bytes(),
        "the write applies once"
    );
    let read = client
        .read(Bytes::from_static(b"total"))
        .expect("read (seq 2)");
    assert_eq!(
        read.as_ref(),
        1u64.to_be_bytes(),
        "the read missed the write that completed before it"
    );
    client.shutdown();
    wedge
        .join()
        .expect("wedge thread")
        .expect("replica 1 alive");
    assert_eq!(duplicate_applies(&replicas_of(&servers)), 0);
    shutdown(servers);
}

/// A front-end shuts down at once while a connection of it waits for an
/// apply that never comes: the replica's shutdown drops the waiter,
/// which wakes the connection thread instead of leaving it blocked until
/// `ServerConfig::request_timeout` (20 s).
#[test]
fn front_end_shutdown_does_not_wait_out_a_blocked_request() {
    let (mut servers, key_seed) = cluster(ServiceConfig::default(), Duration::ZERO);
    let mut server = servers.remove(0);
    let (client, seq) = (77, 1);
    let key = ClientKeyDealer::new(key_seed).link_key(client, 0);
    let mut stream = TcpStream::connect(server.addr()).expect("dial the front-end");
    let nonce = fresh_nonce();
    write_frame(&mut stream, &Hello { client, nonce }.seal(&key)).expect("HELLO");
    let ack = HelloAck::open(&read_frame(&mut stream).expect("ACK"), &key).expect("ACK");
    let conn_key = connection_key(&key, nonce, ack.server_nonce);
    // An observer of a command nobody submits waits for its apply.
    let request = Request {
        client,
        seq,
        kind: RequestKind::Apply,
        mode: RequestMode::Observe,
        payload: payload(1),
    };
    write_frame(&mut stream, &request.seal(&conn_key)).expect("request");
    let metrics = server.replica().metrics().clone();
    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.service_requests_total.get() == 0 {
        assert!(Instant::now() < deadline, "the request never arrived");
        std::thread::sleep(Duration::from_millis(1));
    }
    let start = Instant::now();
    server.replica().shutdown();
    server.shutdown();
    let took = start.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let reply = Reply::open(&read_frame(&mut stream).expect("reply"), &conn_key).expect("MAC");
    assert_eq!((reply.seq, reply.status), (seq, Status::Error));
    shutdown(servers);
}
