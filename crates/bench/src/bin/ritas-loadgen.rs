//! **ritas-loadgen** — the service-tier load generator that seeds the
//! bench trajectory for the client front-end.
//!
//! Spins up a full `n = 4, f = 1` replica group with a TCP service
//! front-end per replica, drives it with concurrent intrusion-tolerant
//! clients (`2f+1` fan-out, `f+1`-vote reply masking), and reports
//! throughput plus end-to-end client latency percentiles.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p ritas-bench --bin ritas-loadgen -- \
//!     [--clients N] [--requests M] [--warmup W] [--rate R]
//!     [--value-size B] [--tcp] [--chaos] [--seed S] [--json]
//! ```
//!
//! * `--clients` — concurrent closed-loop clients (default 4);
//! * `--requests` — steady-state requests per client (default 50);
//! * `--warmup` — warm-up requests per client excluded from every
//!   aggregate (default 5): connection setup, session establishment and
//!   first-ever AB instances are not steady state. All clients finish
//!   their warm-up and rendezvous on a barrier before the measured
//!   window opens;
//! * `--rate` — total open-loop request rate in req/s (0 = closed loop);
//! * `--value-size` — request payload bytes (default 64);
//! * `--tcp` — replica mesh over real TCP sessions (default: in-memory
//!   hub mesh with TCP only at the client edge);
//! * `--chaos` — implies `--tcp`; kills one replica↔replica socket
//!   mid-run and lets the session layer resume it (the CI smoke's
//!   fault);
//! * `--kill-replica N@T` — hub mesh only: `T` milliseconds into the
//!   measured window, fail-stop **and wipe** replica `N` (its state and
//!   front-end are destroyed), then rejoin it through snapshot transfer +
//!   Merkle anti-entropy while the load keeps running. The JSON report
//!   gains `time_to_live_ms` — wall time from the rejoin call to the
//!   replica reaching the `Live` recovery phase;
//! * `--rotate R` — hub mesh only, exclusive with the flags above: run
//!   `R` proactive-recovery rounds under sustained in-process load. The
//!   replicated rotation coordinator grants wipe slots one replica at a
//!   time; each granted victim is crashed, wiped and rejoined through
//!   state transfer while the other replicas keep serving. Emits the
//!   `BENCH_rotation.json` artifact: per-round `ttl_ms`, aggregate
//!   `time_to_live_ms`, `final_epoch` and the measured `max_non_live`
//!   and `duplicate_applies` invariants;
//! * `--json` — emit a JSON report on stdout (the `BENCH_service.json`
//!   artifact).
//!
//! The replicated state counts applies per `(client, seq)`, so the
//! report's `duplicate_applies` field is a *measured* exactly-once
//! check, not an assumption — it must be 0 under retries, failover and
//! chaos alike.

use bytes::Bytes;
use ritas::codec::{Reader, WireError, Writer};
use ritas::node::{Node, SessionConfig};
use ritas::recovery::scheduler::RotationConfig;
use ritas::recovery::{RecoveryConfig, SnapshotState};
use ritas::service::{CommandKind, ServiceConfig, ServiceError, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_metrics::Metrics;
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Replicated loadgen state: the running counter clients read back, plus
/// the per-`(client, seq)` apply tally behind the exactly-once check.
#[derive(Default)]
struct LoadState {
    total: u64,
    applied: HashMap<(u64, u64), u64>,
}

fn load_apply(state: &mut LoadState, client: u64, cmd: &[u8]) -> Bytes {
    // Payload layout: 8-byte seq, then filler value bytes.
    let mut seq_bytes = [0u8; 8];
    seq_bytes.copy_from_slice(&cmd[..8]);
    let seq = u64::from_be_bytes(seq_bytes);
    *state.applied.entry((client, seq)).or_insert(0) += 1;
    state.total += 1;
    Bytes::from(state.total.to_be_bytes().to_vec())
}

fn load_query(state: &LoadState, _q: &[u8]) -> Bytes {
    Bytes::from(state.total.to_be_bytes().to_vec())
}

impl SnapshotState for LoadState {
    fn encode_snapshot(&self, w: &mut Writer) {
        w.u64(self.total);
        w.u64(self.applied.len() as u64);
        // HashMap iteration order is not canonical: sort for a
        // deterministic digest.
        let mut entries: Vec<_> = self.applied.iter().map(|(&k, &v)| (k, v)).collect();
        entries.sort_unstable();
        for ((client, seq), n) in entries {
            w.u64(client).u64(seq).u64(n);
        }
    }

    fn decode_snapshot(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let total = r.u64("load.total")?;
        let count = r.u64("load.count")?;
        let mut applied = HashMap::new();
        for _ in 0..count {
            let client = r.u64("load.client")?;
            let seq = r.u64("load.seq")?;
            let n = r.u64("load.n")?;
            applied.insert((client, seq), n);
        }
        Ok(LoadState { total, applied })
    }
}

/// Snapshot cadence for `--kill-replica` runs: frequent enough that a
/// short run has a snapshot to transfer, big enough chunks to keep the
/// Merkle tree shallow.
fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig {
        snapshot_every: 64,
        chunk_size: 1024,
        fill_batch: 256,
    }
}

struct Args {
    clients: usize,
    requests: usize,
    warmup: usize,
    rate: f64,
    value_size: usize,
    tcp: bool,
    chaos: bool,
    kill_replica: Option<(usize, u64)>,
    rotate: usize,
    seed: u64,
    json: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        clients: 4,
        requests: 50,
        warmup: 5,
        rate: 0.0,
        value_size: 64,
        tcp: false,
        chaos: false,
        kill_replica: None,
        rotate: 0,
        seed: 7,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |what: &str| -> String {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {what}"))
        };
        match flag.as_str() {
            "--clients" => args.clients = val("--clients").parse().expect("--clients"),
            "--requests" => args.requests = val("--requests").parse().expect("--requests"),
            "--warmup" => args.warmup = val("--warmup").parse().expect("--warmup"),
            "--rate" => args.rate = val("--rate").parse().expect("--rate"),
            "--value-size" => args.value_size = val("--value-size").parse().expect("--value-size"),
            "--seed" => args.seed = val("--seed").parse().expect("--seed"),
            "--tcp" => args.tcp = true,
            "--chaos" => {
                args.tcp = true;
                args.chaos = true;
            }
            "--kill-replica" => {
                let spec = val("--kill-replica");
                let (n, t) = spec
                    .split_once('@')
                    .unwrap_or_else(|| panic!("--kill-replica expects N@T_MS, got {spec:?}"));
                args.kill_replica = Some((
                    n.parse().expect("--kill-replica replica id"),
                    t.parse().expect("--kill-replica kill time (ms)"),
                ));
            }
            "--rotate" => args.rotate = val("--rotate").parse().expect("--rotate"),
            "--json" => args.json = true,
            other => panic!("unknown flag {other} (see the module docs for usage)"),
        }
    }
    args
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let args = parse_args();
    let n = 4;

    if args.rotate > 0 {
        assert!(
            !args.tcp && args.kill_replica.is_none(),
            "--rotate is its own episode on the in-memory hub mesh; \
             drop --tcp/--chaos/--kill-replica"
        );
        run_rotation_episode(&args);
        return;
    }

    let session = SessionConfig::new(n)
        .expect("n=4 is a valid group")
        .with_master_seed(args.seed);
    let key_seed = session.client_key_seed();
    let dealer = ClientKeyDealer::new(key_seed);

    if let Some((victim, _)) = args.kill_replica {
        assert!(
            !args.tcp,
            "--kill-replica needs the in-memory hub mesh (rejoin is not wired \
             into the TCP mesh); drop --tcp/--chaos"
        );
        assert!(victim < n, "--kill-replica id out of range (n = {n})");
    }
    let (nodes, chaos, hub) = if args.tcp {
        let (nodes, handles) =
            Node::tcp_cluster_with_chaos(session.clone(), Duration::from_secs(10))
                .expect("tcp mesh");
        (nodes, Some(handles), None)
    } else if args.kill_replica.is_some() {
        let (nodes, hub) = Node::cluster_with_hub(&session).expect("hub mesh");
        (nodes, None, Some(hub))
    } else {
        (
            Node::cluster(session.clone()).expect("hub mesh"),
            None,
            None,
        )
    };

    let mut servers: Vec<ServiceServer<LoadState>> = nodes
        .into_iter()
        .map(|node| {
            // A --kill-replica run needs the recovery pipeline on every
            // replica: survivors snapshot and serve state transfer.
            let replica = Arc::new(if args.kill_replica.is_some() {
                ServiceReplica::with_recovery(
                    node,
                    LoadState::default(),
                    ServiceConfig::default(),
                    recovery_cfg(),
                    load_apply,
                    load_query,
                )
                .expect("valid recovery config")
            } else {
                ServiceReplica::new(
                    node,
                    LoadState::default(),
                    ServiceConfig::default(),
                    load_apply,
                    load_query,
                )
            });
            // This is a throughput benchmark: spans are allocation-heavy
            // observability, and on a saturated machine recording them
            // costs ~30% of the measured capacity. All counters
            // (including the exactly-once audit) stay live.
            replica.metrics().set_tracing(false);
            ServiceServer::spawn(replica, dealer, ServerConfig::default()).expect("front-end")
        })
        .collect();
    let addrs: Vec<std::net::SocketAddr> = servers.iter().map(|s| s.addr()).collect();

    // One shared client-side metrics registry, so retries/vote-failures
    // aggregate across all clients.
    let client_metrics = Metrics::new();
    client_metrics.set_tracing(false);

    // Link chaos: kill one replica↔replica socket a moment into the run;
    // the session layer must resume it without the clients noticing more
    // than latency.
    if args.chaos {
        let handles = chaos.expect("chaos implies tcp");
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(400));
            let killed = handles[0].kill_link(1);
            eprintln!("chaos: killed link 0->1 = {killed}");
        });
    }

    let per_client_rate = if args.rate > 0.0 {
        args.rate / args.clients as f64
    } else {
        0.0
    };
    // All clients finish warm-up, then rendezvous here with the main
    // thread so the steady-state clock starts exactly when every client
    // enters its measured window — warm-up requests (connection setup,
    // session establishment, first AB instances) never count.
    let steady = Arc::new(std::sync::Barrier::new(args.clients + 1));
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let addrs = addrs.clone();
            let metrics = client_metrics.clone();
            let requests = args.requests;
            let warmup = args.warmup;
            let value_size = args.value_size;
            let steady = Arc::clone(&steady);
            std::thread::spawn(move || {
                let mut client = ServiceClient::new(
                    1000 + c as u64,
                    addrs,
                    ClientConfig {
                        key_seed,
                        metrics,
                        ..ClientConfig::default()
                    },
                );
                let mut latencies = Vec::with_capacity(requests);
                let mut ok = 0usize;
                let pace = if per_client_rate > 0.0 {
                    Some(Duration::from_secs_f64(1.0 / per_client_rate))
                } else {
                    None
                };
                for i in 0..warmup {
                    // Warm-up leg: same request shape, aggregates ignored.
                    let mut payload = vec![0u8; 8 + value_size];
                    payload[..8].copy_from_slice(&(i as u64 + 1).to_be_bytes());
                    let _ = client.invoke(Bytes::from(payload));
                }
                steady.wait();
                for i in 0..requests {
                    // seq occupies the first 8 payload bytes; the client
                    // library allocates the session seq itself, so mirror
                    // it: our per-client request index is unique too
                    // (continuing past the warm-up leg).
                    let mut payload = vec![0u8; 8 + value_size];
                    payload[..8].copy_from_slice(&((warmup + i) as u64 + 1).to_be_bytes());
                    let t0 = Instant::now();
                    if client.invoke(Bytes::from(payload)).is_ok() {
                        ok += 1;
                        latencies.push(t0.elapsed().as_nanos() as u64);
                    }
                    if let Some(gap) = pace {
                        let next = t0 + gap;
                        if let Some(sleep) = next.checked_duration_since(Instant::now()) {
                            std::thread::sleep(sleep);
                        }
                    }
                }
                client.shutdown();
                (ok, latencies)
            })
        })
        .collect();

    steady.wait();
    let started = Instant::now();

    // The recovery episode: fail-stop + wipe the victim T ms into the
    // measured window, then rejoin it via state transfer while the
    // clients keep hammering the survivors. A watcher thread stamps the
    // moment the rejoiner reaches Live so worker joins don't skew the
    // time-to-Live measurement.
    let mut rejoined: Option<Arc<ServiceReplica<LoadState>>> = None;
    let mut live_watcher = None;
    if let Some((victim, at_ms)) = args.kill_replica {
        let hub = hub.as_ref().expect("kill-replica runs on the hub mesh");
        std::thread::sleep(Duration::from_millis(at_ms));
        eprintln!("kill-replica: crashing and wiping replica {victim}");
        hub.crash(victim);
        let mut s = servers.remove(victim);
        s.replica().shutdown();
        s.shutdown();
        drop(s);
        let rejoin_started = Instant::now();
        let node = Node::rejoin(&session, hub, victim).expect("rejoin node");
        let m = node.metrics().clone();
        m.set_tracing(false);
        let replica = Arc::new(
            ServiceReplica::rejoin(
                node,
                LoadState::default(),
                ServiceConfig::default(),
                recovery_cfg(),
                None,
                load_apply,
                load_query,
            )
            .expect("valid recovery config"),
        );
        live_watcher = Some(std::thread::spawn(move || {
            let deadline = Instant::now() + Duration::from_secs(120);
            while m.recovery_completed_total.get() != 1 {
                if Instant::now() > deadline {
                    return None;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            Some(rejoin_started.elapsed())
        }));
        rejoined = Some(replica);
    }

    let mut ok_total = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let (ok, mut lat) = w.join().expect("client worker");
        ok_total += ok;
        latencies.append(&mut lat);
    }
    let wall = started.elapsed();

    // Settle the tail, then audit the replicated exactly-once tally on
    // every replica. The tally covers warm-up requests too: exactly-once
    // is a correctness property of the whole run, not just the measured
    // window.
    let time_to_live = live_watcher.map(|w| w.join().expect("live watcher"));
    let mut duplicate_applies = 0u64;
    let mut applied_distinct = 0u64;
    let replicas: Vec<Arc<ServiceReplica<LoadState>>> = servers
        .iter()
        .map(|s| Arc::clone(s.replica()))
        .chain(rejoined.iter().cloned())
        .collect();
    for r in &replicas {
        let _ = r.barrier();
    }
    for (i, r) in replicas.iter().enumerate() {
        let (dups, distinct) = r.read_state(|st| {
            (
                st.applied.values().map(|c| c - 1).sum::<u64>(),
                st.applied.len() as u64,
            )
        });
        if i == 0 {
            applied_distinct = distinct;
        }
        duplicate_applies += dups;
    }

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let throughput = ok_total as f64 / wall.as_secs_f64();
    let snap = client_metrics.snapshot();
    let retries = snap
        .counters
        .get("service_client_retries")
        .copied()
        .unwrap_or(0);
    let vote_failures = snap
        .counters
        .get("service_client_vote_failures")
        .copied()
        .unwrap_or(0);
    let dedup_hits: u64 = replicas
        .iter()
        .map(|r| r.metrics().service_dedup_hits.get())
        .sum();

    if args.json {
        println!(
            "{{\"bench\":\"service_loadgen\",\"n\":{n},\"f\":1,\"clients\":{},\"requests_per_client\":{},\
             \"warmup_per_client\":{},\
             \"rate_rps\":{},\"value_size\":{},\"tcp\":{},\"chaos\":{},\"seed\":{},\
             \"requests_ok\":{ok_total},\"wall_ms\":{},\"throughput_rps\":{:.1},\
             \"latency_p50_ns\":{p50},\"latency_p99_ns\":{p99},\
             \"client_retries\":{retries},\"vote_failures\":{vote_failures},\
             \"dedup_hits\":{dedup_hits},\"applied_distinct\":{applied_distinct},\
             \"duplicate_applies\":{duplicate_applies},\
             \"kill_replica\":{},\"time_to_live_ms\":{}}}",
            args.clients,
            args.requests,
            args.warmup,
            args.rate,
            args.value_size,
            args.tcp,
            args.chaos,
            args.seed,
            wall.as_millis(),
            throughput,
            match args.kill_replica {
                Some((v, t)) => format!("\"{v}@{t}\""),
                None => "null".to_string(),
            },
            match time_to_live {
                Some(Some(d)) => d.as_millis().to_string(),
                Some(None) => "-1".to_string(), // never reached Live
                None => "null".to_string(),
            },
        );
    } else {
        println!(
            "ritas-loadgen: n={n} f=1, {} clients x {} requests (+{} warm-up)",
            args.clients, args.requests, args.warmup
        );
        println!(
            "  mesh:               {}",
            if args.tcp { "tcp" } else { "in-memory hub" }
        );
        println!(
            "  ok/total:           {ok_total}/{}",
            args.clients * args.requests
        );
        println!("  wall:               {:.2} s", wall.as_secs_f64());
        println!("  throughput:         {throughput:.1} req/s");
        println!("  e2e p50:            {:.2} ms", p50 as f64 / 1e6);
        println!("  e2e p99:            {:.2} ms", p99 as f64 / 1e6);
        println!("  client retries:     {retries}");
        println!("  vote failures:      {vote_failures}");
        println!("  server dedup hits:  {dedup_hits}");
        println!("  duplicate applies:  {duplicate_applies} (exactly-once check)");
        if let Some((v, t)) = args.kill_replica {
            match time_to_live {
                Some(Some(d)) => println!(
                    "  time to Live:       {:.2} s (replica {v} wiped at +{t} ms)",
                    d.as_secs_f64()
                ),
                _ => println!("  time to Live:       NEVER (replica {v} wiped at +{t} ms)"),
            }
        }
    }

    let mut failures = Vec::new();
    if duplicate_applies != 0 {
        failures.push(format!(
            "{duplicate_applies} duplicate applies (exactly-once violated)"
        ));
    }
    if ok_total == 0 {
        failures.push("no request succeeded".to_string());
    }
    if matches!(time_to_live, Some(None)) {
        failures.push("wiped replica never reached Live".to_string());
    }
    drop(replicas);
    if let Some(r) = &rejoined {
        r.shutdown();
    }
    for mut s in servers {
        s.replica().shutdown();
        s.shutdown();
    }
    if !failures.is_empty() {
        eprintln!("FAIL: {}", failures.join("; "));
        std::process::exit(1);
    }
}

/// Rotation tuning for `--rotate` runs: a short quiet period keeps the
/// episode brisk; the defer threshold is high enough that a clean run
/// never defers (a deferral here would mask a scheduling bug, and the
/// report surfaces the count so the gate can see it).
fn rotation_cfg() -> RotationConfig {
    RotationConfig {
        period: Duration::from_millis(250),
        abort_after: Duration::from_secs(60),
        suspicion_defer_threshold: 1 << 20,
    }
}

/// Live replica slots for the rotation episode: `None` marks "currently
/// wiped and rejoining".
type RotationSlots = Arc<Mutex<Vec<Option<Arc<ServiceReplica<LoadState>>>>>>;

/// Arms the rotation driver on `replica`: when the replicated scheduler
/// grants this replica's wipe slot, the driver fires `on_wipe` and the
/// orchestrator thread in [`run_rotation_episode`] performs the actual
/// crash/wipe/rejoin (in production the callback would exec into a clean
/// binary; a bench process stands in for itself).
fn arm_rotation(
    replica: &Arc<ServiceReplica<LoadState>>,
    id: usize,
    wipe_tx: &mpsc::Sender<(usize, u64)>,
) {
    let tx = wipe_tx.clone();
    replica.start_rotation(rotation_cfg(), move |epoch| {
        let _ = tx.send((id, epoch));
    });
}

/// The `--rotate R` episode: proactive recovery of `R` replicas, one
/// ordered slot at a time, under sustained load.
///
/// No TCP edge here: the service front-end binds ephemeral ports, so a
/// fully rotated group could never resurrect a client-visible address.
/// Load is driven in-process through [`ServiceReplica::submit`] instead —
/// the write path under test (session dedup, atomic broadcast, apply) is
/// identical either way.
fn run_rotation_episode(args: &Args) {
    let n = 4usize;
    let session = SessionConfig::new(n)
        .expect("n=4 is a valid group")
        .with_master_seed(args.seed);
    let (nodes, hub) = Node::cluster_with_hub(&session).expect("hub mesh");
    let (wipe_tx, wipe_rx) = mpsc::channel::<(usize, u64)>();

    // Load workers route around a wiped slot's hole; the monitor thread
    // measures that it is never wider than one replica — the scheduler's
    // core invariant, checked empirically rather than assumed.
    let slots: RotationSlots = Arc::new(Mutex::new(Vec::with_capacity(n)));
    {
        let mut s = slots.lock().unwrap();
        for (i, node) in nodes.into_iter().enumerate() {
            let replica = Arc::new(
                ServiceReplica::with_recovery(
                    node,
                    LoadState::default(),
                    ServiceConfig::default(),
                    recovery_cfg(),
                    load_apply,
                    load_query,
                )
                .expect("valid recovery config"),
            );
            replica.metrics().set_tracing(false);
            arm_rotation(&replica, i, &wipe_tx);
            s.push(Some(replica));
        }
    }

    let stop = Arc::new(AtomicBool::new(false));
    let monitor = {
        let slots = Arc::clone(&slots);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max_non_live = 0usize;
            while !stop.load(Ordering::Relaxed) {
                let holes = slots.lock().unwrap().iter().filter(|s| s.is_none()).count();
                max_non_live = max_non_live.max(holes);
                std::thread::sleep(Duration::from_millis(2));
            }
            max_non_live
        })
    };

    let started = Instant::now();
    let workers: Vec<_> = (0..args.clients)
        .map(|c| {
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            let value_size = args.value_size;
            std::thread::spawn(move || {
                let client = 1000 + c as u64;
                let mut seq = 0u64;
                let mut ok = 0u64;
                let mut latencies: Vec<u64> = Vec::new();
                let mut rr = c; // stagger round-robin starting points
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let mut payload = vec![0u8; 8 + value_size];
                    payload[..8].copy_from_slice(&seq.to_be_bytes());
                    let payload = Bytes::from(payload);
                    // Retry each seq until it lands: the *replicated*
                    // session table makes retried (client, seq) pairs
                    // exactly-once, which is what the audit below
                    // measures across every wipe/rejoin boundary.
                    let t0 = Instant::now();
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return (ok, latencies);
                        }
                        rr += 1;
                        let replica = {
                            let s = slots.lock().unwrap();
                            s[rr % s.len()].clone()
                        };
                        let Some(r) = replica else {
                            std::thread::sleep(Duration::from_millis(2));
                            continue;
                        };
                        match r.submit(
                            client,
                            seq,
                            CommandKind::Apply,
                            payload.clone(),
                            Duration::from_secs(5),
                        ) {
                            Ok(_) => {
                                ok += 1;
                                latencies.push(t0.elapsed().as_nanos() as u64);
                                break;
                            }
                            // Stale means an earlier attempt applied and
                            // the cached reply already aged out: the
                            // write landed exactly once.
                            Err(ServiceError::Stale) => {
                                ok += 1;
                                break;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                }
                (ok, latencies)
            })
        })
        .collect();

    // Orchestrate the rounds in lock-step with the replicated log: a
    // slot grant arrives on the channel, the victim is crashed and
    // wiped, the rejoiner broadcasts its own WipeComplete when it
    // reaches Live, and only then does the coordinator open the next
    // slot — so waiting for Live here never races the next grant.
    let mut rounds: Vec<(usize, u64, u128)> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    while rounds.len() < args.rotate {
        let (victim, epoch) = match wipe_rx.recv_timeout(Duration::from_secs(120)) {
            Ok(grant) => grant,
            Err(_) => {
                failures.push(format!(
                    "rotation stalled: no wipe grant within 120 s after round {}",
                    rounds.len()
                ));
                break;
            }
        };
        eprintln!("rotation: slot granted, wiping replica {victim} (epoch {epoch})");
        let old = slots.lock().unwrap()[victim]
            .take()
            .expect("granted replica is live");
        hub.crash(victim);
        old.shutdown();
        drop(old);
        let t0 = Instant::now();
        let node = Node::rejoin(&session, &hub, victim).expect("rejoin node");
        let m = node.metrics().clone();
        m.set_tracing(false);
        let replica = Arc::new(
            ServiceReplica::rejoin(
                node,
                LoadState::default(),
                ServiceConfig::default(),
                recovery_cfg(),
                None,
                load_apply,
                load_query,
            )
            .expect("valid recovery config"),
        );
        let deadline = Instant::now() + Duration::from_secs(120);
        while m.recovery_completed_total.get() != 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        if m.recovery_completed_total.get() != 1 {
            failures.push(format!(
                "replica {victim} never reached Live after its wipe"
            ));
            break;
        }
        let ttl_ms = t0.elapsed().as_millis();
        eprintln!("rotation: replica {victim} back to Live in {ttl_ms} ms");
        arm_rotation(&replica, victim, &wipe_tx);
        slots.lock().unwrap()[victim] = Some(replica);
        rounds.push((victim, epoch, ttl_ms));
    }

    stop.store(true, Ordering::Relaxed);
    let mut ok_total = 0u64;
    let mut latencies: Vec<u64> = Vec::new();
    for w in workers {
        let (ok, mut lat) = w.join().expect("load worker");
        ok_total += ok;
        latencies.append(&mut lat);
    }
    let wall = started.elapsed();
    let max_non_live = monitor.join().expect("monitor thread");

    // Exactly-once audit plus scheduler/epoch bookkeeping across the
    // whole group (every replica, including each rejoiner).
    // A failed round leaves its slot vacant; audit the replicas that are
    // live (the failure is already recorded above and fails the run).
    let replicas: Vec<Arc<ServiceReplica<LoadState>>> = slots
        .lock()
        .unwrap()
        .iter()
        .filter_map(|s| s.as_ref().map(Arc::clone))
        .collect();
    for r in &replicas {
        let _ = r.barrier();
    }
    let mut duplicate_applies = 0u64;
    let mut applied_distinct = 0u64;
    for (i, r) in replicas.iter().enumerate() {
        let (dups, distinct) = r.read_state(|st| {
            (
                st.applied.values().map(|c| c - 1).sum::<u64>(),
                st.applied.len() as u64,
            )
        });
        if i == 0 {
            applied_distinct = distinct;
        }
        duplicate_applies += dups;
    }
    let rot = replicas[0]
        .rotation_state()
        .expect("recovery-enabled replicas track rotation state");
    let key_epochs: Vec<u64> = replicas.iter().map(|r| r.key_epoch()).collect();
    let epochs_adopted: u64 = replicas
        .iter()
        .map(|r| r.metrics().transport_epoch_adopted.get())
        .sum();

    latencies.sort_unstable();
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let throughput = ok_total as f64 / wall.as_secs_f64();
    let mean_ttl = if rounds.is_empty() {
        0
    } else {
        rounds.iter().map(|r| r.2).sum::<u128>() / rounds.len() as u128
    };

    if duplicate_applies != 0 {
        failures.push(format!(
            "{duplicate_applies} duplicate applies (exactly-once violated)"
        ));
    }
    if ok_total == 0 {
        failures.push("no request succeeded".to_string());
    }
    if max_non_live > 1 {
        failures.push(format!(
            "{max_non_live} replicas were non-Live at once (rotation overlap)"
        ));
    }
    if rot.epoch < rounds.len() as u64 {
        failures.push(format!(
            "epoch {} did not keep pace with {} completed rounds",
            rot.epoch,
            rounds.len()
        ));
    }
    // Post-rotation traffic must be sealed under refreshed keys on every
    // replica: each completed round advanced the epoch at schedule time,
    // so after the barrier no transport may still seal below the round
    // count. (No exact-equality check: the next round's grant may already
    // be in flight when we sample.)
    if key_epochs.iter().any(|&e| e < rounds.len() as u64) {
        failures.push(format!(
            "transport epochs {key_epochs:?} lag the {} completed rounds",
            rounds.len()
        ));
    }

    if args.json {
        let detail: Vec<String> = rounds
            .iter()
            .map(|(v, e, t)| format!("{{\"victim\":{v},\"epoch\":{e},\"ttl_ms\":{t}}}"))
            .collect();
        println!(
            "{{\"bench\":\"rotation\",\"n\":{n},\"f\":1,\"clients\":{},\"rounds\":{},\
             \"seed\":{},\"requests_ok\":{ok_total},\"wall_ms\":{},\
             \"throughput_rps\":{throughput:.1},\
             \"latency_p50_ns\":{p50},\"latency_p99_ns\":{p99},\
             \"applied_distinct\":{applied_distinct},\
             \"duplicate_applies\":{duplicate_applies},\
             \"time_to_live_ms\":{mean_ttl},\"max_non_live\":{max_non_live},\
             \"final_epoch\":{},\"rounds_completed\":{},\"deferrals\":{},\
             \"epochs_adopted\":{epochs_adopted},\
             \"rounds_detail\":[{}]}}",
            args.clients,
            rounds.len(),
            args.seed,
            wall.as_millis(),
            rot.epoch,
            rot.rounds_completed,
            rot.deferrals,
            detail.join(","),
        );
    } else {
        println!(
            "ritas-loadgen --rotate: n={n} f=1, {} rounds, {} in-process clients",
            rounds.len(),
            args.clients
        );
        println!("  wall:               {:.2} s", wall.as_secs_f64());
        println!("  throughput:         {throughput:.1} req/s");
        println!("  e2e p50:            {:.2} ms", p50 as f64 / 1e6);
        println!("  e2e p99:            {:.2} ms", p99 as f64 / 1e6);
        println!("  mean time to Live:  {mean_ttl} ms");
        println!("  max non-Live:       {max_non_live} (must be <= 1)");
        println!(
            "  final epoch:        {} ({} rounds, {} deferrals)",
            rot.epoch, rot.rounds_completed, rot.deferrals
        );
        println!("  duplicate applies:  {duplicate_applies} (exactly-once check)");
        for (v, e, t) in &rounds {
            println!("    round: replica {v} epoch {e} time-to-Live {t} ms");
        }
    }

    for r in &replicas {
        r.shutdown();
    }
    if !failures.is_empty() {
        eprintln!("FAIL: {}", failures.join("; "));
        std::process::exit(1);
    }
}
