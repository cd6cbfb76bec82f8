//! Rotation-tier integration test: proactive recovery sweeps every
//! replica of a live service group, one ordered wipe slot at a time,
//! under sustained client load (DESIGN.md §9).
//!
//! The full cycle exercised here:
//!
//! 1. A 4-replica service group (`n = 4, f = 1`) applies client
//!    commands past the first snapshot boundary; every replica arms the
//!    rotation driver.
//! 2. The replicated scheduler grants wipe slots through the ordered
//!    log — at most one replica non-Live at any instant, checked
//!    empirically by a sampling monitor, not assumed.
//! 3. Each grant advances the transport key epoch at schedule time;
//!    after the sweep every replica seals traffic under refreshed keys.
//! 4. Each returnee broadcasts its own `WipeComplete` when it reaches
//!    Live, which closes the slot, clears the group's accumulated
//!    suspicion evidence against it, and opens the next slot.
//! 5. Exactly-once holds across all four wipe/rejoin boundaries: the
//!    replicated session table dedups retried `(client, seq)` pairs, so
//!    the audit must find zero duplicate applies anywhere.
//!
//! Timing-dependent (real threads over the in-memory hub).

mod common;

use bytes::Bytes;
use common::{audit_apply, audit_query, duplicate_applies, Audit};
use ritas::node::{Node, SessionConfig};
use ritas::recovery::scheduler::RotationConfig;
use ritas::recovery::RecoveryConfig;
use ritas::service::{CommandKind, ServiceConfig, ServiceError, ServiceReplica};
use ritas_metrics::SuspicionKind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Coarser than the rejoin tier's config: under sustained load the
/// audit state grows continuously, and a rejoiner pulling tiny chunks
/// would chase a moving snapshot forever. 1 KiB chunks and wide fill
/// batches keep each transfer comfortably ahead of the load.
fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig {
        snapshot_every: 64,
        chunk_size: 1024,
        fill_batch: 256,
    }
}

/// A short quiet period keeps the sweep brisk; the defer threshold is
/// high enough that a clean run never defers (a deferral here would
/// mask a scheduling bug — the final state asserts zero).
fn rotation_cfg() -> RotationConfig {
    RotationConfig {
        period: Duration::from_millis(200),
        abort_after: Duration::from_secs(60),
        suspicion_defer_threshold: 1 << 20,
    }
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig::default()
}

type Slots = Arc<Mutex<Vec<Option<Arc<ServiceReplica<Audit>>>>>>;

/// Arms the rotation driver: a slot grant lands on the channel and the
/// orchestrator below performs the crash/wipe/rejoin (in production the
/// callback would exec into a clean binary).
fn arm(replica: &Arc<ServiceReplica<Audit>>, id: usize, tx: &mpsc::Sender<(usize, u64)>) {
    let tx = tx.clone();
    replica.start_rotation(rotation_cfg(), move |epoch| {
        let _ = tx.send((id, epoch));
    });
}

/// Polls `cond` until it holds or `secs` elapse; panics with `what`.
fn wait_for(secs: u64, what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(secs);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// The acceptance scenario: a full proactive-recovery sweep of all four
/// replicas under sustained load, audited for exactly-once, liveness,
/// epoch refresh, and suspicion clearing.
#[test]
fn full_rotation_under_load_is_exactly_once() {
    let n = 4usize;
    let session = SessionConfig::new(n).unwrap();
    let (nodes, hub) = Node::cluster_with_hub(&session).unwrap();
    let (wipe_tx, wipe_rx) = mpsc::channel::<(usize, u64)>();

    let slots: Slots = Arc::new(Mutex::new(Vec::with_capacity(n)));
    {
        let mut s = slots.lock().unwrap();
        for (i, node) in nodes.into_iter().enumerate() {
            let replica = Arc::new(
                ServiceReplica::with_recovery(
                    node,
                    Audit::default(),
                    service_cfg(),
                    recovery_cfg(),
                    audit_apply,
                    audit_query,
                )
                .expect("valid recovery config"),
            );
            replica.metrics().set_tracing(false);
            arm(&replica, i, &wipe_tx);
            s.push(Some(replica));
        }
    }
    let at = |i: usize| -> Arc<ServiceReplica<Audit>> {
        slots.lock().unwrap()[i].clone().expect("replica live")
    };

    // Warm-up load; the sustained workers below push the group past the
    // seq-64 snapshot boundary, which is what arms the first grant (the
    // driver refuses to schedule its own wipe before a snapshot exists
    // to restore from).
    for seq in 1..=10 {
        at(0)
            .submit(
                1,
                seq,
                CommandKind::Apply,
                Bytes::from(seq.to_be_bytes().to_vec()),
                Duration::from_secs(30),
            )
            .expect("pre-load submit");
    }

    // Plant suspicion evidence against the first victim (slot cursor
    // starts at replica 0) on a survivor: its completed wipe-and-rejoin
    // must wipe that evidence — the returnee is a fresh incarnation.
    at(1).metrics().suspect(0, SuspicionKind::BadMac);
    assert!(at(1)
        .metrics()
        .suspicions()
        .iter()
        .any(|s| s.peer == 0 && s.count(SuspicionKind::BadMac) == 1));

    // The scheduler's core invariant, measured: never more than one
    // replica non-Live at any sampled instant.
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

    // Sustained load: two clients submitting continuously, retrying each
    // seq at whichever replicas are live until it lands. `Stale` means an
    // earlier attempt applied and the cached reply aged out — the write
    // landed exactly once.
    let workers: Vec<_> = (0..2)
        .map(|c| {
            let slots = Arc::clone(&slots);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let client = 100 + c as u64;
                let mut seq = 0u64;
                let mut ok = 0u64;
                let mut rr = c;
                while !stop.load(Ordering::Relaxed) {
                    seq += 1;
                    let payload = Bytes::from(seq.to_be_bytes().to_vec());
                    loop {
                        if stop.load(Ordering::Relaxed) {
                            return ok;
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
                            Ok(_) | Err(ServiceError::Stale) => {
                                ok += 1;
                                // Sustained but bounded: an unthrottled
                                // client in a debug build can outrun the
                                // state transfer it is racing.
                                std::thread::sleep(Duration::from_millis(10));
                                break;
                            }
                            Err(_) => std::thread::sleep(Duration::from_millis(5)),
                        }
                    }
                }
                ok
            })
        })
        .collect();

    // One full sweep, lock-step with the replicated log: each grant is
    // honoured with a crash + wipe, the returnee's own WipeComplete at
    // Live closes the slot, and only then does the next slot open.
    let mut rounds: Vec<(usize, u64)> = Vec::new();
    for round in 0..n {
        let (victim, epoch) = wipe_rx
            .recv_timeout(Duration::from_secs(120))
            .unwrap_or_else(|_| panic!("no wipe grant within 120 s after round {round}"));
        let old = slots.lock().unwrap()[victim]
            .take()
            .expect("granted replica is live");
        hub.crash(victim);
        old.shutdown();
        drop(old);

        let node = Node::rejoin(&session, &hub, victim).expect("rejoin node");
        let m = node.metrics().clone();
        m.set_tracing(false);
        let replica = Arc::new(
            ServiceReplica::rejoin(
                node,
                Audit::default(),
                service_cfg(),
                recovery_cfg(),
                None,
                audit_apply,
                audit_query,
            )
            .expect("valid recovery config"),
        );
        eprintln!("round {round}: wiped replica {victim} (epoch {epoch}), rejoining");
        wait_for(120, "returnee to reach Live", || {
            m.recovery_completed_total.get() == 1
        });
        eprintln!("round {round}: replica {victim} back to Live");
        arm(&replica, victim, &wipe_tx);
        slots.lock().unwrap()[victim] = Some(replica);
        rounds.push((victim, epoch));

        if round == 0 {
            // Replica 0's WipeComplete has been broadcast (it reached
            // Live); once ordered at replica 1, the planted evidence
            // must be gone — checked before replica 1's own slot opens.
            let survivor = at(1);
            wait_for(30, "suspicion evidence to clear", || {
                survivor
                    .metrics()
                    .suspicions()
                    .iter()
                    .all(|s| s.peer != 0 || s.count(SuspicionKind::BadMac) == 0)
            });
        }
    }

    stop.store(true, Ordering::Relaxed);
    let ok_total: u64 = workers.into_iter().map(|w| w.join().expect("worker")).sum();
    let max_non_live = monitor.join().expect("monitor");

    // Every replica rotated exactly once, in slot order.
    let victims: Vec<usize> = rounds.iter().map(|&(v, _)| v).collect();
    assert_eq!(
        victims,
        vec![0, 1, 2, 3],
        "slots must open in rotation order"
    );
    // Each grant carried a strictly later epoch.
    for w in rounds.windows(2) {
        assert!(w[1].1 > w[0].1, "epochs must advance: {rounds:?}");
    }
    assert!(ok_total > 0, "no client request succeeded during the sweep");
    assert!(
        max_non_live <= 1,
        "{max_non_live} replicas were non-Live at once"
    );

    // Converge and audit across the whole rotated group.
    let replicas: Vec<Arc<ServiceReplica<Audit>>> = (0..n).map(at).collect();
    for r in &replicas {
        r.barrier().unwrap();
    }
    let totals: Vec<u64> = replicas.iter().map(|r| r.read_state(|s| s.total)).collect();
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "replicas diverged: {totals:?}"
    );
    let all: Vec<&ServiceReplica<Audit>> = replicas.iter().map(Arc::as_ref).collect();
    assert_eq!(duplicate_applies(&all), 0, "duplicate applies");

    // Replicated scheduler bookkeeping: four completed rounds, an epoch
    // that kept pace, no deferrals, and every replica sealing under a
    // refreshed key (>= the round count; the next grant may already be
    // in flight, so no exact-equality check).
    let rot = replicas[0]
        .rotation_state()
        .expect("recovery-enabled replicas track rotation state");
    assert_eq!(rot.rounds_completed, n as u64, "rounds completed");
    assert_eq!(rot.deferrals, 0, "clean sweep must not defer");
    assert!(
        rot.epoch >= n as u64,
        "epoch {} after {n} rounds",
        rot.epoch
    );
    for r in &replicas {
        assert!(
            r.key_epoch() >= n as u64,
            "replica {} seals under stale epoch {}",
            r.id(),
            r.key_epoch()
        );
    }

    for r in &replicas {
        r.shutdown();
    }
}
