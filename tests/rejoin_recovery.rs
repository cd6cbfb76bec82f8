//! Recovery-tier integration tests: kill/wipe/rejoin of a service
//! replica under client load, with a Byzantine peer serving corrupt
//! snapshot chunks.
//!
//! The scenario from the recovery design (DESIGN.md §8):
//!
//! 1. A 4-replica service group (`n = 4, f = 1`) applies client
//!    commands with snapshotting active; one replica is fail-stopped
//!    **and wiped** mid-load.
//! 2. The survivors keep ordering (`n - f` alive). The wiped replica
//!    rejoins from nothing but the session config: it pulls snapshot
//!    manifests from `2f+1` peers, accepts at `f+1` matching digests,
//!    downloads chunks with per-chunk Merkle proofs, replays the fill
//!    stream, and bridges onto the live a-delivery stream.
//! 3. One surviving peer is Byzantine: it serves bit-flipped snapshot
//!    chunk bytes. The rejoiner must detect every corrupt chunk by its
//!    Merkle proof, count the evidence in the suspicion table, and
//!    fetch the chunk from an honest holder instead.
//! 4. Exactly-once must hold *through* the snapshot boundary: a
//!    `(client, seq)` applied before the wipe and retried after the
//!    rejoin is answered from the restored session table — applied
//!    once, globally, ever.
//!
//! Timing-dependent (real threads over the in-memory hub).

mod common;

use bytes::Bytes;
use common::{audit_apply, audit_query, duplicate_applies, Audit};
use ritas::adversary::{ProtocolMsg, SendCtx, Strategy};
use ritas::node::{Node, SessionConfig};
use ritas::recovery::{milestones, RecoveryConfig, XferMessage};
use ritas::service::{ClientId, CommandKind, ServiceConfig, ServiceReplica};
use ritas::stack::InstanceKey;
use ritas::testing::byzantine_cluster_with_hub;
use ritas_metrics::{FlightKind, Metrics, SuspicionKind};
use std::time::{Duration, Instant};

/// CI forensics: when `RITAS_FORENSICS_DIR` is set, any panic (i.e.
/// any failed assertion) dumps the rejoiner's flight ring
/// (`flight-<tag>.bin`, via the metrics crate's panic hook) and its
/// span tree (`spans-<tag>.jsonl`) into that directory, so the
/// `service episodes` CI job can upload a post-mortem of the wiped
/// replica. A no-op when the variable is unset.
fn arm_forensics(m: &Metrics, tag: &str) {
    let Ok(dir) = std::env::var("RITAS_FORENSICS_DIR") else {
        return;
    };
    ritas_metrics::flight::register_dump(&dir, tag, m.clone());
    let (m, dir2, tag) = (m.clone(), dir.clone(), tag.to_string());
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let path = std::path::Path::new(&dir2).join(format!("spans-{tag}.jsonl"));
        let _ = std::fs::write(path, ritas_metrics::spans_to_jsonl(&m.spans()));
        prev(info);
    }));
}

fn recovery_cfg() -> RecoveryConfig {
    RecoveryConfig {
        snapshot_every: 8,
        chunk_size: 64,
        fill_batch: 64,
    }
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig {
        session_capacity: 64,
    }
}

fn build(node: Node) -> ServiceReplica<Audit> {
    ServiceReplica::with_recovery(
        node,
        Audit::default(),
        service_cfg(),
        recovery_cfg(),
        audit_apply,
        audit_query,
    )
    .expect("valid recovery config")
}

const SUBMIT_TIMEOUT: Duration = Duration::from_secs(30);

/// A Byzantine snapshot server: byte 0 of every chunk it serves is
/// flipped, and everything else it sends travels unchanged.
#[derive(Debug)]
struct CorruptChunks;

impl Strategy for CorruptChunks {
    fn name(&self) -> &'static str {
        "corrupt-chunks"
    }

    fn rewrite(&mut self, _ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        if let ProtocolMsg::Xfer(XferMessage::ChunkResp { data, .. }) = &mut msg {
            if !data.is_empty() {
                let mut v = data.to_vec();
                v[0] ^= 0xff;
                *data = v.into();
            }
        }
        vec![msg.frame(key)]
    }
}

/// Submits `(client, seq)` at `at` and returns the reply.
fn submit(at: &ServiceReplica<Audit>, client: ClientId, seq: u64) -> Bytes {
    at.submit(
        client,
        seq,
        CommandKind::Apply,
        Bytes::from(seq.to_be_bytes().to_vec()),
        SUBMIT_TIMEOUT,
    )
    .expect("submit")
}

/// Asserts every replica's total and zero duplicate applies across the
/// group — the cross-replica exactly-once census.
fn assert_no_duplicate_applies(replicas: &[&ServiceReplica<Audit>], expect_total: u64) {
    for r in replicas {
        let total = r.read_state(|s| s.total);
        assert_eq!(total, expect_total, "replica {} total", r.id());
    }
    assert_eq!(duplicate_applies(replicas), 0, "duplicate applies");
}

/// The acceptance scenario: wipe a replica mid-load, rejoin it through
/// state transfer while one chunk server is Byzantine, and audit
/// exactly-once across the snapshot boundary.
#[test]
fn rejoin_under_load_with_byzantine_chunk_server() {
    let config = SessionConfig::new(4).unwrap();
    // Peer 1 is Byzantine on the transfer path only: it serves
    // bit-flipped snapshot chunks but participates honestly in
    // ordering (its manifest is honest too, so the rejoiner will list
    // it as a chunk holder and catch the corruption by Merkle proof).
    // It serves no chunk before the wipe below.
    let (nodes, hub) = byzantine_cluster_with_hub(&config, 1, Box::new(CorruptChunks)).unwrap();
    let mut replicas: Vec<_> = nodes.into_iter().map(build).collect();

    // Pre-crash load: 30 commands from the load client plus one probe
    // command whose retry will cross the wipe. 31 applies put every
    // replica past the seq-24 snapshot boundary with a state large
    // enough to span many 64-byte Merkle chunks, so the Byzantine
    // server below is guaranteed to be consulted first for some chunk.
    for seq in 1..=30 {
        submit(&replicas[0], 1, seq);
    }
    let probe_reply = submit(&replicas[1], 7, 5);

    // Fail-stop and wipe replica 3.
    hub.crash(3);
    let victim = replicas.pop().unwrap();
    drop(victim);

    // The survivors keep ordering while the victim is down.
    for seq in 31..=50 {
        submit(&replicas[0], 1, seq);
    }

    // Rejoin from nothing but the session config.
    let node = Node::rejoin(&config, &hub, 3).unwrap();
    let m = node.metrics().clone();
    arm_forensics(&m, "byzantine-rejoin");
    let rejoined = ServiceReplica::rejoin(
        node,
        Audit::default(),
        service_cfg(),
        recovery_cfg(),
        None,
        audit_apply,
        audit_query,
    )
    .expect("valid recovery config");

    // Keep the stream moving while the transfer runs.
    for seq in 51..=60 {
        submit(&replicas[0], 1, seq);
    }

    let deadline = Instant::now() + Duration::from_secs(60);
    while m.recovery_completed_total.get() != 1 {
        assert!(
            Instant::now() < deadline,
            "rejoin stuck: phase={} fetched={} rejected={}",
            m.recovery_phase.get(),
            m.recovery_chunks_fetched.get(),
            m.recovery_chunk_proof_rejected.get()
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

    // The Byzantine chunk server was caught: Merkle proofs rejected
    // its bytes and the evidence landed in the suspicion table.
    assert!(
        m.recovery_chunk_proof_rejected.get() > 0,
        "no corrupt chunk was ever detected"
    );
    assert!(
        m.suspicions()
            .iter()
            .any(|s| s.peer == 1 && s.count(SuspicionKind::BadChunk) > 0),
        "tampering peer not flagged: {:?}",
        m.suspicions()
    );
    assert!(m.recovery_chunks_fetched.get() > 0, "no chunks verified");
    // Every chunk the rejoiner verified was served by a peer.
    let served: u64 = replicas
        .iter()
        .map(|r| r.metrics().recovery_chunks_served.get())
        .sum();
    assert!(served >= m.recovery_chunks_fetched.get());

    // Exactly-once across the snapshot boundary: the probe command was
    // applied before the wipe; retrying it at the *rejoined* replica
    // must answer from the restored session table with the original
    // reply, not apply it again.
    let retry_reply = submit(&rejoined, 7, 5);
    assert_eq!(retry_reply, probe_reply, "retry must return cached reply");

    // Converge and audit: equal totals, zero duplicate applies
    // anywhere, and the rejoined replica's snapshot digest matches a
    // survivor's at the same boundary.
    let all: Vec<&ServiceReplica<Audit>> = replicas.iter().chain([&rejoined]).collect();
    for r in &all {
        r.barrier().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let totals: Vec<u64> = all.iter().map(|r| r.read_state(|s| s.total)).collect();
        let d0 = replicas[0].snapshot_digest();
        let dr = rejoined.snapshot_digest();
        if totals.iter().all(|&t| t == 61) && d0.is_some() && d0 == dr {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "post-rejoin convergence failed: totals={totals:?} d0={d0:?} dr={dr:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_no_duplicate_applies(&all, 61);
    for r in &all {
        r.shutdown();
    }
}

/// A rejoiner holding a stale local snapshot only downloads the chunks
/// that changed: Merkle anti-entropy proves the unchanged subtrees
/// equal and reuses the local bytes.
#[test]
fn rejoin_with_stale_snapshot_reuses_chunks() {
    let config = SessionConfig::new(4).unwrap();
    let (nodes, hub) = Node::cluster_with_hub(&config).unwrap();
    let mut replicas: Vec<_> = nodes.into_iter().map(build).collect();

    // Load past two snapshot boundaries, then wait for the victim's
    // own seq-16 snapshot: those bytes survive the crash as its stale
    // local image.
    for seq in 1..=20 {
        submit(&replicas[0], 1, seq);
    }
    for r in &replicas {
        r.barrier().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    let stale = loop {
        if let Some(bytes) = replicas[3].latest_snapshot_bytes() {
            break bytes;
        }
        assert!(Instant::now() < deadline, "victim never snapshotted");
        std::thread::sleep(Duration::from_millis(10));
    };

    hub.crash(3);
    let victim = replicas.pop().unwrap();
    drop(victim);

    // A little more load: the peers' newest snapshot moves past the
    // stale one, but most of the audit entries — and so most chunks —
    // are unchanged.
    for seq in 21..=25 {
        submit(&replicas[0], 1, seq);
    }

    let node = Node::rejoin(&config, &hub, 3).unwrap();
    let m = node.metrics().clone();
    arm_forensics(&m, "stale-rejoin");
    let rejoined = ServiceReplica::rejoin(
        node,
        Audit::default(),
        service_cfg(),
        recovery_cfg(),
        Some(stale),
        audit_apply,
        audit_query,
    )
    .expect("valid recovery config");

    let deadline = Instant::now() + Duration::from_secs(60);
    while m.recovery_completed_total.get() != 1 {
        assert!(
            Instant::now() < deadline,
            "rejoin stuck: phase={} reused={}",
            m.recovery_phase.get(),
            m.recovery_chunks_reused.get()
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(
        m.recovery_chunks_reused.get() > 0,
        "anti-entropy never reused a stale chunk (fetched={})",
        m.recovery_chunks_fetched.get()
    );

    let all: Vec<&ServiceReplica<Audit>> = replicas.iter().chain([&rejoined]).collect();
    for r in &all {
        r.barrier().unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let totals: Vec<u64> = all.iter().map(|r| r.read_state(|s| s.total)).collect();
        if totals.iter().all(|&t| t == 25) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "post-rejoin convergence failed: totals={totals:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_no_duplicate_applies(&all, 25);
    for r in &all {
        r.shutdown();
    }
}
