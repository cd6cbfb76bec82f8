//! Integration tests for the stack-wide observability layer: a 4-node
//! failure-free simulated run must light up every protocol layer's
//! counters, the ECHO traffic of one reliable broadcast must match the
//! protocol's fan-out shape, and a forced-divergence binary consensus
//! must record at least one coin flip.

use bytes::Bytes;
use ritas_sim::cluster::{Action, SimCluster, SimConfig};

const N: usize = 4;

/// Schedules a workload that touches every layer of the stack: atomic
/// broadcast (which drives RB, EB-VECT, MVC and BC underneath) plus a
/// standalone vector consensus.
fn full_stack_sim(seed: u64) -> SimCluster {
    let mut sim = SimCluster::new(SimConfig::paper_testbed(seed));
    for p in 0..N {
        sim.schedule(
            0,
            p,
            Action::AbBroadcast(Bytes::copy_from_slice(format!("m{p}").as_bytes())),
        );
        sim.schedule(
            1_000,
            p,
            Action::VcPropose {
                tag: 9,
                value: Bytes::copy_from_slice(format!("v{p}").as_bytes()),
            },
        );
    }
    sim.run();
    sim
}

#[test]
fn failure_free_run_reports_every_layer() {
    let sim = full_stack_sim(21);
    for p in 0..N {
        let snap = sim.metrics_snapshot(p);
        assert!(
            snap.all_layers_active(),
            "some layer stayed dark at process {p}:\n{}",
            snap.to_text()
        );
        // Every layer's headline counters are nonzero.
        for name in [
            "transport_frames_sent",
            "transport_frames_recv",
            "transport_bytes_sent",
            "transport_bytes_recv",
            "rb_init_recv",
            "rb_echo_recv",
            "rb_ready_recv",
            "rb_delivered",
            "eb_init_recv",
            "eb_vect_recv",
            "bc_started",
            "bc_decided",
            "mvc_started",
            "mvc_decided_value",
            "vc_started",
            "vc_decided",
            "ab_broadcast",
            "ab_delivered",
            "ab_agreements",
            "stack_frames_in",
        ] {
            assert!(
                snap.counter(name) > 0,
                "counter {name} is zero at process {p}:\n{}",
                snap.to_text()
            );
        }
        // Spans carry virtual-time stamps, and both dump formats render.
        assert!(!snap.spans.is_empty(), "no spans at {p}");
        assert!(snap.spans.iter().any(|s| s.open > 0));
        assert!(snap.to_text().contains("ab_delivered"));
        assert!(snap.to_json().starts_with("{\"counters\":{"));
    }
}

#[test]
fn echo_counts_match_the_broadcast_fanout_shape() {
    // One reliable broadcast: the sender INITs to all n, then each of the
    // n processes broadcasts exactly one ECHO to all n. Over the wire
    // that is the classic n·(n−1) remote ECHOs; each process additionally
    // hears its own loopback copy, so every receiver counts exactly n.
    let mut sim = SimCluster::new(SimConfig::paper_testbed(3));
    sim.schedule(0, 0, Action::RbBroadcast(Bytes::from_static(b"echo-shape")));
    sim.run();
    let n = N as u64;
    for p in 0..N {
        assert_eq!(
            sim.metrics(p).rb_echo_recv.get(),
            n,
            "process {p} echo count"
        );
        assert_eq!(sim.metrics(p).rb_delivered.get(), 1);
    }
    let total: u64 = (0..N).map(|p| sim.metrics(p).rb_echo_recv.get()).sum();
    let remote = total - n; // subtract the n self-loopbacks
    assert_eq!(remote, n * (n - 1), "wire-level ECHO fan-out");
}

#[test]
fn forced_divergence_flips_at_least_one_coin() {
    // Force the §2.4 coin branch with a 4-process divergence schedule,
    // delivered by hand so the run is deterministic: every step value is
    // reliably delivered to process 0 by three READYs, in an order where
    // process 0's step-1 view ends as a 2-2 tie (step-2 values are
    // delivered before its step-1 quorum completes, so delayed validation
    // batch-accepts all four step-2 values at once), producing a step-3
    // ⊥; combined with one step-3 vote for each bit, no value reaches
    // f+1 = 2 and the round ends in a coin flip.
    use ritas::bc::{BcMessage, BinaryConsensus};
    use ritas::rb::RbMessage;
    use ritas::testing::ctx;
    use ritas_crypto::DeterministicCoin;
    use ritas_metrics::Metrics;

    let metrics = Metrics::new();
    let mut bc = BinaryConsensus::new(
        ctx(N, 0, 1).with_metrics(metrics.clone()),
        Box::new(DeterministicCoin::new(5)),
    );
    let _ = bc.propose(true).unwrap();
    // Reliably delivers `origin`'s value `v` for (round 1, `step`).
    let mut deliver = |step: u8, origin: usize, v: Option<bool>| {
        // The one-byte step value encoding: 0, 1, or 2 for ⊥.
        let value = Bytes::copy_from_slice(&[v.map_or(2, u8::from)]);
        for from in 1..N {
            let inner = RbMessage::Ready(value.clone());
            let _ = bc.handle_message(
                from,
                BcMessage {
                    round: 1,
                    step,
                    origin,
                    inner,
                },
            );
        }
    };

    deliver(1, 0, Some(true)); // own value
                               // Peers' step-2 values overtake their step-1 values (asynchrony):
                               // parked as pending until they become justifiable.
    deliver(2, 1, Some(true));
    deliver(2, 2, Some(false));
    deliver(2, 3, Some(false));
    // Step-1 quorum completes (T, T, F → majority T), own step-2 follows.
    deliver(1, 1, Some(true));
    deliver(1, 2, Some(false));
    deliver(2, 0, Some(true)); // own value
                               // The fourth step-1 value makes the step-1 tally 2-2, which validates
                               // BOTH parked false step-2 values in one batch: step 2 fires on a
                               // 2-2 tie and process 0 goes to step 3 with ⊥.
    deliver(1, 3, Some(false));
    deliver(3, 0, None); // own ⊥
                         // One step-3 vote for each bit: {⊥, 1, 0} — nothing reaches f+1.
    deliver(3, 1, Some(true));
    deliver(3, 2, Some(false));

    assert!(
        metrics.bc_coin_flips.get() >= 1,
        "coin branch did not fire under forced divergence"
    );
    assert_eq!(bc.round(), 2, "the coin flip starts round 2");
    let snap = metrics.snapshot();
    assert!(snap.counter("bc_coin_flips") >= 1);
}

#[test]
fn full_stack_run_yields_complete_span_trees() {
    use ritas_metrics::{critical_paths, spans_from_jsonl, spans_to_jsonl, Layer};

    let sim = full_stack_sim(33);
    for p in 0..N {
        let snap = sim.metrics_snapshot(p);
        assert!(!snap.spans.is_empty(), "no spans recorded at process {p}");

        // Every layer of the stack opened at least one span, and the
        // workload's roots are present with children chained beneath them.
        for layer in [
            Layer::Rb,
            Layer::Eb,
            Layer::Bc,
            Layer::Mvc,
            Layer::Vc,
            Layer::Ab,
        ] {
            assert!(
                snap.spans.iter().any(|s| s.layer == layer),
                "no {} span at process {p}",
                layer.as_str()
            );
        }
        assert!(snap.spans.iter().any(|s| s.path == "ab:0"));
        assert!(snap.spans.iter().any(|s| s.path == "vc:9"));
        assert!(snap.spans.iter().any(|s| s.path.starts_with("ab:0/m:")));
        assert!(snap.spans.iter().any(|s| s.path.starts_with("ab:0/r:")));
        assert!(snap.spans.iter().any(|s| s.parent() == Some("vc:9")));

        // Virtual-time stamps: closes never precede opens, and every
        // a-broadcast message span closed when it was a-delivered.
        for s in &snap.spans {
            if let Some(close) = s.close {
                assert!(close >= s.open, "span {} closed before it opened", s.path);
            }
        }
        let msg_spans: Vec<_> = snap
            .spans
            .iter()
            .filter(|s| s.path.starts_with("ab:0/m:") && s.depth() == 2)
            .collect();
        assert_eq!(msg_spans.len(), N, "one message span per a-broadcast");
        assert!(msg_spans.iter().all(|s| s.close.is_some()));

        // Critical-path roll-up: one attribution per delivered message,
        // segments summing exactly to the recorded a-deliver latency.
        let paths = critical_paths(&snap.spans);
        assert_eq!(paths.len(), N, "one critical path per delivery at {p}");
        for cp in &paths {
            let sum: u64 = cp.segments.iter().map(|(_, ns)| ns).sum();
            assert_eq!(sum, cp.total_ns, "segments of {} do not sum", cp.path);
        }

        // The JSONL dump round-trips losslessly.
        let dump = spans_to_jsonl(&snap.spans);
        let back = spans_from_jsonl(&dump).expect("round-trip parse");
        assert_eq!(back, snap.spans);
    }
}

#[test]
fn node_runtime_snapshot_covers_transport_and_latency() {
    use ritas::node::{Node, SessionConfig};

    let nodes = Node::cluster(SessionConfig::new(N).unwrap()).unwrap();
    let mut handles = Vec::new();
    for node in nodes {
        handles.push(std::thread::spawn(move || {
            node.atomic_broadcast(Bytes::copy_from_slice(format!("n{}", node.id()).as_bytes()))
                .unwrap();
            for _ in 0..N {
                node.atomic_recv().unwrap();
            }
            let snap = node.metrics_snapshot();
            assert!(snap.counter("transport_frames_sent") > 0);
            assert!(snap.counter("transport_frames_recv") > 0);
            // One AH frame carries what a pass sent a peer: at least the
            // first broadcast's INIT and ECHO travel together.
            assert!(
                snap.counter("transport_frames_sent") < snap.counter("transport_msgs_sent"),
                "no AH frame carried two messages"
            );
            assert!(snap.counter("ab_delivered") >= N as u64);
            // The node's own message round-tripped, so the a-deliver
            // latency histogram has at least one observation.
            assert!(snap
                .histogram("ab_latency_ns")
                .is_some_and(|h| h.count >= 1));
            node.shutdown();
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
}
