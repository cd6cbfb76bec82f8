//! `node-small` / `node-large`: the threaded runtime. `Node::cluster`
//! (stack thread + reader thread per node, `AuthenticatedTransport` over
//! the in-memory `Hub`) under one generator thread that keeps `window`
//! `atomic_broadcast`s outstanding, round-robined over the four nodes,
//! and blocks in `atomic_recv_timeout` — never spin-polls, which would be
//! billed to `cpu_us_per_op`.

use crate::load::{
    payload, payload_op, ColdStart, Counters, Oracle, Pass, PassSpec, N, OP_TIMEOUT,
};
use crate::probe::{pin_to, GENERATOR_CPU, PROGRAM_CPU};
use crate::spans::{Name, Open, Spans};
use crate::stats::{Rng, SegmentClock};
use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas_metrics::MetricsSnapshot;
use std::collections::HashMap;
use std::time::Instant;

/// Builds the four-node group with keys dealt from `key_seed`. The
/// nodes' threads are confined to the program's CPU (they inherit the
/// builder's affinity); the calling thread, the generator from here on,
/// moves to its own.
pub fn cluster(key_seed: u64, program_tracing: bool) -> Vec<Node> {
    let config = SessionConfig::new(N)
        .expect("n = 4 is a valid group")
        .with_master_seed(key_seed);
    pin_to(PROGRAM_CPU);
    let nodes = Node::cluster(config).expect("in-memory cluster");
    pin_to(GENERATOR_CPU);
    for n in &nodes {
        n.metrics().set_tracing(program_tracing);
    }
    nodes
}

/// Stops all four nodes before joining any, so their reader threads (which
/// notice the stop flag on a 50 ms poll) wind down together.
pub fn teardown(nodes: Vec<Node>) {
    for n in &nodes {
        n.shutdown();
    }
    drop(nodes);
}

fn snapshots(nodes: &[Node]) -> Vec<MetricsSnapshot> {
    nodes.iter().map(Node::metrics_snapshot).collect()
}

/// Submits `cmd` at node 0 and waits until every node has a-delivered it.
fn commit_first(nodes: &[Node], oracle: &mut Oracle) {
    let cmd = Bytes::from_static(b"first command");
    nodes[0].atomic_broadcast(cmd).expect("submit");
    for (p, n) in nodes.iter().enumerate() {
        let d = n.atomic_recv_timeout(OP_TIMEOUT).expect("first delivery");
        oracle.delivered(p, d.id, &d.payload);
    }
}

/// One cold start: fresh keys → group built (threads, channels) → first
/// command committed at every node.
pub fn setup_once(key_seed: u64) -> ColdStart {
    let (cold, nodes) = ColdStart::time(|| {
        let nodes = cluster(key_seed, false);
        commit_first(&nodes, &mut Oracle::new());
        nodes
    });
    teardown(nodes);
    cold
}

pub fn run(spec: &PassSpec) -> Pass {
    let epoch = Instant::now();
    let mut spans = Spans::new(spec.spans.at(0), epoch);
    let mut rng = Rng::new(spec.seed);
    let rr_start = rng.next_u64() % N as u64;
    let nodes = cluster(rng.next_u64(), spec.program_tracing.at(0));
    let mut oracle = Oracle::new();
    commit_first(&nodes, &mut oracle);

    // Submit time and root span of every outstanding op, by op index.
    let mut outstanding: HashMap<u64, (Instant, Open)> = HashMap::with_capacity(spec.window);
    let mut latencies = Vec::with_capacity(spec.ops as usize);
    let mut clock: Option<SegmentClock> = None;
    let (mut start, mut end) = (Counters::default(), Counters::default());
    let (mut submitted, mut completed, mut failed) = (0u64, 0u64, 0u64);
    // Set when the measured window closes. Until then the window is kept
    // full, so every segment runs at the stated concurrency; the ops
    // still out at that point are drained and are in no metric.
    let mut draining = false;

    'run: loop {
        let segment = clock.as_ref().map_or(0, SegmentClock::current_segment);
        spec.switch(segment, &mut spans, nodes.iter().map(Node::metrics));
        while !draining && outstanding.len() < spec.window {
            let op = submitted;
            let p = ((rr_start + op) % N as u64) as usize;
            let cmd = Bytes::from(payload(&mut rng, op, spec.payload));
            let t0 = Instant::now();
            let root = spans.open(Name::NodeOp, op, None);
            let s = spans.open(Name::NodeAtomicBroadcast, op, Some(&root));
            let sent = nodes[p].atomic_broadcast(cmd);
            spans.close(s);
            submitted += 1;
            match sent {
                Ok(_) => {
                    outstanding.insert(op, (t0, root));
                }
                Err(_) => failed += 1,
            }
        }
        if outstanding.is_empty() {
            break;
        }
        // The k-th delivery of every node, in lockstep: the op is
        // complete once all four have it. Its latency sample is taken
        // when the submitting node hands it over.
        let mut this_op = None;
        for (p, node) in nodes.iter().enumerate() {
            let mut s = spans.open(Name::NodeAtomicRecv, 0, None);
            let got = node.atomic_recv_timeout(OP_TIMEOUT);
            let Ok(d) = got else {
                // Wedged: everything still outstanding has failed.
                failed += outstanding.len() as u64;
                oracle.violation(format!("node {p}: no a-delivery within {OP_TIMEOUT:?}"));
                break 'run;
            };
            oracle.delivered(p, d.id, &d.payload);
            let Some((op, (t0, root))) =
                payload_op(&d.payload).and_then(|op| Some((op, outstanding.get(&op)?)))
            else {
                oracle.violation(format!("node {p} a-delivered an unknown payload"));
                continue;
            };
            // Which op the wait was for is only known once it returns.
            spans.adopt(&mut s, root, op);
            spans.close(s);
            if this_op.is_some_and(|first| first != op) {
                oracle.violation(format!("node {p} a-delivered op {op} out of step"));
            }
            this_op = Some(op);
            let submitter = ((rr_start + op) % N as u64) as usize;
            if let Some(c) = clock.as_ref().filter(|_| p == submitter && !draining) {
                latencies.push((c.current_segment(), t0.elapsed().as_nanos() as u64));
            }
        }
        if let Some((_, root)) = this_op.and_then(|op| outstanding.remove(&op)) {
            spans.close(root);
        }
        completed += 1;
        if completed == spec.warmup {
            start = Counters::read(&snapshots(&nodes));
            clock = Some(SegmentClock::start(spec.ops, spec.segments, spec.cap));
        } else if let Some(c) = clock.as_mut().filter(|_| !draining) {
            draining = c.completed(completed - spec.warmup);
            if draining {
                end = Counters::read(&snapshots(&nodes));
            }
        }
    }

    let counters = end.since(&start);
    teardown(nodes);
    // The set-up command is one more a-delivery than the ops submitted.
    oracle.check(submitted - failed + 1);
    let violations = oracle.into_violations();
    let clock = clock.expect("the measured window opened");
    Pass {
        attempted: submitted + 1,
        failed,
        violations,
        clock,
        latencies,
        counters,
        spans,
        extra: Vec::new(),
    }
}
