//! **Extension X5**: message complexity of one isolated instance of each
//! protocol — measured point-to-point frames (including self-delivery)
//! against the closed-form counts, asserted for every layer so that a
//! drift in any of them fails the run (CI runs it).
//!
//! Closed forms (n processes, f = ⌊(n − 1)/3⌋, failure-free, counting
//! every point-to-point frame incl. loopback):
//!
//! * reliable broadcast: `n + 2n²` (1 INIT fan-out + n ECHO + n READY);
//! * echo broadcast: `n + n + (f + 1)·n` (INIT fan-out, n VECT unicasts,
//!   and the sender's MAT columns — a first set once n − f rows are in,
//!   one more set for each of the f rows that arrive after it);
//! * binary consensus (RBC per step): `3 · n · (n + 2n²)` per round; all
//!   decide in round 1 and a decided instance sends nothing of round 2
//!   unless another process asks for it, so one round is the count;
//! * multi-valued consensus: n INIT reliable broadcasts + n VECT echo
//!   broadcasts + one binary consensus;
//! * vector consensus: n proposal reliable broadcasts + one multi-valued
//!   consensus; atomic broadcast of one message: its reliable broadcast +
//!   n `AB_VECT` reliable broadcasts + one multi-valued consensus.
//!
//! Usage: `cargo run --release -p ritas-bench --bin ext_msg_complexity
//! [--metrics-json PATH]`

use bytes::Bytes;
use ritas::stack::Output;
use ritas::testing::{Cluster, Schedule};
use ritas_metrics::Metrics;

fn frames_for(n: usize, metrics: &Metrics, run: impl FnOnce(&mut Cluster)) -> u64 {
    let mut cluster = Cluster::new(n, 1);
    // In send order every process sees the same first n − f proposals, so
    // vector consensus needs one multi-valued consensus; under another
    // schedule views can differ and it runs a second one (n = 7, random).
    cluster.set_schedule(Schedule::Fifo);
    for p in 0..n {
        cluster.stack_mut(p).set_metrics(metrics.clone());
    }
    run(&mut cluster);
    cluster.run();
    cluster.delivered_frames()
}

/// Measures one isolated instance of every protocol in a group of `n`,
/// prints the counts beside their closed forms and asserts they match.
fn measure(n: usize, metrics: &Metrics) {
    let payload = Bytes::from_static(b"0123456789");
    let rb = frames_for(n, metrics, |c| {
        let (_, s) = c.stack_mut(0).rb_broadcast(payload.clone());
        c.absorb(0, s);
    });
    let eb = frames_for(n, metrics, |c| {
        let (_, s) = c.stack_mut(0).eb_broadcast(payload.clone());
        c.absorb(0, s);
    });
    let bc = frames_for(n, metrics, |c| {
        for p in 0..n {
            let s = c.stack_mut(p).bc_propose(1, true).unwrap();
            c.absorb(p, s);
        }
    });
    let mvc = frames_for(n, metrics, |c| {
        for p in 0..n {
            let s = c.stack_mut(p).mvc_propose(1, payload.clone()).unwrap();
            c.absorb(p, s);
        }
    });
    let vc = frames_for(n, metrics, |c| {
        for p in 0..n {
            let s = c.stack_mut(p).vc_propose(1, payload.clone()).unwrap();
            c.absorb(p, s);
        }
    });
    let ab = frames_for(n, metrics, |c| {
        let (_, s) = c.stack_mut(0).ab_broadcast(0, payload.clone());
        c.absorb(0, s);
        // Verify the instance completes.
        c.run();
        assert!(c
            .outputs(0)
            .iter()
            .any(|o| matches!(o, Output::AbDelivered { .. })));
    });

    let n = n as u64;
    let f = (n - 1) / 3;
    let rb_form = n + 2 * n * n;
    let eb_form = n + n + (f + 1) * n;
    let bc_form = 3 * n * rb_form;
    let mvc_form = n * rb_form + n * eb_form + bc_form;
    let vc_form = n * rb_form + mvc_form;
    let ab_form = rb_form + n * rb_form + mvc_form;

    println!("message complexity per isolated instance, n = {n}, failure-free\n");
    println!("{:<24} {:>10} {:>12}", "protocol", "frames", "closed form");
    for (name, frames, form) in [
        ("Echo Broadcast", eb, eb_form),
        ("Reliable Broadcast", rb, rb_form),
        ("Binary Consensus", bc, bc_form),
        ("Multi-valued Consensus", mvc, mvc_form),
        ("Vector Consensus", vc, vc_form),
        ("Atomic Broadcast", ab, ab_form),
    ] {
        println!("{name:<24} {frames:>10} {form:>12}");
        assert_eq!(frames, form, "{name} frame count drifted at n = {n}");
    }
    println!();
}

fn main() {
    let argv: Vec<String> = std::env::args().collect();
    let metrics_json = argv
        .iter()
        .position(|a| a == "--metrics-json")
        .map(|i| argv[i + 1].clone());
    // One registry shared by all processes of all runs below.
    let metrics = Metrics::new();
    measure(4, &metrics);
    measure(7, &metrics);
    println!(
        "the O(n³)-per-round binary consensus dominates every composite — which is\n\
         why the paper's 'dilute agreements across a burst' observation (Figure 7)\n\
         matters so much in practice."
    );

    if let Some(path) = metrics_json {
        std::fs::write(&path, metrics.snapshot().to_json())
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        eprintln!("metrics snapshot written to {path}");
    }
}
