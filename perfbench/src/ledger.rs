//! The traced run: the single-layer rungs, short probes of the workloads
//! the layer metrics are defined on, and the named workload itself with
//! the benchmark's spans on in every second segment. End-to-end metrics
//! never come from here.

use crate::load::Mode::{self, Alternate, Off};
use crate::load::{run_pass, workload, Pass, PassSpec, Workload, N};
use crate::micro::{self, Metric};
use crate::probe::{SpeedProbe, Timeline};
use crate::spans::{Name, Spans};
use crate::stats::{median, Rng};
use std::time::Duration;

pub struct Traced {
    /// Every per-layer metric, by name.
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub violations: Vec<String>,
    /// The spans of the traced pass over the named workload.
    pub spans: Spans,
    /// Human-readable ledger table.
    pub table: String,
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// Throughput a recording costs, in percent, from a pass that switched
/// it on in every second segment: the median rate of the segments with it
/// against the median rate of their neighbours without.
fn alternate_cost_pct(pass: &Pass, timeline: &Timeline) -> f64 {
    let rates: Vec<f64> = pass
        .clock
        .segments(timeline)
        .iter()
        .map(|s| s.ops_per_s * s.slowdown)
        .collect();
    let off: Vec<f64> = rates.iter().copied().step_by(2).collect();
    let on: Vec<f64> = rates.iter().copied().skip(1).step_by(2).collect();
    (median(&off) - median(&on)) / median(&off) * 100.0
}

/// CPU per command of the segments of `pass` that ran without the
/// benchmark's spans (the even ones), at the reference core speed.
fn untraced_cpu_us_per_op(pass: &Pass, timeline: &Timeline) -> f64 {
    let segments = pass.clock.segments(timeline);
    let off: Vec<f64> = segments
        .iter()
        .step_by(2)
        .map(|s| s.cpu_us_per_op / s.slowdown)
        .collect();
    median(&off)
}

pub fn run(w: &Workload, seconds: f64, seed: u64) -> Traced {
    let mut rng = Rng::new(seed);
    let probe = SpeedProbe::start();
    let mut out = Traced {
        metrics: Vec::new(),
        attempted: 0,
        failed: 0,
        violations: Vec::new(),
        spans: Spans::off(),
        table: String::new(),
    };

    // Single-layer rungs, each for a 75th of the run (0.2 s of 15).
    let min = Duration::from_secs_f64(seconds / 75.0);
    out.metrics.extend(micro::crypto(min, &mut rng));
    out.metrics.extend(micro::transport(min, &mut rng));
    out.metrics.extend(micro::codec(min, &mut rng));
    out.metrics.extend(micro::service_wire(min, &mut rng));
    for (metrics, violations) in [
        micro::instances(min, &mut rng),
        micro::rsm_submit_sync(min, &mut rng),
        micro::service_replica_submit(min, &mut rng),
    ] {
        out.metrics.extend(metrics);
        out.violations.extend(violations);
    }

    // A pass of `share × seconds` over workload `name` with one of the
    // two recordings on in every second segment.
    let mut pass = |name: &str, share: f64, segments: u64, spans: Mode, program_tracing: Mode| {
        let pw = workload(name).expect("known workload");
        let mut spec = PassSpec::sized(pw, seconds * share, segments, rng.next_u64());
        spec.spans = spans;
        spec.program_tracing = program_tracing;
        let p = run_pass(pw, &spec);
        out.attempted += p.attempted;
        out.failed += p.failed;
        out.violations
            .extend(p.violations.iter().map(|v| format!("{name}: {v}")));
        p
    };

    // The named workload, the benchmark's spans on in every second
    // segment: the segments without give the untraced cost, those with
    // the span aggregates, their difference what the spans cost.
    let named = pass(w.name, 0.4, 16, Alternate, Off);
    // The same, shorter, over each workload the layer metrics are defined
    // on, unless it is the named one.
    let mut probe_of = |name: &str| (w.name != name).then(|| pass(name, 0.15, 4, Alternate, Off));
    let (stack, node, svc) = (
        probe_of("stack-burst"),
        probe_of("node-small"),
        probe_of("svc-write"),
    );
    let (stack, node, svc) = (
        stack.as_ref().unwrap_or(&named),
        node.as_ref().unwrap_or(&named),
        svc.as_ref().unwrap_or(&named),
    );
    let node_program_tracing = pass("node-small", 0.3, 16, Off, Alternate);
    // Timed numbers of the passes are brought to the reference core speed
    // like the end-to-end ones; the single-layer rungs report their
    // fastest slice as measured.
    let timeline = probe.finish();
    let (node_cpu_us, stack_cpu_us) = (
        untraced_cpu_us_per_op(node, &timeline),
        untraced_cpu_us_per_op(stack, &timeline),
    );

    let c = &named.counters;
    let flushes = c.flush_size + c.flush_age + c.flush_idle;
    let st = &stack.spans;
    let handle_frame_ns = st.agg(Name::StackHandleFrame).self_ns_mean();
    // Spans were on for every second segment: half the measured commands.
    let poll_ns_per_op = (st.agg(Name::StackPollAll).total_ns + st.agg(Name::StackTick).total_ns)
        as f64
        / (stack.measured_ops() / 2) as f64;
    let ab_broadcast_ns = st.agg(Name::StackAbBroadcast).total_ns_mean();
    let node_frames_per_op = ratio(node.counters.frames, node.measured_ops());
    let find = |name: &str| {
        let m = out.metrics.iter().chain(&svc.extra).find(|m| m.0 == name);
        m.expect("metric measured above").1
    };
    let auth_oneway_ns = find("transport.auth_oneway_64B_ns");
    let replica_submit_ms = find("service.replica_submit_ms");

    // The ledger: what the measured rungs account for of one a-delivered
    // command's CPU on node-small.
    let rows = [
        (
            "transport.auth_oneway_64B_ns",
            auth_oneway_ns,
            node_frames_per_op,
        ),
        ("stack.handle_frame_ns", handle_frame_ns, node_frames_per_op),
        ("stack.poll_ns_per_op", poll_ns_per_op, 1.0),
        ("stack.ab_broadcast (span mean)", ab_broadcast_ns, 1.0),
    ];
    let covered_us: f64 = rows.iter().map(|r| r.1 * r.2 / 1e3).sum();
    out.table = format!(
        "ledger: node-small, {:.1} CPU-us per a-delivered command (pass of {} ops)\n  \
         {:<34}{:>10}{:>12}{:>12}{:>8}\n",
        node_cpu_us,
        node.measured_ops(),
        "rung",
        "cost ns",
        "per command",
        "product us",
        "share"
    );
    for (rung, cost_ns, per_op) in rows {
        let product_us = cost_ns * per_op / 1e3;
        out.table += &format!(
            "  {rung:<34}{cost_ns:>10.0}{per_op:>12.2}{product_us:>12.1}{:>7.1}%\n",
            product_us / node_cpu_us * 100.0
        );
    }
    out.table += &format!(
        "  {:<34}{:>34.1}{:>7.1}%\n  node.runtime_us_per_op = {:.1} (node-small) - {:.1} (stack-burst)\n",
        "covered",
        covered_us,
        covered_us / node_cpu_us * 100.0,
        node_cpu_us,
        stack_cpu_us
    );

    out.metrics.extend([
        // Of the named workload.
        (
            "transport.frames_per_op",
            ratio(c.frames, named.measured_ops()),
        ),
        (
            "transport.bytes_per_op",
            ratio(c.bytes, named.measured_ops()),
        ),
        ("transport.mac_rejected", c.mac_rejected as f64),
        (
            "ab.batch_commands_mean",
            ratio(c.batch_commands_sum, c.batches),
        ),
        (
            "ab.agreements_per_op",
            ratio(c.agreements, named.measured_ops() * N as u64),
        ),
        ("ab.flush_size_share", ratio(c.flush_size, flushes)),
        ("ab.flush_age_share", ratio(c.flush_age, flushes)),
        ("ab.flush_idle_share", ratio(c.flush_idle, flushes)),
        ("bc.rounds_max", c.bc_rounds_max as f64),
        (
            "bench.trace_overhead_pct",
            alternate_cost_pct(&named, &timeline),
        ),
        // Of the probes.
        ("stack.handle_frame_ns", handle_frame_ns),
        (
            "stack.frames_per_op",
            ratio(stack.counters.frames, stack.measured_ops()),
        ),
        (
            "stack.bytes_per_op",
            ratio(stack.counters.bytes, stack.measured_ops()),
        ),
        ("stack.poll_ns_per_op", poll_ns_per_op),
        (
            "node.submit_call_us",
            node.spans.agg(Name::NodeAtomicBroadcast).total_ns_mean() / 1e3,
        ),
        ("node.p99_ms", node.p99_ms()),
        ("node.runtime_us_per_op", node_cpu_us - stack_cpu_us),
        (
            "rsm.applied_per_op",
            ratio(svc.counters.rsm_applied, svc.measured_ops() * N as u64),
        ),
        ("service.edge_ms", svc.p50_ms(&timeline) - replica_submit_ms),
        ("service.invoke_p99_ms", svc.p99_ms()),
        ("service.dedup_hits", svc.counters.dedup_hits as f64),
        (
            "metrics.tracing_cost_pct",
            alternate_cost_pct(&node_program_tracing, &timeline),
        ),
        ("ledger.coverage_pct", covered_us / node_cpu_us * 100.0),
    ]);
    out.metrics.extend(svc.extra.iter().copied());
    out.spans = named.spans;
    out
}
