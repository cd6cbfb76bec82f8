//! Span-trace viewer: renders per-instance waterfalls and critical-path
//! summaries from a span dump (JSONL, one span per line) written by
//! `ritas-bench <experiment> --span-json PATH`.
//!
//! Usage:
//! `ritas-trace <span.jsonl> [--max-instances N] [--strict]`
//! `ritas-trace --cluster <spans-0.jsonl> <spans-1.jsonl> ... [--max-events N] [--strict]`
//!
//! In `--cluster` mode the positional files are per-replica dumps of the
//! *same* run, in replica-id order (`ritas-bench <experiment>
//! --cluster-span-json PREFIX` writes them). The report estimates pairwise clock skew from
//! matched send/receive span opens, attributes every RB/EB echo quorum
//! and BC round to the replica whose message closed it, aggregates the
//! coin-round distribution, and prints a bounded merged timeline — it
//! exits 1 when the dumps contain no quorum-arrival rows at all.
//!
//! `--strict` turns unknown critical-path segment labels (segments not
//! in `ritas_metrics::CRITICAL_PATH_SEGMENTS`) from warnings into
//! failures, so a newly added segment cannot be silently dropped.
//!
//! Exit codes: `0` trace rendered, `1` empty or inconsistent trace,
//! `2` unreadable or malformed input.

use ritas_metrics::cluster::{
    coin_distribution, estimate_skews, laggard_counts, merge_timeline, quorum_rows, ReplicaTrace,
    TimelineWhat,
};
use ritas_metrics::{critical_paths, spans_from_jsonl, SpanRecord, CRITICAL_PATH_SEGMENTS};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// Waterfall bar width, characters.
const BAR_WIDTH: usize = 40;

fn fmt_ns(ns: u64) -> String {
    if ns < 10_000 {
        format!("{ns} ns")
    } else if ns < 10_000_000 {
        format!("{:.1} µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// One `[  ███  ]` bar positioning the span inside its root's lifetime.
fn bar(span: &SpanRecord, t0: u64, range: u64) -> String {
    let scale = |t: u64| -> usize {
        (((t.saturating_sub(t0)) as u128 * BAR_WIDTH as u128) / range.max(1) as u128) as usize
    };
    let start = scale(span.open).min(BAR_WIDTH);
    let end = match span.close {
        Some(c) => scale(c).clamp(start, BAR_WIDTH),
        None => BAR_WIDTH,
    };
    let mut out = String::with_capacity(BAR_WIDTH + 2);
    out.push('[');
    for i in 0..BAR_WIDTH {
        if i >= start && (i < end || i == start) {
            out.push('#');
        } else {
            out.push(' ');
        }
    }
    out.push(if span.close.is_some() { ']' } else { '>' });
    out
}

fn render_waterfall(roots: &BTreeMap<&str, Vec<&SpanRecord>>, max_instances: usize) {
    for (shown, (root, spans)) in roots.iter().enumerate() {
        if shown >= max_instances {
            println!(
                "... {} more instance tree(s) (raise --max-instances to see them)",
                roots.len() - max_instances
            );
            break;
        }
        let t0 = spans.iter().map(|s| s.open).min().unwrap_or(0);
        let t1 = spans
            .iter()
            .map(|s| s.close.unwrap_or(s.open))
            .max()
            .unwrap_or(t0);
        let range = t1.saturating_sub(t0);
        println!("{root}  (window {})", fmt_ns(range));
        for span in spans {
            let indent = "  ".repeat(span.depth() - 1);
            let duration = match span.duration() {
                Some(d) => fmt_ns(d),
                None => "open".to_string(),
            };
            let notes: String = span
                .annotations
                .iter()
                .map(|n| format!(" @{}={}", n.kind.as_str(), n.value))
                .collect();
            println!(
                "  {} {:<28} {:>12} {}{}",
                bar(span, t0, range),
                format!("{indent}{}", span.leaf()),
                duration,
                span.layer.as_str(),
                notes
            );
        }
        println!();
    }
}

/// Warns on critical-path segment labels outside the canonical
/// [`CRITICAL_PATH_SEGMENTS`] set; returns how many unknown labels were
/// seen (under `--strict` any is fatal — a renamed or newly added
/// segment must be registered, not silently dropped).
fn warn_unknown_segments(paths: &[ritas_metrics::CriticalPath]) -> usize {
    let mut unknown = 0;
    for cp in paths {
        for (label, _) in &cp.segments {
            if !CRITICAL_PATH_SEGMENTS.contains(label) {
                eprintln!(
                    "warning: {}: unknown critical-path segment {label:?} \
                     (not in CRITICAL_PATH_SEGMENTS)",
                    cp.path
                );
                unknown += 1;
            }
        }
    }
    unknown
}

fn load_spans(input: &str) -> Result<Vec<SpanRecord>, ExitCode> {
    let text = match std::fs::read_to_string(input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {input}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    match spans_from_jsonl(&text) {
        Ok(s) => Ok(s),
        Err((line, e)) => {
            eprintln!("{input}:{line}: {e}");
            Err(ExitCode::from(2))
        }
    }
}

/// The `--cluster` report: skew table, quorum attribution, laggard
/// ranking, coin distribution, merged timeline, per-replica
/// critical-path consistency.
fn run_cluster(files: &[String], max_events: usize, strict: bool) -> ExitCode {
    let mut traces = Vec::new();
    for (replica, file) in files.iter().enumerate() {
        let spans = match load_spans(file) {
            Ok(s) => s,
            Err(code) => return code,
        };
        eprintln!("replica {replica}: {} spans from {file}", spans.len());
        traces.push(ReplicaTrace {
            replica: replica as u32,
            spans,
        });
    }

    let skews = estimate_skews(&traces);
    println!("clock skew vs replica 0:");
    for s in &skews {
        println!(
            "  replica {}  offset {:>12}  interval [{}, {}]  {} sample(s)",
            s.replica,
            format!("{} ns", s.offset_ns),
            s.lo,
            s.hi,
            s.samples
        );
    }

    let rows = quorum_rows(&traces, &skews);
    if rows.is_empty() {
        eprintln!("no quorum-arrival annotations in any dump: nothing to attribute");
        return ExitCode::from(1);
    }
    println!(
        "\nquorum arrivals ({} rows): who closed each quorum",
        rows.len()
    );
    let mut by_path: BTreeMap<&str, Vec<&ritas_metrics::cluster::QuorumRow>> = BTreeMap::new();
    for r in &rows {
        by_path.entry(&r.path).or_default().push(r);
    }
    for (path, rs) in &by_path {
        let mut line = format!("  {path}: ");
        for (i, r) in rs.iter().enumerate() {
            if i > 0 {
                line.push_str(", ");
            }
            match r.round {
                Some(round) => line.push_str(&format!(
                    "r{round} by {} (obs {})",
                    r.completed_by, r.observer
                )),
                None => line.push_str(&format!(
                    "quorum by {} (obs {})",
                    r.completed_by, r.observer
                )),
            }
        }
        println!("{line}");
    }
    println!("\nlaggard ranking (times a replica was the last arrival):");
    let mut laggards: Vec<(u32, u64)> = laggard_counts(&rows).into_iter().collect();
    laggards.sort_by_key(|&(_, n)| std::cmp::Reverse(n));
    for (peer, n) in &laggards {
        println!("  replica {peer}: {n}");
    }

    let coin = coin_distribution(&traces);
    println!("\ncoin rounds (decided BC instances by rounds needed):");
    for (rounds, instances) in &coin.rounds_histogram {
        println!("  {rounds} round(s): {instances} instance(s)");
    }
    println!(
        "  {} coin flip(s), {} came up 1",
        coin.coin_flips, coin.coin_ones
    );

    let timeline = merge_timeline(&traces, &skews);
    let shown = timeline.len().min(max_events);
    println!(
        "\nmerged timeline (first {shown} of {} events):",
        timeline.len()
    );
    for ev in &timeline[..shown] {
        let what = match &ev.what {
            TimelineWhat::Open => "open".to_string(),
            TimelineWhat::Close => "close".to_string(),
            TimelineWhat::Note(n) => format!("@{}={}", n.kind.as_str(), n.value),
        };
        println!(
            "  {:>12} ns  r{}  {:<32} {}",
            ev.t, ev.replica, ev.path, what
        );
    }

    // Per-replica critical paths must still sum exactly — correlation
    // reads the same spans, so a broken sum invalidates the report.
    let mut consistent = true;
    let mut unknown = 0;
    println!("\nper-replica critical paths:");
    for t in &traces {
        let paths = critical_paths(&t.spans);
        unknown += warn_unknown_segments(&paths);
        let mut bad = 0;
        for cp in &paths {
            let sum: u64 = cp.segments.iter().map(|(_, ns)| ns).sum();
            if sum != cp.total_ns {
                bad += 1;
                consistent = false;
            }
        }
        println!(
            "  replica {}: {} a-delivered message(s), {} inconsistent",
            t.replica,
            paths.len(),
            bad
        );
    }
    if !consistent {
        eprintln!("critical-path segments do not sum to their span durations");
        return ExitCode::from(1);
    }
    if strict && unknown > 0 {
        eprintln!("--strict: {unknown} unknown critical-path segment label(s)");
        return ExitCode::from(1);
    }
    println!("\nall per-replica critical-path breakdowns sum exactly to their a-deliver latency");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    let mut inputs: Vec<String> = Vec::new();
    let mut max_instances = 8usize;
    let mut max_events = 40usize;
    let mut cluster = false;
    let mut strict = false;
    let mut i = 1;
    while i < argv.len() {
        match argv[i].as_str() {
            "--max-instances" => {
                max_instances = argv[i + 1].parse().expect("numeric --max-instances");
                i += 2;
            }
            "--max-events" => {
                max_events = argv[i + 1].parse().expect("numeric --max-events");
                i += 2;
            }
            "--cluster" => {
                cluster = true;
                i += 1;
            }
            "--strict" => {
                strict = true;
                i += 1;
            }
            flag if flag.starts_with("--") => {
                eprintln!("unknown argument {flag}");
                return ExitCode::from(2);
            }
            path => {
                inputs.push(path.to_string());
                i += 1;
            }
        }
    }
    if cluster {
        if inputs.len() < 2 {
            eprintln!(
                "usage: ritas-trace --cluster <spans-0.jsonl> <spans-1.jsonl> ... \
                 [--max-events N] [--strict]"
            );
            return ExitCode::from(2);
        }
        return run_cluster(&inputs, max_events, strict);
    }
    let [input] = inputs.as_slice() else {
        eprintln!("usage: ritas-trace <span.jsonl> [--max-instances N] [--strict]");
        return ExitCode::from(2);
    };
    let spans = match load_spans(input) {
        Ok(s) => s,
        Err(code) => return code,
    };
    if spans.is_empty() {
        eprintln!("{input}: no spans (empty trace)");
        return ExitCode::from(1);
    }

    // Group by root instance, children sorted under their parents.
    let mut roots: BTreeMap<&str, Vec<&SpanRecord>> = BTreeMap::new();
    for span in &spans {
        let root = span.path.split('/').next().unwrap_or(&span.path);
        roots.entry(root).or_default().push(span);
    }
    for spans in roots.values_mut() {
        spans.sort_by(|a, b| a.path.cmp(&b.path).then(a.open.cmp(&b.open)));
    }

    let closed = spans.iter().filter(|s| s.close.is_some()).count();
    println!(
        "{} spans ({} closed, {} open) across {} instance trees\n",
        spans.len(),
        closed,
        spans.len() - closed,
        roots.len()
    );
    render_waterfall(&roots, max_instances);

    let paths = critical_paths(&spans);
    if paths.is_empty() {
        println!("no completed a-broadcast messages: no critical paths to attribute");
        return ExitCode::SUCCESS;
    }
    println!("critical paths ({} a-delivered messages):", paths.len());
    let unknown = warn_unknown_segments(&paths);
    let mut consistent = true;
    for cp in &paths {
        let (dominant, _) = cp.dominant();
        println!(
            "  {}  total {}  dominant: {} ({:.0}%)",
            cp.path,
            fmt_ns(cp.total_ns),
            dominant,
            cp.share(dominant)
        );
        for (label, ns) in &cp.segments {
            if *ns == 0 {
                continue;
            }
            let pct = *ns as f64 * 100.0 / cp.total_ns.max(1) as f64;
            println!("    {label:<12} {:>12}  {pct:>5.1}%", fmt_ns(*ns));
        }
        let sum: u64 = cp.segments.iter().map(|(_, ns)| ns).sum();
        if sum != cp.total_ns {
            println!(
                "    !! segments sum to {} but the span recorded {}",
                fmt_ns(sum),
                fmt_ns(cp.total_ns)
            );
            consistent = false;
        }
    }
    if !consistent {
        eprintln!("critical-path segments do not sum to their span durations");
        return ExitCode::from(1);
    }
    if strict && unknown > 0 {
        eprintln!("--strict: {unknown} unknown critical-path segment label(s)");
        return ExitCode::from(1);
    }
    println!("\nall critical-path breakdowns sum exactly to their a-deliver latency");
    ExitCode::SUCCESS
}
