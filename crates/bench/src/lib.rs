//! Rendering helpers shared by the benchmark binaries.
//!
//! Each binary in `src/bin/` regenerates one artifact of the paper's
//! evaluation (Table 1, Figures 4–7) or one ablation from `DESIGN.md`,
//! printing the same rows/series the paper reports plus the paper's own
//! numbers for side-by-side comparison.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use ritas_sim::harness::{BurstSeries, StackLatencyRow};
use ritas_sim::Faultload;

/// The paper's Table 1 values: (label, with-IPSec µs, without-IPSec µs,
/// overhead %).
pub const PAPER_TABLE1: [(&str, f64, f64, f64); 6] = [
    ("Echo Broadcast", 1724.0, 1497.0, 15.0),
    ("Reliable Broadcast", 2134.0, 1641.0, 30.0),
    ("Binary Consensus", 8922.0, 6816.0, 30.0),
    ("Multi-valued Consensus", 16359.0, 11186.0, 46.0),
    ("Vector Consensus", 20673.0, 15382.0, 34.0),
    ("Atomic Broadcast", 23744.0, 18604.0, 27.0),
];

/// Paper burst-of-1000 reference numbers per faultload:
/// (message size, latency ms, max throughput msg/s).
pub const PAPER_FIG4_FAILURE_FREE: [(usize, f64, f64); 4] = [
    (10, 1386.0, 721.0),
    (100, 1539.0, 650.0),
    (1000, 2150.0, 465.0),
    (10_000, 12340.0, 81.0),
];

/// Figure 5 (fail-stop) reference numbers.
pub const PAPER_FIG5_FAIL_STOP: [(usize, f64, f64); 4] = [
    (10, 988.0, 858.0),
    (100, 1164.0, 621.0),
    (1000, 1607.0, 834.0),
    (10_000, 8655.0, 115.0),
];

/// Figure 6 (Byzantine) reference numbers.
pub const PAPER_FIG6_BYZANTINE: [(usize, f64, f64); 4] = [
    (10, 1404.0, 711.0),
    (100, 1576.0, 634.0),
    (1000, 2175.0, 460.0),
    (10_000, 12347.0, 81.0),
];

/// Renders Table 1 with the paper's values alongside.
pub fn render_table1(rows: &[StackLatencyRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}\n",
        "", "measured", "", "", "paper", "", ""
    ));
    out.push_str(&format!(
        "{:<24} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}\n",
        "Protocol", "w/ (us)", "w/o (us)", "ovh%", "w/ (us)", "w/o (us)", "ovh%"
    ));
    out.push_str(&"-".repeat(100));
    out.push('\n');
    for r in rows {
        let paper = PAPER_TABLE1
            .iter()
            .find(|(label, ..)| *label == r.protocol.label());
        let (pw, pwo, po) = paper
            .map(|(_, a, b, c)| (*a, *b, *c))
            .unwrap_or((0.0, 0.0, 0.0));
        out.push_str(&format!(
            "{:<24} | {:>10.0} {:>10.0} {:>5.0}% | {:>10.0} {:>10.0} {:>5.0}%\n",
            r.protocol.label(),
            r.with_ipsec_us,
            r.without_ipsec_us,
            r.overhead_pct(),
            pw,
            pwo,
            po
        ));
    }
    out
}

/// Renders a figure's latency and throughput series.
pub fn render_burst_series(series: &[BurstSeries], paper_1000: &[(usize, f64, f64)]) -> String {
    let mut out = String::new();
    for s in series {
        out.push_str(&format!(
            "--- message size {} bytes ({} faultload) ---\n",
            s.msg_size,
            s.faultload.label()
        ));
        out.push_str(&format!(
            "{:>8} {:>14} {:>18} {:>12}\n",
            "burst", "latency (ms)", "throughput (msg/s)", "agreements"
        ));
        for p in &s.points {
            out.push_str(&format!(
                "{:>8} {:>14.1} {:>18.0} {:>12.1}\n",
                p.burst, p.latency_ms, p.throughput_msgs_per_sec, p.agreements
            ));
        }
        if let Some((_, pl, pt)) = paper_1000.iter().find(|(m, ..)| *m == s.msg_size) {
            out.push_str(&format!(
                "  paper @ burst 1000: latency {pl:.0} ms, Tmax {pt:.0} msg/s\n"
            ));
        }
        out.push('\n');
    }
    out
}

/// Common CLI arguments of the figure binaries.
#[derive(Debug, Clone)]
pub struct FigureArgs {
    /// Runs averaged per point (paper: 10).
    pub runs: usize,
    /// Base seed.
    pub seed: u64,
    /// Reduced parameter grid for smoke runs.
    pub quick: bool,
    /// Write an aggregated [`ritas_metrics::MetricsSnapshot`] JSON dump
    /// of the whole run to this path.
    pub metrics_json: Option<String>,
    /// Write a per-instance span dump (JSONL, one span per line; see
    /// [`write_span_dump`]) to this path.
    pub span_json: Option<String>,
    /// Write per-replica span dumps (`{prefix}-{p}.jsonl`, one file per
    /// simulated process; see [`write_cluster_span_dumps`]) for
    /// `ritas-trace --cluster`.
    pub cluster_span_json: Option<String>,
    /// Override the binary's default faultload (spec syntax of
    /// [`Faultload::from_str`], e.g. `link-flap:0-1:4000000:1000000`),
    /// so simulated chaos runs are comparable with the real TCP mesh's.
    pub faultload: Option<Faultload>,
}

/// Parses `--runs N --seed S --quick --metrics-json PATH --span-json
/// PATH --cluster-span-json PREFIX --faultload SPEC` from
/// `std::env::args`.
///
/// # Panics
///
/// Panics on unknown arguments or non-numeric values (these are
/// developer-facing binaries).
pub fn parse_figure_args() -> FigureArgs {
    let mut out = FigureArgs {
        runs: 3,
        seed: 42,
        quick: false,
        metrics_json: None,
        span_json: None,
        cluster_span_json: None,
        faultload: None,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--runs" => {
                out.runs = args[i + 1].parse().expect("numeric --runs");
                i += 2;
            }
            "--seed" => {
                out.seed = args[i + 1].parse().expect("numeric --seed");
                i += 2;
            }
            "--quick" => {
                out.quick = true;
                i += 1;
            }
            "--metrics-json" => {
                out.metrics_json = Some(args[i + 1].clone());
                i += 2;
            }
            "--span-json" => {
                out.span_json = Some(args[i + 1].clone());
                i += 2;
            }
            "--cluster-span-json" => {
                out.cluster_span_json = Some(args[i + 1].clone());
                i += 2;
            }
            "--faultload" => {
                out.faultload = Some(args[i + 1].parse().unwrap_or_else(|e| panic!("{e}")));
                i += 2;
            }
            other => panic!("unknown argument {other}"),
        }
    }
    out
}

/// Runs one dedicated simulated burst under `faultload` and writes the
/// observer's span tree (virtual-time open/close per protocol instance)
/// as JSONL to `path`, readable by the `ritas-trace` binary.
///
/// This is a *separate* traced run, not a dump of the figure runs: span
/// paths are per-process, so the trace needs each simulated process to
/// own a private registry. Call this **before** [`MetricsDump::from_arg`]
/// — once the ambient registry is installed all processes share it and
/// their same-named spans would collide.
///
/// # Panics
///
/// Panics when the path is not writable or the traced run fails to
/// deliver (developer-facing binaries).
pub fn write_span_dump(path: &str, seed: u64, faultload: Faultload) {
    use ritas_sim::cluster::{Action, SimCluster, SimConfig};

    let config = SimConfig::paper_testbed(seed).with_faultload(faultload);
    let n = config.n;
    let mut sim = SimCluster::new(config);
    let payload = bytes::Bytes::from(vec![0x5a; 100]);
    let senders = faultload.senders(n);
    for &p in &senders {
        for _ in 0..4 {
            sim.schedule(0, p, Action::AbBroadcast(payload.clone()));
        }
    }
    sim.run();
    let observer = sim.observer();
    let snap = sim.metrics_snapshot(observer);
    let delivered = sim
        .stack(observer)
        .ab(0)
        .map(|ab| ab.stats().delivered)
        .unwrap_or(0);
    assert_eq!(
        delivered,
        4 * senders.len() as u64,
        "traced run did not deliver the full burst"
    );
    std::fs::write(path, ritas_metrics::spans_to_jsonl(&snap.spans))
        .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    eprintln!(
        "span dump written to {path} ({} spans from traced observer {observer})",
        snap.spans.len()
    );
}

/// Runs one dedicated simulated burst under `faultload` and writes
/// **every** process's span tree as `{prefix}-{p}.jsonl` — the n-file
/// input of `ritas-trace --cluster`, whose cross-replica correlation
/// needs each replica's private view of the same instances. Same
/// ambient-registry caveat as [`write_span_dump`].
///
/// # Panics
///
/// Panics when a path is not writable or the traced run fails to
/// deliver (developer-facing binaries).
pub fn write_cluster_span_dumps(prefix: &str, seed: u64, faultload: Faultload) {
    use ritas_sim::cluster::{Action, SimCluster, SimConfig};

    let config = SimConfig::paper_testbed(seed).with_faultload(faultload);
    let n = config.n;
    let mut sim = SimCluster::new(config);
    let payload = bytes::Bytes::from(vec![0x5a; 100]);
    let senders = faultload.senders(n);
    for &p in &senders {
        for _ in 0..4 {
            sim.schedule(0, p, Action::AbBroadcast(payload.clone()));
        }
    }
    sim.run();
    let observer = sim.observer();
    let delivered = sim
        .stack(observer)
        .ab(0)
        .map(|ab| ab.stats().delivered)
        .unwrap_or(0);
    assert_eq!(
        delivered,
        4 * senders.len() as u64,
        "traced cluster run did not deliver the full burst"
    );
    for p in 0..n {
        let path = format!("{prefix}-{p}.jsonl");
        let spans = sim.metrics_snapshot(p).spans;
        std::fs::write(&path, ritas_metrics::spans_to_jsonl(&spans))
            .unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
    eprintln!(
        "cluster span dumps written to {prefix}-{{0..{}}}.jsonl",
        n - 1
    );
}

/// Collects every simulated process's protocol metrics over the whole
/// lifetime of a benchmark binary and writes one aggregated
/// [`ritas_metrics::MetricsSnapshot`] JSON dump at the end.
///
/// Construct it (from the `--metrics-json` argument) **before** running
/// any experiment: it installs the process-wide ambient registry that
/// every subsequently created `SimCluster` records into.
#[derive(Debug)]
pub struct MetricsDump {
    path: String,
    metrics: ritas_metrics::Metrics,
}

impl MetricsDump {
    /// Installs the ambient registry when `--metrics-json PATH` was
    /// given; `None` (no-op) otherwise.
    pub fn from_arg(path: Option<String>) -> Option<MetricsDump> {
        let path = path?;
        let metrics = ritas_metrics::Metrics::new();
        ritas_sim::cluster::install_ambient_metrics(metrics.clone());
        Some(MetricsDump { path, metrics })
    }

    /// Writes the aggregated snapshot as JSON.
    ///
    /// # Panics
    ///
    /// Panics when the path is not writable (developer-facing binaries).
    pub fn write(self) {
        let snap = self.metrics.snapshot();
        if let Some(h) = snap.histogram("ab_latency_ns").filter(|h| h.count > 0) {
            eprintln!(
                "a-deliver latency across all runs: p50 {:.2} ms, p99 {:.2} ms over {} sample(s)",
                h.percentile(50.0) as f64 / 1e6,
                h.percentile(99.0) as f64 / 1e6,
                h.count
            );
        }
        std::fs::write(&self.path, snap.to_json())
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", self.path));
        eprintln!("metrics snapshot written to {}", self.path);
    }
}

/// The burst sizes used by the figure binaries (paper: up to 1000).
pub fn default_bursts() -> Vec<usize> {
    vec![4, 8, 16, 40, 100, 250, 500, 1000]
}

/// The message sizes of Figures 4–6.
pub fn default_msg_sizes() -> Vec<usize> {
    vec![10, 100, 1000, 10_000]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritas_sim::harness::ProtocolUnderTest;

    #[test]
    fn table_rendering_includes_paper_columns() {
        let rows = vec![ritas_sim::harness::StackLatencyRow {
            protocol: ProtocolUnderTest::ReliableBroadcast,
            with_ipsec_us: 2000.0,
            without_ipsec_us: 1500.0,
        }];
        let s = render_table1(&rows);
        assert!(s.contains("Reliable Broadcast"));
        assert!(s.contains("2134")); // paper reference value
        assert!(s.contains("33%")); // measured overhead
    }

    #[test]
    fn defaults_are_sane() {
        assert!(default_bursts().contains(&1000));
        assert_eq!(default_msg_sizes().len(), 4);
    }
}
