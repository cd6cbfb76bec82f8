//! The `ritas-bench` experiment registry.
//!
//! Every artifact the repository quotes — the paper's Table 1 and
//! Figures 4–7, the ablations of `DESIGN.md` and the extensions of
//! `EXPERIMENTS.md` — is one row of the `EXPERIMENTS` table: a name, the
//! arguments its committed `results/<stem>.txt` was produced with, and
//! a function printing the same rows/series the paper reports with the
//! paper's own numbers alongside. `ritas-bench <name>` runs a row,
//! `regen` rewrites every committed artifact and `check` fails when one
//! is stale (CI runs it), so a protocol change that moves a simulated
//! number shows up as a diff under `results/`, not as stale prose.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;
mod real_latency;

use ritas_metrics::Metrics;
use ritas_sim::cluster::{Action, SimConfig};
use ritas_sim::Faultload;
use std::io::{self, Write};
use std::path::Path;

/// The paper's Table 1 values: (label, with-IPSec µs, without-IPSec µs,
/// overhead %).
const PAPER_TABLE1: [(&str, f64, f64, f64); 6] = [
    ("Echo Broadcast", 1724.0, 1497.0, 15.0),
    ("Reliable Broadcast", 2134.0, 1641.0, 30.0),
    ("Binary Consensus", 8922.0, 6816.0, 30.0),
    ("Multi-valued Consensus", 16359.0, 11186.0, 46.0),
    ("Vector Consensus", 20673.0, 15382.0, 34.0),
    ("Atomic Broadcast", 23744.0, 18604.0, 27.0),
];

/// Paper burst-of-1000 reference numbers per faultload:
/// (message size, latency ms, max throughput msg/s).
const PAPER_FIG4_FAILURE_FREE: [(usize, f64, f64); 4] = [
    (10, 1386.0, 721.0),
    (100, 1539.0, 650.0),
    (1000, 2150.0, 465.0),
    (10_000, 12340.0, 81.0),
];

/// Figure 5 (fail-stop) reference numbers.
const PAPER_FIG5_FAIL_STOP: [(usize, f64, f64); 4] = [
    (10, 988.0, 858.0),
    (100, 1164.0, 621.0),
    (1000, 1607.0, 834.0),
    (10_000, 8655.0, 115.0),
];

/// Figure 6 (Byzantine) reference numbers.
const PAPER_FIG6_BYZANTINE: [(usize, f64, f64); 4] = [
    (10, 1404.0, 711.0),
    (100, 1576.0, 634.0),
    (1000, 2175.0, 460.0),
    (10_000, 12347.0, 81.0),
];

/// The arguments of one experiment run: an [`Experiment`]'s canonical
/// ones, then whatever the command line overrides.
struct Args {
    /// Runs averaged per point (paper: 10); some rows have a floor.
    runs: usize,
    seed: u64,
    /// Reduced parameter grid for smoke runs.
    quick: bool,
    /// Spec syntax of `Faultload`'s `FromStr`, e.g.
    /// `link-flap:0-1:4000000:1000000`, so simulated chaos runs are
    /// comparable with the real TCP mesh's.
    faultload: Faultload,
    /// Where to write the aggregated [`ritas_metrics::MetricsSnapshot`]
    /// JSON of the whole run.
    metrics_json: Option<String>,
    /// Where to write the span dump (JSONL, one span per line) of a
    /// dedicated traced burst, for `ritas-trace`.
    span_json: Option<String>,
    /// Prefix of that burst's per-replica span dumps (`{prefix}-{p}.jsonl`,
    /// one per simulated process), for `ritas-trace --cluster`.
    cluster_span_json: Option<String>,
    /// The registry `--metrics-json` dumps: every simulated process
    /// records into it when that flag is given, and rows that build
    /// their own clusters attach it themselves.
    metrics: Metrics,
}

impl Args {
    /// Parses `--runs N --seed S --quick --faultload SPEC --metrics-json
    /// PATH --span-json PATH --cluster-span-json PREFIX`; a repeated
    /// flag overrides the earlier one.
    fn parse<'a>(argv: impl IntoIterator<Item = &'a str>) -> Result<Args, String> {
        let mut out = Args {
            runs: 3,
            seed: 42,
            quick: false,
            faultload: Faultload::FailureFree,
            metrics_json: None,
            span_json: None,
            cluster_span_json: None,
            metrics: Metrics::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(flag) = argv.next() {
            let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
            match flag {
                "--runs" => out.runs = value()?.parse().map_err(|_| "numeric --runs")?,
                "--seed" => out.seed = value()?.parse().map_err(|_| "numeric --seed")?,
                "--quick" => out.quick = true,
                "--faultload" => {
                    out.faultload = value()?.parse::<Faultload>().map_err(|e| e.to_string())?
                }
                "--metrics-json" => out.metrics_json = Some(value()?.to_string()),
                "--span-json" => out.span_json = Some(value()?.to_string()),
                "--cluster-span-json" => out.cluster_span_json = Some(value()?.to_string()),
                other => return Err(format!("unknown argument {other}")),
            }
        }
        Ok(out)
    }
}

/// One reproducible artifact.
struct Experiment {
    /// What `ritas-bench <name>` calls it.
    name: &'static str,
    /// The committed artifact is `results/<stem>.txt`.
    stem: &'static str,
    title: &'static str,
    /// The arguments the committed artifact is produced with, which are
    /// also the defaults of `ritas-bench <name>`.
    args: &'static [&'static str],
    /// Whether the output is a pure function of the arguments (a
    /// simulator run) and therefore committed and checked.
    deterministic: bool,
    /// Prints the artifact to the writer, progress to stderr.
    run: fn(&Args, &mut dyn Write) -> io::Result<()>,
}

/// Every experiment of the repository, in the order `EXPERIMENTS.md`
/// discusses them.
const EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "table1",
        stem: "table1",
        title: "Table 1: isolated per-protocol latency, with and without authentication",
        args: &["--runs", "20"],
        deterministic: true,
        run: experiments::table1,
    },
    Experiment {
        name: "fig4",
        stem: "fig4",
        title: "Figure 4: atomic broadcast bursts, failure-free",
        args: &["--runs", "3"],
        deterministic: true,
        run: |a, w| {
            experiments::burst_figure(a, w, "Figure 4 (failure-free)", PAPER_FIG4_FAILURE_FREE)
        },
    },
    Experiment {
        name: "fig5",
        stem: "fig5",
        title: "Figure 5: atomic broadcast bursts, one process crashed",
        args: &["--runs", "3", "--faultload", "fail-stop:3"],
        deterministic: true,
        run: |a, w| experiments::burst_figure(a, w, "Figure 5 (fail-stop)", PAPER_FIG5_FAIL_STOP),
    },
    Experiment {
        name: "fig6",
        stem: "fig6",
        title: "Figure 6: atomic broadcast bursts, one Byzantine process",
        args: &["--runs", "3", "--faultload", "byzantine:3"],
        deterministic: true,
        run: |a, w| experiments::burst_figure(a, w, "Figure 6 (Byzantine)", PAPER_FIG6_BYZANTINE),
    },
    Experiment {
        name: "fig7",
        stem: "fig7",
        title: "Figure 7: relative cost of agreement",
        args: &[],
        deterministic: true,
        run: experiments::fig7,
    },
    Experiment {
        name: "a1",
        stem: "ablation_a1",
        title: "A1: binary consensus step transport",
        args: &["--runs", "5"],
        deterministic: true,
        run: experiments::a1,
    },
    Experiment {
        name: "a2",
        stem: "ablation_a2",
        title: "A2: MVC VECT transport",
        args: &["--runs", "5"],
        deterministic: true,
        run: experiments::a2,
    },
    Experiment {
        name: "a3",
        stem: "ablation_a3",
        title: "A3: MAC vs public-key stack",
        args: &["--runs", "3"],
        deterministic: true,
        run: experiments::a3,
    },
    Experiment {
        name: "x2",
        stem: "ext_x2",
        title: "X2: WAN asymmetry",
        args: &[],
        deterministic: true,
        run: experiments::x2,
    },
    Experiment {
        name: "x3",
        stem: "ext_x3",
        title: "X3: scaling to n = 13",
        args: &[],
        deterministic: true,
        run: experiments::x3,
    },
    Experiment {
        name: "x4",
        stem: "ext_x4",
        title: "X4: decided rounds, local vs shared coins",
        args: &[],
        deterministic: true,
        run: experiments::x4,
    },
    Experiment {
        name: "x5",
        stem: "ext_x5",
        title: "X5: frames and RB bytes per instance against the closed forms (asserted)",
        args: &[],
        deterministic: true,
        run: experiments::x5,
    },
    Experiment {
        name: "x7a",
        stem: "ext_x7a",
        title: "X7a: wall-clock latencies through the Node runtime, hub and TCP",
        args: &["--runs", "10"],
        deterministic: false,
        run: real_latency::run,
    },
    Experiment {
        name: "x7b",
        stem: "ext_x7b",
        title: "X7b: open-loop load",
        args: &[],
        deterministic: true,
        run: experiments::x7b,
    },
];

/// The repository's `results/` directory: where `regen` writes and what
/// `check` reads.
pub const RESULTS_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");

/// A failed `ritas-bench` invocation: the process exit code (1 = a
/// committed artifact is stale, 2 = usage) and the message for stderr.
#[derive(Debug, PartialEq, Eq)]
pub struct Failure {
    /// Process exit code.
    pub code: i32,
    /// What to tell the user.
    pub message: String,
}

impl From<io::Error> for Failure {
    fn from(e: io::Error) -> Self {
        Failure {
            code: 1,
            message: e.to_string(),
        }
    }
}

fn usage(problem: &str) -> Failure {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    Failure {
        code: 2,
        message: format!(
            "{problem}\n\
             usage: ritas-bench <experiment> [--runs N] [--seed S] [--quick] [--faultload SPEC]\n\
             \x20                  [--metrics-json PATH] [--span-json PATH] [--cluster-span-json PREFIX]\n\
             \x20      ritas-bench list | regen | check\n\
             experiments: {}",
            names.join(" ")
        ),
    }
}

/// The `ritas-bench` command line (`argv` without the program name):
/// `<experiment> [flags]` prints one artifact to `out`, `list` the
/// table, `regen` rewrites and `check` verifies every deterministic
/// row's `<stem>.txt` under `results`.
pub fn cli(argv: &[String], results: &Path, out: &mut dyn Write) -> Result<(), Failure> {
    let (verb, flags) = argv
        .split_first()
        .ok_or_else(|| usage("no experiment named"))?;
    if matches!(verb.as_str(), "list" | "regen" | "check") && !flags.is_empty() {
        return Err(usage(&format!("{verb} takes no arguments")));
    }
    match verb.as_str() {
        "list" => Ok(list(out)?),
        "regen" | "check" => sync_artifacts(results, verb == "regen", out),
        name => {
            let e = EXPERIMENTS
                .iter()
                .find(|e| e.name == name)
                .ok_or_else(|| usage(&format!("unknown experiment {name}")))?;
            let argv = e
                .args
                .iter()
                .copied()
                .chain(flags.iter().map(String::as_str));
            let args = Args::parse(argv).map_err(|problem| usage(&problem))?;
            if !e.deterministic {
                return Ok((e.run)(&args, out)?);
            }
            write_span_dumps(&args)?;
            // After the traced burst: span paths are per-process, so it
            // needs each simulated process to own a private registry.
            if args.metrics_json.is_some() {
                ritas_sim::cluster::install_ambient_metrics(args.metrics.clone());
            }
            (e.run)(&args, out)?;
            write_metrics_dump(&args)?;
            Ok(())
        }
    }
}

fn list(out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<7} {:<24} {:<36} what",
        "name", "artifact", "canonical arguments"
    )?;
    for e in EXPERIMENTS {
        let artifact = if e.deterministic {
            format!("results/{}.txt", e.stem)
        } else {
            "(this machine's clock)".to_string()
        };
        writeln!(
            out,
            "{:<7} {artifact:<24} {:<36} {}",
            e.name,
            e.args.join(" "),
            e.title
        )?;
    }
    Ok(())
}

/// A deterministic row's artifact under its canonical arguments.
fn canonical_output(e: &Experiment) -> io::Result<Vec<u8>> {
    let args = Args::parse(e.args.iter().copied()).expect("canonical arguments parse");
    let mut out = Vec::new();
    (e.run)(&args, &mut out)?;
    Ok(out)
}

fn deterministic_rows() -> impl Iterator<Item = &'static Experiment> {
    EXPERIMENTS.iter().filter(|e| e.deterministic)
}

/// Regenerates every deterministic row in memory and compares it with
/// its file under `results`: `rewrite` (`regen`) replaces the files that
/// differ and reports each on `out`; without it (`check`) the files are
/// left alone and `Err` names each that differs, with its first
/// differing line.
fn sync_artifacts(results: &Path, rewrite: bool, out: &mut dyn Write) -> Result<(), Failure> {
    let mut stale = Vec::new();
    for e in deterministic_rows() {
        let path = results.join(e.stem).with_extension("txt");
        let fresh = canonical_output(e)?;
        let problem = match std::fs::read(&path) {
            Ok(committed) if committed == fresh => None,
            Ok(committed) => Some(format!(
                "is stale at line {}",
                first_differing_line(&committed, &fresh)
            )),
            Err(e) => Some(format!("cannot be read: {e}")),
        };
        match problem {
            None if rewrite => writeln!(out, "{} unchanged", path.display())?,
            None => {}
            Some(problem) if rewrite => {
                std::fs::write(&path, fresh)?;
                writeln!(out, "{} {problem}: rewritten", path.display())?;
            }
            Some(problem) => stale.push(format!("{} {problem}", path.display())),
        }
    }
    if stale.is_empty() {
        return Ok(());
    }
    stale.push("run `ritas-bench regen` and commit what changed".to_string());
    Err(Failure {
        code: 1,
        message: stale.join("\n"),
    })
}

/// The 1-based line at which two unequal byte strings first differ.
fn first_differing_line(old: &[u8], new: &[u8]) -> usize {
    let (mut old, mut new) = (old.split(|b| *b == b'\n'), new.split(|b| *b == b'\n'));
    (1..)
        .find(|_| old.next() != new.next())
        .expect("equal inputs")
}

/// Runs one dedicated simulated burst under `args.faultload` and writes
/// its span trees (virtual-time open/close per protocol instance) as
/// JSONL: the observer's to `--span-json`, every process's to
/// `--cluster-span-json`'s `{prefix}-{p}.jsonl` — the n-file input of
/// `ritas-trace --cluster`, whose cross-replica correlation needs each
/// replica's private view of the same instances.
///
/// This is a *separate* traced run, not a dump of the experiment's runs.
fn write_span_dumps(args: &Args) -> io::Result<()> {
    if args.span_json.is_none() && args.cluster_span_json.is_none() {
        return Ok(());
    }
    let config = SimConfig::paper_testbed(args.seed).with_faultload(args.faultload);
    let senders = args.faultload.senders(config.n);
    let sim = experiments::simulate(config, |p| {
        let burst = if senders.contains(&p) { 4 } else { 0 };
        vec![Action::AbBroadcast(bytes::Bytes::from(vec![0x5a; 100])); burst]
    });
    let observer = sim.observer();
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
    if let Some(path) = &args.span_json {
        let spans = sim.metrics_snapshot(observer).spans;
        std::fs::write(path, ritas_metrics::spans_to_jsonl(&spans))?;
        eprintln!(
            "span dump written to {path} ({} spans from traced observer {observer})",
            spans.len()
        );
    }
    if let Some(prefix) = &args.cluster_span_json {
        for p in 0..config.n {
            let spans = sim.metrics_snapshot(p).spans;
            std::fs::write(
                format!("{prefix}-{p}.jsonl"),
                ritas_metrics::spans_to_jsonl(&spans),
            )?;
        }
        eprintln!(
            "cluster span dumps written to {prefix}-{{0..{}}}.jsonl",
            config.n - 1
        );
    }
    Ok(())
}

/// Writes `--metrics-json`: every simulated process's protocol metrics
/// over the whole experiment, aggregated in `args.metrics`.
fn write_metrics_dump(args: &Args) -> io::Result<()> {
    let Some(path) = &args.metrics_json else {
        return Ok(());
    };
    let snap = args.metrics.snapshot();
    if let Some(h) = snap.histogram("ab_latency_ns").filter(|h| h.count > 0) {
        eprintln!(
            "a-deliver latency across all runs: p50 {:.2} ms, p99 {:.2} ms over {} sample(s)",
            h.percentile(50.0) as f64 / 1e6,
            h.percentile(99.0) as f64 / 1e6,
            h.count
        );
    }
    std::fs::write(path, snap.to_json())?;
    eprintln!("metrics snapshot written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn deterministic_rows_are_exactly_the_committed_artifacts() {
        let rows: BTreeSet<String> = deterministic_rows().map(|e| e.stem.to_string()).collect();
        let committed: BTreeSet<String> = std::fs::read_dir(RESULTS_DIR)
            .unwrap()
            .map(|f| f.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_str().unwrap().to_string())
            .collect();
        assert_eq!(rows, committed);
        let names: BTreeSet<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), EXPERIMENTS.len(), "duplicate experiment name");
    }

    #[test]
    fn every_row_runs_under_quick() {
        let dir = Path::new("/nonexistent");
        for e in EXPERIMENTS {
            let mut out = Vec::new();
            cli(&argv(&[e.name, "--quick", "--runs", "1"]), dir, &mut out).unwrap();
            let out = String::from_utf8(out).unwrap();
            assert!(!out.is_empty(), "{} printed nothing", e.name);
            if matches!(e.name, "fig4" | "fig5" | "fig6") {
                // Both --quick message sizes carry their paper reference row.
                assert_eq!(out.matches("paper @ burst 1000").count(), 2, "{out}");
            }
        }
    }

    #[test]
    fn a_repeated_flag_overrides_the_canonical_one() {
        let e = EXPERIMENTS.iter().find(|e| e.name == "fig5").unwrap();
        let args = Args::parse(e.args.iter().copied().chain(["--runs", "7"])).unwrap();
        assert_eq!(args.runs, 7);
        assert_eq!(args.faultload, Faultload::FailStop { victim: 3 });
    }

    #[test]
    fn bad_command_lines_get_usage_and_exit_code_2() {
        let dir = Path::new("/nonexistent");
        for bad in [
            &[][..],
            &["fig8"],
            &["fig4", "--samples", "3"],
            &["fig4", "--runs"],
            &["fig4", "--runs", "many"],
            &["fig4", "--faultload", "gremlins"],
            &["check", "results"],
        ] {
            let mut out = Vec::new();
            let failure = cli(&argv(bad), dir, &mut out).unwrap_err();
            assert_eq!(failure.code, 2, "{bad:?}");
            assert!(failure.message.contains("usage: ritas-bench"), "{bad:?}");
            assert!(out.is_empty(), "{bad:?} printed an artifact");
        }
    }

    #[test]
    fn first_difference_is_a_one_based_line() {
        assert_eq!(first_differing_line(b"a\nb\nc\n", b"a\nB\nc\n"), 2);
        assert_eq!(first_differing_line(b"a\nb\n", b"a\nb\nc\n"), 3);
        assert_eq!(first_differing_line(b"a\nb", b"a\nb\n"), 3);
        assert_eq!(first_differing_line(b"", b"x"), 1);
    }

    /// One regeneration of every artifact: under ten seconds optimized,
    /// most of a minute not. That the untouched files pass is CI's
    /// `ritas-bench check` step over `results/` itself — and the "exactly
    /// one is stale" below.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "needs --release")]
    fn check_names_a_flipped_byte_and_nothing_else() {
        let dir = std::env::temp_dir().join(format!("ritas-bench-check-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        for e in deterministic_rows() {
            let name = format!("{}.txt", e.stem);
            std::fs::copy(Path::new(RESULTS_DIR).join(&name), dir.join(&name)).unwrap();
        }
        let victim = dir.join("fig7.txt");
        let mut bytes = std::fs::read(&victim).unwrap();
        let newlines = bytes.iter().enumerate().filter(|(_, b)| **b == b'\n');
        let third_line = newlines.map(|(at, _)| at + 1).nth(1).unwrap();
        bytes[third_line] ^= 1;
        std::fs::write(&victim, bytes).unwrap();
        let mut out = Vec::new();
        let failure = cli(&argv(&["check"]), &dir, &mut out).unwrap_err();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(failure.code, 1);
        let message = failure.message;
        assert!(message.contains("fig7.txt is stale at line 3"), "{message}");
        assert_eq!(message.matches("is stale").count(), 1, "{message}");
        assert!(out.is_empty());
    }
}
