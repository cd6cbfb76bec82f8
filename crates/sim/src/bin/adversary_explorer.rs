//! Standalone adversarial conformance sweeps — the out-of-test-runner
//! face of `ritas::adversary::explorer`, for long strategy × schedule ×
//! seed campaigns and for replaying violations found by CI or the test
//! matrix.
//!
//! ```text
//! adversary_explorer [--n N] [--profiles all|paper,lean]
//!                    [--strategies all|s1,s2,...]
//!                    [--schedules all|random,fifo,lifo]
//!                    [--seed-base B] [--seeds K] [--max-steps S]
//!                    [--no-shrink] [--trace-out FILE]
//!                    [--forensics-dir DIR]
//! ```
//!
//! Runs the cross-product of the requested binary consensus profiles,
//! strategies, schedules and the seeds `B..B+K`, checking every safety predicate of the paper after
//! every scheduler step. Exits 0 when all runs are clean; on violation it
//! prints one replay command per failing run, writes the full trace to
//! `--trace-out` (if given), re-runs each violating spec to write
//! per-process span dumps and flight-recorder rings under
//! `--forensics-dir` (if given), and exits 1. Usage errors exit 2.

use ritas::adversary::explorer::{sweep, write_forensics, SweepConfig};
use ritas::adversary::StrategyKind;
use ritas::bc::Profile;
use ritas::testing::Schedule;
use std::io::Write;

struct Options {
    cfg: SweepConfig,
    trace_out: Option<String>,
    forensics_dir: Option<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: adversary_explorer [--n N] [--profiles all|LIST] [--strategies all|LIST] \
         [--schedules all|LIST] \
         [--seed-base B] [--seeds K] [--max-steps S] [--no-shrink] [--trace-out FILE] \
         [--forensics-dir DIR]"
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut n = 4usize;
    let mut profiles = vec![Profile::Paper, Profile::Lean];
    let mut strategies = StrategyKind::ALL.to_vec();
    let mut schedules = Schedule::ALL.to_vec();
    let mut seed_base = 0u64;
    let mut seeds = 8u64;
    let mut max_steps = 200_000u64;
    let mut shrink = true;
    let mut trace_out = None;
    let mut forensics_dir = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{what} needs a value")))
        };
        match arg.as_str() {
            "--n" => {
                n = value("--n").parse().unwrap_or_else(|_| usage("bad --n"));
                if n < 4 {
                    usage("--n must be at least 4");
                }
            }
            "--profiles" => {
                let v = value("--profiles");
                if v != "all" {
                    profiles = v
                        .split(',')
                        .map(|s| s.parse().unwrap_or_else(|e: String| usage(&e)))
                        .collect();
                }
            }
            "--strategies" => {
                let v = value("--strategies");
                if v != "all" {
                    strategies = v
                        .split(',')
                        .map(|s| s.parse().unwrap_or_else(|e: String| usage(&e)))
                        .collect();
                }
            }
            "--schedules" => {
                let v = value("--schedules");
                if v != "all" {
                    schedules = v
                        .split(',')
                        .map(|s| s.parse().unwrap_or_else(|e: String| usage(&e)))
                        .collect();
                }
            }
            "--seed-base" => {
                seed_base = value("--seed-base")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seed-base"));
            }
            "--seeds" => {
                seeds = value("--seeds")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --seeds"));
                if seeds == 0 {
                    usage("--seeds must be positive");
                }
            }
            "--max-steps" => {
                max_steps = value("--max-steps")
                    .parse()
                    .unwrap_or_else(|_| usage("bad --max-steps"));
            }
            "--no-shrink" => shrink = false,
            "--trace-out" => trace_out = Some(value("--trace-out")),
            "--forensics-dir" => forensics_dir = Some(value("--forensics-dir")),
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Options {
        cfg: SweepConfig {
            n,
            profiles,
            strategies,
            schedules,
            seeds: (seed_base..seed_base + seeds).collect(),
            max_steps,
            shrink,
        },
        trace_out,
        forensics_dir,
    }
}

fn main() {
    let opts = parse_args();
    let cfg = &opts.cfg;
    eprintln!(
        "sweeping {} profiles × {} strategies × {} schedules × {} seeds at n={} \
         (budget {} steps/run)",
        cfg.profiles.len(),
        cfg.strategies.len(),
        cfg.schedules.len(),
        cfg.seeds.len(),
        cfg.n,
        cfg.max_steps
    );
    let report = sweep(cfg);
    eprintln!(
        "{} runs, {} scheduler steps, {} violation(s)",
        report.runs,
        report.total_steps,
        report.violations.len()
    );
    if report.violations.is_empty() {
        return;
    }
    let mut trace = String::new();
    for v in &report.violations {
        let line = format!(
            "VIOLATION [{} × {} × {} × seed {}] at step {}{}: {}\n  replay: {}",
            v.spec.profile,
            v.spec.strategy,
            v.spec.schedule,
            v.spec.seed,
            v.step,
            v.shrunk_steps
                .map(|s| format!(" (shrunk budget {s})"))
                .unwrap_or_default(),
            v.violation,
            v.replay
        );
        println!("{line}");
        trace.push_str(&line);
        trace.push('\n');
    }
    if let Some(path) = &opts.trace_out {
        match std::fs::File::create(path).and_then(|mut f| f.write_all(trace.as_bytes())) {
            Ok(()) => eprintln!("trace written to {path}"),
            Err(e) => eprintln!("failed to write trace to {path}: {e}"),
        }
    }
    if let Some(dir) = &opts.forensics_dir {
        // Re-run each violating spec deterministically and leave a
        // per-process post-mortem: span dumps joinable by
        // `ritas-trace --cluster` plus the flight-recorder rings.
        for v in &report.violations {
            let sub = std::path::Path::new(dir).join(format!(
                "{}-{}-{}-seed{}",
                v.spec.profile, v.spec.strategy, v.spec.schedule, v.spec.seed
            ));
            match write_forensics(&v.spec, &sub) {
                Ok(paths) => eprintln!(
                    "forensics: {} artifact(s) in {}",
                    paths.len(),
                    sub.display()
                ),
                Err(e) => eprintln!("forensics: failed for {}: {e}", sub.display()),
            }
        }
    }
    std::process::exit(1);
}
