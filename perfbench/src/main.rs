//! The repository's benchmark: four closed-loop workloads over the RITAS
//! stack, five end-to-end metrics from an untraced run, a per-layer
//! ledger from a traced run. See `README.md` beside this package and
//! `BENCHMARK.json` at the repository root.
//!
//! ```text
//! ritas-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0
//! unless an argument is wrong or the correctness oracle was violated.

mod fifo;
mod ledger;
mod load;
mod micro;
mod names;
mod node_load;
mod probe;
mod spans;
mod stack_burst;
mod stats;
mod svc_load;

use load::{ColdStart, PassSpec, Workload, WORKLOADS};
use probe::SpeedProbe;
use stats::Rng;
use std::process::ExitCode;

/// Where the traced run writes `trace-<workload>.jsonl`: inside this
/// package, wherever the benchmark is started from.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(load::workload(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse().ok().filter(|s| *s > 0.0).ok_or_else(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// `reps` cold starts, each under fresh keys.
fn cold_starts(w: &Workload, reps: usize, rng: &mut Rng) -> Vec<ColdStart> {
    (0..reps).map(|_| (w.setup_once)(rng.next_u64())).collect()
}

fn unit_of(name: &str) -> &'static str {
    names::END_TO_END
        .iter()
        .chain(&names::PER_LAYER)
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} is not in names.rs"))
        .1
}

/// Prints the metrics by name and unit, then the result line.
fn report(metrics: &[(&str, f64)], attempted: u64, failed: u64, violations: &[String]) -> ExitCode {
    let mut json = String::new();
    for (name, value) in metrics {
        let unit = unit_of(name);
        println!("  {name:<32}{value:>16.4} {unit}");
        if !json.is_empty() {
            json.push_str(", ");
        }
        json += &format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    println!(
        "  ops_attempted {attempted}  ops_failed {failed}  fail_share {}",
        failed as f64 / attempted.max(1) as f64
    );
    for v in violations {
        println!("  ORACLE VIOLATION: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{json}}}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn untraced(args: &Args) -> ExitCode {
    let w = args.workload;
    let probe = SpeedProbe::start();
    // Half the cold starts before the pass and half after it: a second of
    // cold starts in a row sees one state of the box only.
    let mut rng = Rng::new(args.seed);
    let started = std::time::Instant::now();
    let mut cold = cold_starts(w, w.setup_reps / 2, &mut rng);
    let spec = PassSpec::sized(w, args.seconds, stats::SEGMENTS, args.seed);
    let pass = load::run_pass(w, &spec);
    let rss_peak_mb = stats::rss_peak_mib();
    cold.extend(cold_starts(w, w.setup_reps - w.setup_reps / 2, &mut rng));
    let timeline = probe.finish();

    let segments = pass.clock.segments(&timeline);
    let (probes, quiet_ns, median_ns) = timeline.summary();
    println!(
        "  measured {} ops in {:.2} s between {} cold starts; {} latency samples; {:.2} s in all",
        pass.measured_ops(),
        pass.clock.wall_seconds(),
        w.setup_reps,
        pass.latencies.len(),
        started.elapsed().as_secs_f64(),
    );
    println!(
        "  core speed: {probes} probes, fastest tenth {quiet_ns:.0} ns, median {median_ns:.0} ns, \
         reference {} ns",
        probe::REFERENCE_NS
    );
    let column = |f: fn(&stats::Segment) -> f64| segments.iter().map(f).collect::<Vec<_>>();
    println!(
        "  segment ops/s as measured {:.1?}",
        column(|s| s.ops_per_s)
    );
    println!(
        "  segment CPU-us/op as measured {:.1?}",
        column(|s| s.cpu_us_per_op)
    );
    let p50s: Vec<f64> = stats::segment_p50s_ms(&pass.latencies)
        .iter()
        .map(|p| p.1)
        .collect();
    println!("  segment p50 ms as measured {p50s:.3?}");
    println!("  segment core slow-down {:.3?}", column(|s| s.slowdown));
    let as_measured: Vec<f64> = cold.iter().map(ColdStart::seconds).collect();
    println!(
        "  as measured (median segment, median cold start): {:.1} ops/s, {:.1} CPU-us/op, set-up {:.6} s",
        stats::median(&column(|s| s.ops_per_s)),
        stats::median(&column(|s| s.cpu_us_per_op)),
        stats::median(&as_measured),
    );
    let at_reference: Vec<f64> = cold
        .iter()
        .map(|c| c.seconds_at_reference(&timeline))
        .collect();
    let metrics = [
        ("setup_s", stats::typical(&at_reference)),
        ("ops_per_s", pass.ops_per_s(&timeline)),
        ("cpu_us_per_op", pass.cpu_us_per_op(&timeline)),
        ("p50_ms", pass.p50_ms(&timeline)),
        ("rss_peak_mb", rss_peak_mb),
    ];
    report(&metrics, pass.attempted, pass.failed, &pass.violations)
}

fn traced(args: &Args) -> ExitCode {
    let w = args.workload;
    let mut t = ledger::run(w, args.seconds, args.seed);
    print!("{}", t.table);
    let path = std::path::Path::new(TRACE_DIR).join(format!("trace-{}.jsonl", w.name));
    let written = std::fs::create_dir_all(TRACE_DIR)
        .and_then(|()| std::fs::File::create(&path))
        .and_then(|f| t.spans.write_jsonl(std::io::BufWriter::new(f)));
    match written {
        Ok((kept, dropped)) => println!(
            "  {}: {kept} spans written, {dropped} more in the aggregates only",
            path.display()
        ),
        Err(e) => t.violations.push(format!("{}: {e}", path.display())),
    }
    // In the order names.rs (and BENCHMARK.json) lists them.
    let metrics: Vec<(&str, f64)> = names::PER_LAYER
        .iter()
        .filter_map(|(name, _)| t.metrics.iter().find(|m| m.0 == *name).copied())
        .collect();
    if metrics.len() != names::PER_LAYER.len() {
        t.violations
            .push("a per-layer metric was not measured".into());
    }
    report(&metrics, t.attempted, t.failed, &t.violations)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            eprintln!(
                "{e}\nusage: ritas-perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    println!(
        "workload {} seed {} seconds {} trace {} ({} cpus)",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    // The program under test lives on one CPU (see probe.rs); so does
    // this thread, until a workload moves it to the generator's.
    probe::pin_to(probe::PROGRAM_CPU);
    if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    }
}
