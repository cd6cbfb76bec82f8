//! `ritas-bench <experiment> [flags] | list | regen | check` — every
//! table, figure, ablation and extension the repository quotes, from one
//! registry (`ritas_bench::EXPERIMENTS`).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let results = std::path::Path::new(ritas_bench::RESULTS_DIR);
    if let Err(failure) = ritas_bench::cli(&argv, results, &mut std::io::stdout().lock()) {
        eprintln!("{}", failure.message);
        std::process::exit(failure.code);
    }
}
