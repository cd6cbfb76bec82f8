//! Adversarial conformance matrix (headline suite).
//!
//! Runs every built-in Byzantine strategy against every delivery
//! schedule over a battery of seeds at `n = 4, f = 1`, on stacks of both
//! binary consensus profiles (the paper's and the lean one), with process
//! 3 corrupt and the paper's safety predicates (RB/EB agreement &
//! integrity, BC/MVC/VC agreement & validity, AB total order — see
//! `ritas::invariants`) checked after **every** scheduler step.
//!
//! Any violation panics with a single-line replay command that
//! reproduces the run bit-for-bit:
//!
//! ```text
//! cargo run --release -p ritas-sim --bin adversary_explorer -- \
//!     --n 4 --profiles <p> --strategies <s> --schedules <sch> \
//!     --seed-base <seed> --seeds 1 --max-steps <budget>
//! ```
//!
//! One `#[test]` per strategy so the matrix parallelizes across test
//! threads; together they cover the full 2 × 9 × 3 × 8 cross-product.

use ritas::adversary::explorer::{run_spec, shrink, sweep, RunSpec, SweepConfig};
use ritas::adversary::StrategyKind;
use ritas::bc::Profile;
use ritas::testing::Schedule;

/// Seeds per (strategy, schedule) cell.
const SEEDS: u64 = 8;

/// Per-run scheduler step budget; the workload drains far below this
/// (≈6k steps), so the budget only bounds runaway livelock.
const MAX_STEPS: u64 = 200_000;

/// Both binary consensus profiles.
const PROFILES: [Profile; 2] = [Profile::Paper, Profile::Lean];

/// Runs one strategy across the full profile × schedule × seed slice and
/// panics with replay commands on any safety violation.
fn run_strategy_matrix(strategy: StrategyKind) {
    let report = sweep(&SweepConfig {
        n: 4,
        profiles: PROFILES.to_vec(),
        strategies: vec![strategy],
        schedules: Schedule::ALL.to_vec(),
        seeds: (0..SEEDS).collect(),
        max_steps: MAX_STEPS,
        shrink: true,
    });
    assert_eq!(
        report.runs,
        2 * 3 * SEEDS,
        "matrix slice did not cover every (profile, schedule, seed) cell"
    );
    assert!(
        report.total_steps > 2 * 3 * SEEDS * 100,
        "workload barely ran ({} steps) — harness wiring is broken",
        report.total_steps
    );
    if !report.violations.is_empty() {
        let mut msg = format!(
            "{} safety violation(s) under strategy {strategy}:\n",
            report.violations.len()
        );
        for v in &report.violations {
            msg.push_str(&format!(
                "  [{} × {} × {} × seed {}] step {}: {}\n    replay: {}\n",
                v.spec.profile,
                v.spec.strategy,
                v.spec.schedule,
                v.spec.seed,
                v.step,
                v.violation,
                v.replay
            ));
        }
        panic!("{msg}");
    }
}

#[test]
fn matrix_equivocate() {
    run_strategy_matrix(StrategyKind::Equivocate);
}

#[test]
fn matrix_silence() {
    run_strategy_matrix(StrategyKind::Silence);
}

#[test]
fn matrix_biased_coin() {
    run_strategy_matrix(StrategyKind::BiasedCoin);
}

#[test]
fn matrix_conflicting_vectors() {
    run_strategy_matrix(StrategyKind::ConflictingVectors);
}

#[test]
fn matrix_stale_replay() {
    run_strategy_matrix(StrategyKind::StaleReplay);
}

#[test]
fn matrix_random_mutation() {
    run_strategy_matrix(StrategyKind::RandomMutation);
}

#[test]
fn matrix_round_ahead() {
    run_strategy_matrix(StrategyKind::RoundAhead);
}

#[test]
fn matrix_bv_split() {
    run_strategy_matrix(StrategyKind::BvSplit);
}

#[test]
fn matrix_ready_forge() {
    run_strategy_matrix(StrategyKind::ReadyForge);
}

/// The whole point of the harness: identical specs reproduce identical
/// runs, step for step — otherwise replay commands would be worthless.
#[test]
fn runs_replay_bit_for_bit() {
    for profile in PROFILES {
        for strategy in StrategyKind::ALL {
            let spec = RunSpec {
                n: 4,
                profile,
                strategy,
                schedule: Schedule::Random,
                seed: 99,
                max_steps: MAX_STEPS,
            };
            let a = run_spec(&spec);
            let b = run_spec(&spec);
            let what = format!("{profile} {strategy}");
            assert_eq!(a.steps, b.steps, "{what}: step counts diverged");
            assert_eq!(
                a.violation, b.violation,
                "{what}: outcomes diverged between identical specs"
            );
        }
    }
}

/// Exercises the violation-reporting path end to end without weakening
/// any real validation rule: a run cut off after a handful of steps
/// must leave the budget exhausted (not drained), and the shrinker plus
/// replay command must be stable and self-describing.
#[test]
fn budget_cutoff_and_replay_formatting() {
    let spec = RunSpec {
        n: 4,
        profile: Profile::Paper,
        strategy: StrategyKind::Equivocate,
        schedule: Schedule::Fifo,
        seed: 7,
        max_steps: 25,
    };
    let out = run_spec(&spec);
    assert_eq!(out.steps, 25, "budget should cut the run off");
    assert!(out.violation.is_none());
    let cmd = spec.replay_command();
    for needle in [
        "adversary_explorer",
        "--profiles paper",
        "--strategies equivocate",
        "--schedules fifo",
        "--seed-base 7",
        "--max-steps 25",
    ] {
        assert!(cmd.contains(needle), "{cmd:?} missing {needle:?}");
    }
}

/// Drives the shrinker against a synthetic always-violating predicate by
/// checking its contract on a clean spec: when no budget in range
/// violates, `shrink` converges to the top of the range; on a violating
/// spec (see the mutation-testing procedure in tests/README.md) it
/// converges to the first violating step because predicates are checked
/// after every step.
#[test]
fn shrinker_converges_on_clean_runs() {
    let spec = RunSpec {
        n: 4,
        profile: Profile::Lean,
        strategy: StrategyKind::Silence,
        schedule: Schedule::Lifo,
        seed: 3,
        max_steps: 64,
    };
    assert!(run_spec(&spec).violation.is_none());
    // With no violation anywhere in [1, 64], binary search must land on
    // the upper bound without panicking or looping.
    assert_eq!(shrink(&spec, 64), 64);
}
