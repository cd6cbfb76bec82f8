//! Deterministic (strategy × schedule × seed) conformance explorer.
//!
//! Each point of the cross-product is a [`RunSpec`]: one corrupt process
//! running a [`super::StrategyKind`] against a standard workload that
//! exercises every layer of the stack (RB, EB, BC, MVC, VC, AB) inside a
//! seeded [`Cluster`] of either [`Profile`], under one delivery
//! [`Schedule`]. The paper's
//! safety predicates ([`InvariantChecker`]) are checked after **every**
//! scheduler step, so the first violating step is also the minimal step
//! budget that exposes the bug.
//!
//! A run is a pure function of its spec — no wall clock, no OS
//! randomness — so any violation comes with a single replay command
//! ([`RunSpec::replay_command`]) that reproduces it bit-for-bit, and
//! [`shrink`] binary-searches the smallest step budget that still fails.

use super::StrategyKind;
use crate::bc::Profile;
use crate::invariants::{InvariantChecker, Violation};
use crate::testing::{Cluster, Schedule};
use bytes::Bytes;

/// One fully determined adversarial run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunSpec {
    /// Group size (the corrupt process is always `n − 1`).
    pub n: usize,
    /// Which binary consensus every stack runs.
    pub profile: Profile,
    /// The Byzantine strategy under test.
    pub strategy: StrategyKind,
    /// The delivery schedule.
    pub schedule: Schedule,
    /// Seed for keys, stack coins, scheduler and strategy.
    pub seed: u64,
    /// Maximum scheduler steps before the run is cut off.
    pub max_steps: u64,
}

impl RunSpec {
    /// The single-line command that reproduces this run bit-for-bit.
    pub fn replay_command(&self) -> String {
        format!(
            "cargo run --release -p ritas-sim --bin adversary_explorer -- \
             --n {} --profiles {} --strategies {} --schedules {} --seed-base {} --seeds 1 \
             --max-steps {}",
            self.n, self.profile, self.strategy, self.schedule, self.seed, self.max_steps
        )
    }
}

/// What one run produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Scheduler steps actually executed (≤ `max_steps`; smaller when the
    /// network drained).
    pub steps: u64,
    /// The first safety violation, with the step that exposed it.
    pub violation: Option<(u64, Violation)>,
}

/// Installs the standard all-layer workload: every process broadcasts /
/// proposes, the attacker included (so sender-side equivocation has an
/// instance to corrupt), and the checker learns what the *correct*
/// processes actually said.
fn seed_workload(cluster: &mut Cluster, checker: &mut InvariantChecker, attacker: usize) {
    let n = cluster.n();
    // Reliable + echo broadcasts: one correct sender each, plus the
    // attacker as a sender of both (its instances get no integrity
    // expectation — it may say anything; agreement must still hold).
    let payload = Bytes::from_static(b"rb-conformance");
    let (key, step) = cluster.stack_mut(0).rb_broadcast(payload.clone());
    checker.expect_broadcast(key, payload);
    cluster.absorb(0, step);
    let payload = Bytes::from_static(b"eb-conformance");
    let (key, step) = cluster.stack_mut(1).eb_broadcast(payload.clone());
    checker.expect_broadcast(key, payload);
    cluster.absorb(1, step);
    let (_, step) = cluster
        .stack_mut(attacker)
        .rb_broadcast(Bytes::from_static(b"rb-evil"));
    cluster.absorb(attacker, step);
    let (_, step) = cluster
        .stack_mut(attacker)
        .eb_broadcast(Bytes::from_static(b"eb-evil"));
    cluster.absorb(attacker, step);

    // One consensus instance per layer, all processes proposing.
    for p in 0..n {
        let value = p % 2 == 0;
        let step = cluster
            .stack_mut(p)
            .bc_propose(1, value)
            .expect("fresh tag");
        if p != attacker {
            checker.expect_bc(1, p, value);
        }
        cluster.absorb(p, step);
    }
    for p in 0..n {
        // A common value so MVC has a decidable non-⊥ candidate.
        let value = Bytes::from_static(b"mvc-conformance");
        let step = cluster
            .stack_mut(p)
            .mvc_propose(2, value.clone())
            .expect("fresh tag");
        if p != attacker {
            checker.expect_mvc(2, p, Some(value));
        }
        cluster.absorb(p, step);
    }
    for p in 0..n {
        let value = Bytes::from(format!("vc-prop-{p}"));
        let step = cluster
            .stack_mut(p)
            .vc_propose(3, value.clone())
            .expect("fresh tag");
        if p != attacker {
            checker.expect_vc(3, p, value);
        }
        cluster.absorb(p, step);
    }

    // Atomic broadcast: two correct senders and the attacker, three
    // commands each. The first command per sender flushes immediately
    // (idle trigger); the rest queue behind the in-flight window and
    // travel as a multi-command batch, so every strategy here attacks
    // the *batched* dissemination path and the total-order invariant is
    // checked over batch contents (per-command deliveries), not just
    // batch ids.
    for p in [0, n - 2, attacker] {
        for i in 0..3 {
            let payload = Bytes::from(format!("ab-msg-{p}-{i}"));
            let (id, step) = cluster.stack_mut(p).ab_broadcast(0, payload.clone());
            if p != attacker {
                checker.expect_ab(id, payload);
            }
            cluster.absorb(p, step);
        }
    }
}

/// The cluster of one run — `profile` stacks, process `n − 1` corrupt,
/// running `strategy` if one is given, the standard workload in flight —
/// and the checker that knows what the correct processes said.
fn prepare(
    n: usize,
    profile: Profile,
    schedule: Schedule,
    seed: u64,
    strategy: Option<StrategyKind>,
) -> (Cluster, InvariantChecker) {
    let attacker = n - 1;
    let mut cluster = Cluster::with_profile(n, seed, profile);
    cluster.set_schedule(schedule);
    if let Some(strategy) = strategy {
        cluster.set_strategy(attacker, strategy.build(seed ^ 0xAD5E_CA11));
    }
    let mut checker = InvariantChecker::new(n);
    checker.mark_corrupt(attacker);
    seed_workload(&mut cluster, &mut checker, attacker);
    (cluster, checker)
}

/// Re-runs `spec` deterministically (no invariant checking — the
/// violation is already known) and writes per-process post-mortem
/// artifacts to `dir`: span dumps (`spans-{p}.jsonl`, readable by
/// `ritas-trace --cluster`) and flight-recorder rings
/// (`flight-{p}.bin`). Returns the paths written.
///
/// # Errors
///
/// Propagates filesystem errors creating `dir` or writing artifacts.
pub fn write_forensics(
    spec: &RunSpec,
    dir: &std::path::Path,
) -> std::io::Result<Vec<std::path::PathBuf>> {
    let (mut cluster, _) = spec_cluster(spec);
    let mut steps = 0u64;
    while steps < spec.max_steps && cluster.step() {
        steps += 1;
    }
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    for p in 0..spec.n {
        let m = cluster.metrics(p);
        let span_path = dir.join(format!("spans-{p}.jsonl"));
        std::fs::write(&span_path, ritas_metrics::spans_to_jsonl(&m.spans()))?;
        written.push(span_path);
        let flight_path = dir.join(format!("flight-{p}.bin"));
        std::fs::write(&flight_path, m.flight().encode())?;
        written.push(flight_path);
    }
    Ok(written)
}

fn spec_cluster(spec: &RunSpec) -> (Cluster, InvariantChecker) {
    let strategy = Some(spec.strategy);
    prepare(spec.n, spec.profile, spec.schedule, spec.seed, strategy)
}

/// Executes one run: builds the cluster, installs the strategy on
/// process `n − 1`, seeds the workload, then steps the scheduler under
/// the budget, checking every safety predicate after each step.
pub fn run_spec(spec: &RunSpec) -> RunOutcome {
    let (mut cluster, mut checker) = spec_cluster(spec);
    if let Err(v) = checker.check_cluster(&cluster) {
        return RunOutcome {
            steps: 0,
            violation: Some((0, v)),
        };
    }
    let mut steps = 0u64;
    while steps < spec.max_steps {
        if !cluster.step() {
            break;
        }
        steps += 1;
        if let Err(v) = checker.check_cluster(&cluster) {
            return RunOutcome {
                steps,
                violation: Some((steps, v)),
            };
        }
    }
    RunOutcome {
        steps,
        violation: None,
    }
}

/// Binary-searches the smallest step budget in `[1, violating_step]`
/// that still reproduces a violation of `spec` (determinism makes the
/// predicate monotone in the budget). Returns that minimal budget.
pub fn shrink(spec: &RunSpec, violating_step: u64) -> u64 {
    let (mut lo, mut hi) = (1u64, violating_step.max(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let probe = RunSpec {
            max_steps: mid,
            ..*spec
        };
        if run_spec(&probe).violation.is_some() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// The cross-product a sweep covers.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Group size.
    pub n: usize,
    /// Profiles to run.
    pub profiles: Vec<Profile>,
    /// Strategies to run.
    pub strategies: Vec<StrategyKind>,
    /// Schedules to run.
    pub schedules: Vec<Schedule>,
    /// Seeds to run.
    pub seeds: Vec<u64>,
    /// Per-run step budget.
    pub max_steps: u64,
    /// Whether to shrink each violation to its minimal budget.
    pub shrink: bool,
}

/// One violating run, ready to report.
#[derive(Debug, Clone)]
pub struct ViolationReport {
    /// The run that failed.
    pub spec: RunSpec,
    /// The step at which the first predicate broke.
    pub step: u64,
    /// Minimal reproducing budget, when shrinking was requested.
    pub shrunk_steps: Option<u64>,
    /// The violated predicate.
    pub violation: Violation,
    /// The single-line replay command (already at the minimal budget if
    /// shrinking ran).
    pub replay: String,
}

/// Aggregate result of a sweep.
#[derive(Debug, Clone, Default)]
pub struct SweepReport {
    /// Runs executed.
    pub runs: u64,
    /// Scheduler steps executed across all runs.
    pub total_steps: u64,
    /// Every violating run, in sweep order.
    pub violations: Vec<ViolationReport>,
}

/// Sweeps the full cross-product, collecting every violation.
pub fn sweep(cfg: &SweepConfig) -> SweepReport {
    let mut report = SweepReport::default();
    for profile in &cfg.profiles {
        for strategy in &cfg.strategies {
            for schedule in &cfg.schedules {
                for seed in &cfg.seeds {
                    let spec = RunSpec {
                        n: cfg.n,
                        profile: *profile,
                        strategy: *strategy,
                        schedule: *schedule,
                        seed: *seed,
                        max_steps: cfg.max_steps,
                    };
                    report.run(&spec, cfg.shrink);
                }
            }
        }
    }
    report
}

impl SweepReport {
    /// Runs `spec` into this report.
    fn run(&mut self, spec: &RunSpec, shrink_violations: bool) {
        let outcome = run_spec(spec);
        self.runs += 1;
        self.total_steps += outcome.steps;
        if let Some((step, violation)) = outcome.violation {
            let shrunk_steps = shrink_violations.then(|| shrink(spec, step));
            let replay_spec = RunSpec {
                max_steps: shrunk_steps.unwrap_or(step),
                ..*spec
            };
            self.violations.push(ViolationReport {
                spec: *spec,
                step,
                shrunk_steps,
                violation,
                replay: replay_spec.replay_command(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stack::Output;

    fn spec(strategy: StrategyKind, seed: u64) -> RunSpec {
        RunSpec {
            n: 4,
            profile: Profile::Paper,
            strategy,
            schedule: Schedule::Random,
            seed,
            max_steps: 200_000,
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let s = spec(StrategyKind::Equivocate, 3);
        let a = run_spec(&s);
        let b = run_spec(&s);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.violation.is_some(), b.violation.is_some());
    }

    #[test]
    fn replay_command_carries_the_full_spec() {
        let s = spec(StrategyKind::ConflictingVectors, 17);
        let cmd = s.replay_command();
        for needle in [
            "--n 4",
            "--profiles paper",
            "--strategies conflicting-vectors",
            "--schedules random",
            "--seed-base 17",
            "--max-steps 200000",
        ] {
            assert!(cmd.contains(needle), "{cmd:?} missing {needle:?}");
        }
    }

    #[test]
    fn workload_terminates_without_a_strategy_interfering() {
        // Sanity: the standard workload drains well within the budget on
        // an honest-but-silent adversary slot (random mutation can drop
        // everything, so use the weakest strategy here).
        for profile in [Profile::Paper, Profile::Lean] {
            let out = run_spec(&RunSpec {
                profile,
                ..spec(StrategyKind::Silence, 1)
            });
            assert!(out.violation.is_none(), "violation: {:?}", out.violation);
            assert!(
                out.steps > 100,
                "workload actually ran ({} steps)",
                out.steps
            );
            assert!(out.steps < 200_000, "drained before the budget");
        }
    }

    /// Runs the standard workload on `profile` stacks to quiescence
    /// (attacker slot = 3, optionally with a strategy installed there).
    fn drained_cluster(
        profile: Profile,
        strategy: Option<StrategyKind>,
        schedule: Schedule,
        seed: u64,
    ) -> Cluster {
        let (mut cluster, _) = prepare(4, profile, schedule, seed, strategy);
        let mut steps = 0u64;
        while steps < 200_000 && cluster.step() {
            steps += 1;
        }
        cluster
    }

    /// Per-peer suspicion totals of one run, summed over the three
    /// correct processes.
    fn suspicion_totals(profile: Profile, strategy: Option<StrategyKind>, seed: u64) -> [u64; 4] {
        let cluster = drained_cluster(profile, strategy, Schedule::Random, seed);
        let mut totals = [0u64; 4];
        for p in 0..3 {
            for s in cluster.metrics(p).suspicions() {
                totals[s.peer as usize] += s.total();
            }
        }
        totals
    }

    /// Quiet deciders woken across the three correct processes.
    fn courtesy_rounds(cluster: &Cluster) -> u64 {
        (0..3)
            .map(|p| cluster.metrics(p).snapshot().counter("bc_courtesy_rounds"))
            .sum()
    }

    /// Every decision of the workload and every correct sender's three
    /// commands at each correct process: the checker guards safety only.
    fn assert_workload_finished(cluster: &Cluster, what: &str) {
        for p in 0..3 {
            let count = |f: fn(&Output) -> bool| cluster.outputs(p).iter().filter(|o| f(o)).count();
            let what = format!("{what} process {p}");
            assert_eq!(
                count(|o| matches!(o, Output::BcDecided { .. })),
                1,
                "{what}"
            );
            assert_eq!(
                count(|o| matches!(o, Output::MvcDecided { .. })),
                1,
                "{what}"
            );
            assert_eq!(
                count(|o| matches!(o, Output::VcDecided { .. })),
                1,
                "{what}"
            );
            assert!(
                count(|o| matches!(o, Output::AbDelivered { .. })) >= 6,
                "{what}"
            );
        }
    }

    #[test]
    fn round_ahead_wakes_deciders_nobody_else_would() {
        // Failure-free, the workload's four binary consensus instances
        // (standalone, under MVC, VC and AB) decide together and stay
        // quiet under every schedule; in the matrix cells of the
        // partial-wake mode a late ask makes correct deciders run the
        // extra round.
        for (seed, schedule) in Schedule::sweep(0..8) {
            let quiet = drained_cluster(Profile::Paper, None, schedule, seed);
            assert_eq!(courtesy_rounds(&quiet), 0, "seed {seed} {schedule}");
        }
        let mut woken = 0;
        for (seed, schedule) in Schedule::sweep(0..8) {
            let strategy = Some(StrategyKind::RoundAhead);
            let cluster = drained_cluster(Profile::Paper, strategy, schedule, seed);
            woken += courtesy_rounds(&cluster);
            // The rule under attack is a liveness rule.
            assert_workload_finished(&cluster, &format!("seed {seed} {schedule}"));
        }
        assert!(woken > 0, "no round-ahead cell woke a decider");
    }

    #[test]
    fn the_lean_workload_finishes_under_every_strategy() {
        // The lean consensus's liveness rests on BV-broadcast totality
        // and on deciders answering with TERM; no strategy of one
        // attacker may stall either.
        for strategy in StrategyKind::ALL {
            for (seed, schedule) in Schedule::sweep(0..2) {
                let cluster = drained_cluster(Profile::Lean, Some(strategy), schedule, seed);
                assert_workload_finished(&cluster, &format!("{strategy} seed {seed} {schedule}"));
            }
        }
    }

    #[test]
    fn failure_free_runs_report_zero_suspicions() {
        // The conformance counters must be silent when nobody misbehaves
        // — an honest-but-empty attacker slot produces no evidence.
        assert_eq!(suspicion_totals(Profile::Paper, None, 11), [0; 4]);
        assert_eq!(suspicion_totals(Profile::Lean, None, 11), [0; 4]);
    }

    #[test]
    fn corrupt_strategies_make_the_attacker_the_top_suspect() {
        // Split attribution is evidence, not proof: an equivocating
        // sender or a lying relay drags honest conflict endpoints into
        // the suspect set. The guarantee is therefore ranked, not exact —
        // the corrupt peer accumulates strictly more suspicions across
        // the correct processes than any honest peer.
        //
        // Silence is exempt: a silent process sends nothing invalid, so
        // there is no conformance evidence to count. Its signature is
        // absence — stalled instances — which the health watchdog and
        // cluster trace correlation surface instead.
        for strategy in [
            StrategyKind::Equivocate,
            StrategyKind::BiasedCoin,
            StrategyKind::ConflictingVectors,
            StrategyKind::StaleReplay,
            StrategyKind::RandomMutation,
        ] {
            let totals = suspicion_totals(Profile::Paper, Some(strategy), 5);
            assert!(
                totals[3] > 0,
                "{strategy:?}: attacker never suspected: {totals:?}"
            );
            for peer in 0..3 {
                assert!(
                    totals[3] > totals[peer],
                    "{strategy:?}: attacker not the top suspect: {totals:?}"
                );
            }
        }
    }

    #[test]
    fn forged_readies_convict_the_forger_alone() {
        // Every lie of `ready-forge` is the attacker's own: an unbacked
        // or foreign digest READY, a digest READY contradicting its
        // earlier one, a body that fails decoding. The lean workload
        // finishes (the_lean_workload_finishes_under_every_strategy), and
        // only the forger collects evidence.
        for seed in 0..3 {
            let totals = suspicion_totals(Profile::Lean, Some(StrategyKind::ReadyForge), seed);
            assert!(totals[3] > 0, "seed {seed}: forger never suspected");
            assert_eq!(totals[..3], [0; 3], "seed {seed}: an honest peer suspected");
        }
    }
}
