//! Figures 4–6 — atomic broadcast burst latency and throughput.
//!
//! Reproduces §4.2: on a signal, each participating process atomically
//! broadcasts a burst of `k / senders` messages of `m` bytes; the burst
//! latency `L_burst` is the interval, at one process, between the signal
//! and the delivery of the last message; the throughput is `k / L_burst`.
//! Each point averages several runs (the paper uses 10).

use crate::cluster::{Action, SimCluster, SimConfig};
use crate::faults::Faultload;
use crate::stats::mean;
use bytes::Bytes;

/// One measured point of a latency/throughput curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstPoint {
    /// Total burst size `k` actually transmitted.
    pub burst: usize,
    /// Average burst latency, milliseconds.
    pub latency_ms: f64,
    /// Average throughput, messages per second.
    pub throughput_msgs_per_sec: f64,
    /// Average agreements used per burst (observer's count).
    pub agreements: f64,
}

/// A latency/throughput curve for one message size.
#[derive(Debug, Clone, PartialEq)]
pub struct BurstSeries {
    /// Message payload size `m`, bytes.
    pub msg_size: usize,
    /// The faultload the series ran under.
    pub faultload: Faultload,
    /// Points, ordered by burst size.
    pub points: Vec<BurstPoint>,
}

/// Runs one burst and returns `(k_actual, latency_ns, agreements)`.
pub fn run_burst_once(
    faultload: Faultload,
    msg_size: usize,
    burst: usize,
    seed: u64,
) -> (usize, u64, u64) {
    let config = SimConfig::paper_testbed(seed).with_faultload(faultload);
    let n = config.n;
    let mut sim = SimCluster::new(config);
    let senders = faultload.senders(n);
    let share = (burst / senders.len()).max(1);
    let k_actual = share * senders.len();
    let payload = Bytes::from(vec![0x5a; msg_size]);
    for &p in &senders {
        for _ in 0..share {
            sim.schedule(0, p, Action::AbBroadcast(payload.clone()));
        }
    }
    sim.run();
    let observer = sim.observer();
    let times = sim.ab_delivery_times(observer);
    assert_eq!(
        times.len(),
        k_actual,
        "observer delivered {} of {k_actual} messages",
        times.len()
    );
    let latency = *times.last().expect("k >= 1");
    let agreements = sim
        .stack(observer)
        .ab(0)
        .map(|ab| ab.stats().agreements)
        .unwrap_or(0);
    (k_actual, latency, agreements)
}

/// Runs the full figure: one series per message size, one point per
/// burst size, `runs` runs averaged per point.
pub fn run_ab_burst(
    faultload: Faultload,
    msg_sizes: &[usize],
    bursts: &[usize],
    runs: usize,
    base_seed: u64,
) -> Vec<BurstSeries> {
    msg_sizes
        .iter()
        .map(|&msg_size| BurstSeries {
            msg_size,
            faultload,
            points: bursts
                .iter()
                .map(|&burst| {
                    let mut latencies = Vec::with_capacity(runs);
                    let mut throughputs = Vec::with_capacity(runs);
                    let mut agreements = Vec::with_capacity(runs);
                    for i in 0..runs {
                        let seed = base_seed
                            .wrapping_add((burst as u64) << 20)
                            .wrapping_add(msg_size as u64)
                            .wrapping_add(i as u64 * 104729);
                        let (k, ns, ag) = run_burst_once(faultload, msg_size, burst, seed);
                        let secs = ns as f64 / 1e9;
                        latencies.push(ns as f64 / 1e6);
                        throughputs.push(k as f64 / secs);
                        agreements.push(ag as f64);
                    }
                    BurstPoint {
                        burst,
                        latency_ms: mean(&latencies),
                        throughput_msgs_per_sec: mean(&throughputs),
                        agreements: mean(&agreements),
                    }
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_free_small_burst() {
        let (k, ns, ag) = run_burst_once(Faultload::FailureFree, 10, 8, 1);
        assert_eq!(k, 8);
        assert!(ns > 0);
        assert!(ag >= 1);
    }

    #[test]
    fn latency_grows_with_burst_size() {
        let (_, small, _) = run_burst_once(Faultload::FailureFree, 10, 8, 2);
        let (_, large, _) = run_burst_once(Faultload::FailureFree, 10, 64, 2);
        assert!(large > small, "64-burst ({large}) vs 8-burst ({small})");
    }

    #[test]
    fn larger_messages_are_slower() {
        let (_, small, _) = run_burst_once(Faultload::FailureFree, 10, 16, 3);
        let (_, large, _) = run_burst_once(Faultload::FailureFree, 10_000, 16, 3);
        assert!(large > 2 * small, "10KB ({large}) vs 10B ({small})");
    }

    #[test]
    fn fail_stop_is_not_slower_than_failure_free() {
        // §4.2: "performance is noticeably better with one fail-stop
        // process … less contention". Allow a small tolerance.
        let (_, ff, _) = run_burst_once(Faultload::FailureFree, 100, 60, 4);
        let (_, fs, _) = run_burst_once(Faultload::FailStop { victim: 3 }, 100, 60, 4);
        assert!(
            (fs as f64) < (ff as f64) * 1.10,
            "fail-stop {fs} vs failure-free {ff}"
        );
    }

    #[test]
    fn byzantine_is_close_to_failure_free() {
        // §4.2: "performance is basically immune from the attacks".
        //
        // A single (ff, byz) seed pair is flaky: the randomized binary
        // consensus inside AB makes per-run latency noisy, and one
        // unlucky coin sequence on the Byzantine side can push an
        // individual ratio past any tight bound without contradicting
        // the paper's claim (which is about averages — it runs 10
        // repeats per point). So: average each side over a fixed set of
        // pinned seeds (fully deterministic — no flakiness, just less
        // variance), and bound the averaged ratio at 2.0. "Immune" in
        // the paper means no blow-up (an adversary cannot force
        // unbounded extra rounds), not bit-identical latency; a genuine
        // regression (e.g. the attacker stalling consensus) shows up as
        // a 10x+ ratio, far above the bound, while coin noise on
        // 3-seed averages stays well below it.
        const SEEDS: [u64; 3] = [5, 105, 205];
        let avg = |fl: Faultload| -> f64 {
            let total: u64 = SEEDS.iter().map(|&s| run_burst_once(fl, 10, 40, s).1).sum();
            total as f64 / SEEDS.len() as f64
        };
        let ff = avg(Faultload::FailureFree);
        let byz = avg(Faultload::Byzantine { attacker: 3 });
        let ratio = byz / ff;
        assert!(
            ratio < 2.0,
            "byzantine {byz:.0} vs failure-free {ff:.0} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn few_agreements_per_burst() {
        let (_, _, ag) = run_burst_once(Faultload::FailureFree, 10, 100, 6);
        assert!(ag <= 6, "agreements = {ag}");
    }

    #[test]
    fn series_are_ordered_and_complete() {
        let series = run_ab_burst(Faultload::FailureFree, &[10, 100], &[4, 16], 2, 1);
        assert_eq!(series.len(), 2);
        for s in &series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points[1].latency_ms > s.points[0].latency_ms);
        }
    }
}
