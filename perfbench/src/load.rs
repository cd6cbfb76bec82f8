//! What every workload shares: the workload table, the sizing of a pass,
//! its result, the counter deltas read from the program's public
//! registries, and the a-delivery oracle.

use crate::probe::{process_cpu_seconds, Timeline, PERIOD};
use crate::spans::Spans;
use crate::stats::{percentile, segment_p50s_ms, typical, Rng, SegmentClock};
use crate::{node_load, stack_burst, svc_load};
use ritas::ab::MsgId;
use ritas_metrics::{Metrics, MetricsSnapshot};
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Replicas in every workload (`n = 4`, `f = 1`, failure-free).
pub const N: usize = 4;

/// Give-up time for one blocking receive or request. Far above any
/// healthy latency: hitting it means the group is wedged, and the op
/// counts as failed.
pub const OP_TIMEOUT: Duration = Duration::from_secs(30);

/// One timed cold start.
pub struct ColdStart {
    from: Instant,
    seconds: f64,
    /// Process CPU seconds it used.
    cpu_seconds: f64,
}

impl ColdStart {
    /// Times `build`, which returns what has to be torn down afterwards,
    /// outside the timing.
    pub fn time<T>(build: impl FnOnce() -> T) -> (ColdStart, T) {
        let (from, cpu) = (Instant::now(), process_cpu_seconds());
        let built = build();
        let cold = ColdStart {
            seconds: from.elapsed().as_secs_f64(),
            cpu_seconds: process_cpu_seconds() - cpu,
            from,
        };
        (cold, built)
    }

    pub fn seconds(&self) -> f64 {
        self.seconds
    }

    /// The cold start at the reference core speed. A cold start is part
    /// computing and part waiting (thread hand-offs, the first batch's
    /// flush timer); only the computing part, the CPU time it used,
    /// scales with the core. The slow-down is read over the probes of a
    /// neighbourhood, a cold start being shorter than a few of them.
    pub fn seconds_at_reference(&self, timeline: &Timeline) -> f64 {
        let to = self.from + Duration::from_secs_f64(self.seconds);
        let cpu = (self.cpu_seconds - timeline.cpu_seconds(self.from, to)).clamp(0.0, self.seconds);
        let around = PERIOD * 6;
        let from = self.from.checked_sub(around).unwrap_or(self.from);
        self.seconds - cpu + cpu / timeline.slowdown(from, to + around)
    }
}

/// One benchmark workload. The operation count of a run is
/// `ops_per_second × --seconds`: a fixed count, not a duration, so
/// `rss_peak_mb` and the per-op counts compare across commits even when
/// a change makes the run faster. `ops_per_second` is the rate measured
/// on the quiet 2-core reference box at the commit that defined the
/// benchmark, so the measured window lasts about `--seconds` there.
pub struct Workload {
    pub name: &'static str,
    /// Runs one pass and checks its outputs.
    pub run: fn(&PassSpec) -> Pass,
    /// One cold start under keys dealt from the seed: fresh keys → group
    /// built → first command committed at every replica.
    pub setup_once: fn(u64) -> ColdStart,
    pub ops_per_second: u64,
    /// Operations outstanding in the closed loop (for `stack-burst`, the
    /// commands of one burst).
    pub window: usize,
    /// The granularity operations come in: a generation of stacks, one
    /// per client thread, or one.
    pub unit: u64,
    pub payload: usize,
    /// Cold starts timed for `setup_s`, sized so they last 0.5–2 s in all.
    pub setup_reps: usize,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "stack-burst",
        run: stack_burst::run,
        setup_once: stack_burst::setup_once,
        ops_per_second: 2_670,
        window: 16,
        unit: 16 * stack_burst::RECREATE_EVERY,
        payload: 64,
        setup_reps: 401,
    },
    Workload {
        name: "node-small",
        run: node_load::run,
        setup_once: node_load::setup_once,
        ops_per_second: 1_840,
        window: 64,
        unit: 1,
        payload: 64,
        setup_reps: 41,
    },
    Workload {
        name: "node-large",
        run: node_load::run,
        setup_once: node_load::setup_once,
        ops_per_second: 251,
        window: 16,
        unit: 1,
        payload: 4096,
        setup_reps: 41,
    },
    Workload {
        name: "svc-write",
        run: svc_load::run,
        setup_once: svc_load::setup_once,
        ops_per_second: 108,
        window: 2,
        unit: 2,
        payload: 64,
        setup_reps: 9,
    },
];

/// The measured window may last this many times `--seconds`. A box under
/// a neighbour's load needs up to twice the quiet time; a run still going
/// at four times is wedged or far too slow for the driver's limits, and
/// is reported as failed, not with metrics from fewer operations.
const CAP_FACTOR: f64 = 4.0;

/// Runs one pass over `w` and checks it ran its whole operation count.
pub fn run_pass(w: &Workload, spec: &PassSpec) -> Pass {
    let mut pass = (w.run)(spec);
    if pass.clock.truncated() {
        pass.violations.push(format!(
            "stopped after {} of {} operations: over the wall cap of {:?}",
            pass.clock.measured_ops(),
            pass.clock.total_ops(),
            spec.cap
        ));
    }
    pass
}

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The sizing of one pass over a workload.
#[derive(Clone, Copy)]
pub struct PassSpec {
    /// Measured operations (a multiple of `segments × unit`).
    pub ops: u64,
    /// Operations run after set-up and before the measured window; in
    /// neither.
    pub warmup: u64,
    pub segments: u64,
    /// Wall budget of the measured window; a run that exhausts it fails.
    pub cap: Duration,
    pub seed: u64,
    pub window: usize,
    pub payload: usize,
    /// Record the benchmark's own spans.
    pub spans: Mode,
    /// Leave the program's own span/trace recording on
    /// (`Metrics::set_tracing(true)`).
    pub program_tracing: Mode,
}

/// Whether a recording is on during a pass. `Alternate` switches it on in
/// every second segment (off in the warm-up), so the cost of the recording
/// is the difference between neighbouring segments of one pass and the
/// box's slow drift cancels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    Off,
    Alternate,
}

impl Mode {
    pub fn at(self, segment: u32) -> bool {
        match self {
            Mode::Off => false,
            Mode::Alternate => segment % 2 == 1,
        }
    }
}

impl PassSpec {
    /// A pass sized to last `seconds` at the workload's reference rate,
    /// preceded by a 10 % warm-up.
    pub fn sized(w: &Workload, seconds: f64, segments: u64, seed: u64) -> Self {
        let unit = w.unit;
        let step = segments * unit;
        let ops = ((w.ops_per_second as f64 * seconds) as u64 / step).max(1) * step;
        let warmup = (ops / 10).div_ceil(unit).max(1) * unit;
        PassSpec {
            ops,
            warmup,
            segments,
            cap: Duration::from_secs_f64(seconds * CAP_FACTOR),
            seed,
            window: w.window,
            payload: w.payload,
            spans: Mode::Off,
            program_tracing: Mode::Off,
        }
    }

    /// Applies the recording modes of `segment` to the benchmark's span
    /// buffer and the program's registries.
    pub fn switch<'a>(
        &self,
        segment: u32,
        spans: &mut Spans,
        registries: impl IntoIterator<Item = &'a Metrics>,
    ) {
        spans.set_on(self.spans.at(segment));
        for m in registries {
            m.set_tracing(self.program_tracing.at(segment));
        }
    }
}

/// Counter deltas over a measured window, summed over the four replicas
/// unless noted. Read from `metrics_snapshot()` by stable name.
#[derive(Clone, Copy, Default, Debug)]
pub struct Counters {
    /// Frames and bytes sent between replicas.
    pub frames: u64,
    pub bytes: u64,
    pub mac_rejected: u64,
    pub agreements: u64,
    pub flush_size: u64,
    pub flush_age: u64,
    pub flush_idle: u64,
    pub batch_commands_sum: u64,
    pub batches: u64,
    /// Largest round count of any binary consensus so far (a maximum, not
    /// a delta).
    pub bc_rounds_max: u64,
    pub rsm_applied: u64,
    pub dedup_hits: u64,
}

impl Counters {
    pub fn read(snaps: &[MetricsSnapshot]) -> Self {
        let sum = |name: &str| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        let hist = |name: &str| -> Vec<&ritas_metrics::HistogramSnapshot> {
            snaps.iter().filter_map(|s| s.histogram(name)).collect()
        };
        let batch = hist("ab_batch_commands");
        Counters {
            frames: sum("transport_frames_sent"),
            bytes: sum("transport_bytes_sent"),
            mac_rejected: sum("transport_mac_rejected"),
            agreements: sum("ab_agreements"),
            flush_size: sum("ab_flush_size"),
            flush_age: sum("ab_flush_age"),
            flush_idle: sum("ab_flush_idle"),
            batch_commands_sum: batch.iter().map(|h| h.sum).sum(),
            batches: batch.iter().map(|h| h.count).sum(),
            bc_rounds_max: hist("bc_rounds").iter().map(|h| h.max).max().unwrap_or(0),
            rsm_applied: sum("rsm_applied_total"),
            dedup_hits: sum("service_dedup_hits"),
        }
    }

    /// The change since `start` (maxima are kept as they are).
    pub fn since(&self, start: &Counters) -> Counters {
        Counters {
            frames: self.frames - start.frames,
            bytes: self.bytes - start.bytes,
            mac_rejected: self.mac_rejected - start.mac_rejected,
            agreements: self.agreements - start.agreements,
            flush_size: self.flush_size - start.flush_size,
            flush_age: self.flush_age - start.flush_age,
            flush_idle: self.flush_idle - start.flush_idle,
            batch_commands_sum: self.batch_commands_sum - start.batch_commands_sum,
            batches: self.batches - start.batches,
            bc_rounds_max: self.bc_rounds_max,
            rsm_applied: self.rsm_applied - start.rsm_applied,
            dedup_hits: self.dedup_hits - start.dedup_hits,
        }
    }
}

/// The result of one pass.
pub struct Pass {
    /// Operations submitted (set-up and warm-up included) and how many of
    /// them failed, were refused or timed out.
    pub attempted: u64,
    pub failed: u64,
    /// Oracle violations; empty on a correct run.
    pub violations: Vec<String>,
    /// The measured window.
    pub clock: SegmentClock,
    /// Latency samples of the measured window: `(segment, ns)`.
    pub latencies: Vec<(u32, u64)>,
    pub counters: Counters,
    pub spans: Spans,
    /// Workload-specific extras, by per-layer metric name.
    pub extra: Vec<(&'static str, f64)>,
}

impl Pass {
    pub fn measured_ops(&self) -> u64 {
        self.clock.measured_ops()
    }

    /// The three timed metrics are the typical segment of the window (the
    /// median of the densest half, see [`typical`]), each segment first
    /// brought to the reference core speed by the slow-down `timeline` saw
    /// during it (all four workloads keep the program's CPU busy, so time
    /// scales with the core's speed).
    pub fn ops_per_s(&self, timeline: &Timeline) -> f64 {
        let segments = self.clock.segments(timeline);
        typical(
            &segments
                .iter()
                .map(|s| s.ops_per_s * s.slowdown)
                .collect::<Vec<_>>(),
        )
    }

    pub fn cpu_us_per_op(&self, timeline: &Timeline) -> f64 {
        let segments = self.clock.segments(timeline);
        typical(
            &segments
                .iter()
                .map(|s| s.cpu_us_per_op / s.slowdown)
                .collect::<Vec<_>>(),
        )
    }

    /// The typical segment's median latency.
    pub fn p50_ms(&self, timeline: &Timeline) -> f64 {
        let segments = self.clock.segments(timeline);
        let p50s: Vec<f64> = segment_p50s_ms(&self.latencies)
            .into_iter()
            .filter_map(|(i, ms)| Some(ms / segments.get(i as usize)?.slowdown))
            .collect();
        typical(&p50s)
    }

    /// The 99th percentile of all latency samples.
    pub fn p99_ms(&self) -> f64 {
        let mut ns: Vec<u64> = self.latencies.iter().map(|s| s.1).collect();
        ns.sort_unstable();
        percentile(&ns, 99.0) as f64 / 1e6
    }
}

/// Payload of operation `op`: its index (big-endian, so the receiver can
/// match a delivery to its submit time) followed by seeded filler.
pub fn payload(rng: &mut Rng, op: u64, len: usize) -> Vec<u8> {
    let mut p = rng.bytes(len.max(8));
    p[..8].copy_from_slice(&op.to_be_bytes());
    p
}

/// The operation index a [`payload`] carries.
pub fn payload_op(p: &[u8]) -> Option<u64> {
    Some(u64::from_be_bytes(p.get(..8)?.try_into().ok()?))
}

/// Checks atomic broadcast's contract over the whole run: every replica
/// a-delivers the same sequence (a running hash of id and payload), no
/// `MsgId` twice, and exactly what was submitted.
pub struct Oracle {
    counts: [u64; N],
    hashes: [u64; N],
    seen: [HashSet<MsgId>; N],
    violations: Vec<String>,
}

impl Oracle {
    pub fn new() -> Self {
        Oracle {
            counts: [0; N],
            hashes: [0xCBF2_9CE4_8422_2325; N],
            seen: std::array::from_fn(|_| HashSet::new()),
            violations: Vec::new(),
        }
    }

    pub fn violation(&mut self, what: String) {
        // One wedged run can violate thousands of times; the first few
        // say what went wrong.
        if self.violations.len() < 8 {
            self.violations.push(what);
        }
    }

    /// Records that replica `p` a-delivered `(id, payload)`.
    pub fn delivered(&mut self, p: usize, id: MsgId, payload: &[u8]) {
        if !self.seen[p].insert(id) {
            self.violation(format!("replica {p} a-delivered {id:?} twice"));
        }
        let mut h = self.hashes[p];
        let mut mix = |v: u64| h = (h ^ v).wrapping_mul(0x0000_0100_0000_01B3).rotate_left(23);
        mix(id.sender as u64);
        mix(id.rbid);
        mix(payload.len() as u64);
        let mut chunks = payload.chunks_exact(8);
        for c in &mut chunks {
            mix(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        for &b in chunks.remainder() {
            mix(b as u64);
        }
        self.hashes[p] = h;
        self.counts[p] += 1;
    }

    /// Forgets delivered ids (the stacks were re-created and number their
    /// messages from zero again); sequence hashes and counts carry on.
    pub fn new_generation(&mut self) {
        for s in &mut self.seen {
            s.clear();
        }
    }

    /// All replicas must agree on the sequence and have delivered
    /// `submitted` messages.
    pub fn check(&mut self, submitted: u64) {
        if self.counts.iter().any(|&c| c != submitted) {
            self.violation(format!(
                "delivered counts {:?} != submitted {submitted}",
                self.counts
            ));
        }
        if self.hashes.iter().any(|&h| h != self.hashes[0]) {
            self.violation(format!("a-delivery sequences differ: {:x?}", self.hashes));
        }
    }

    /// Messages submitted but not a-delivered by every replica.
    pub fn undelivered(&self, submitted: u64) -> u64 {
        submitted.saturating_sub(*self.counts.iter().min().expect("n > 0"))
    }

    pub fn into_violations(self) -> Vec<String> {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::SEGMENTS;

    fn id(sender: usize, rbid: u64) -> MsgId {
        MsgId { sender, rbid }
    }

    #[test]
    fn oracle_accepts_identical_sequences() {
        let mut o = Oracle::new();
        for p in 0..N {
            o.delivered(p, id(0, 0), b"first payload");
            o.delivered(p, id(1, 0), b"second");
        }
        o.check(2);
        assert!(o.into_violations().is_empty());
    }

    #[test]
    fn oracle_rejects_reorder_duplicate_and_loss() {
        let mut o = Oracle::new();
        for p in 0..N {
            let (a, b) = if p == 3 { (1, 0) } else { (0, 1) };
            o.delivered(p, id(a, 0), b"x");
            o.delivered(p, id(b, 0), b"x");
        }
        o.check(2);
        assert_eq!(o.into_violations().len(), 1, "order differs at replica 3");

        let mut o = Oracle::new();
        o.delivered(0, id(0, 0), b"x");
        o.delivered(0, id(0, 0), b"x");
        assert_eq!(o.into_violations().len(), 1, "duplicate id");

        let mut o = Oracle::new();
        for p in 0..N - 1 {
            o.delivered(p, id(0, 0), b"x");
        }
        o.check(1);
        assert_eq!(o.into_violations().len(), 2, "count and hash differ");
    }

    #[test]
    fn pass_sizes_are_whole_segments_of_whole_units() {
        for w in &WORKLOADS {
            let s = PassSpec::sized(w, 20.0, SEGMENTS, 1);
            let unit = w.unit;
            assert_eq!(s.ops % (SEGMENTS * unit), 0, "{}", w.name);
            assert_eq!(s.warmup % unit, 0, "{}", w.name);
            assert!(s.warmup * 10 >= s.ops && s.warmup > 0, "{}", w.name);
            // A tenth of a second still yields a runnable pass.
            let tiny = PassSpec::sized(w, 0.1, 1, 1);
            assert!(
                tiny.ops >= unit && tiny.ops.is_multiple_of(unit),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn timed_metrics_are_segment_medians_at_the_reference_core_speed() {
        use crate::probe::REFERENCE_NS;
        let start = Instant::now();
        // Three segments of 100 ops. The core ran at reference speed in
        // the first and 1.5 x slower in the other two, where the program
        // took 1.5 x the time and CPU.
        let marks = [(0.0, 0.0), (1.0, 0.5), (2.5, 1.25), (4.0, 2.0)];
        let probes: Vec<(f64, f64)> = (0..16)
            .map(|i| {
                let t = 0.05 + i as f64 * 0.25;
                (t, REFERENCE_NS * if t < 1.0 { 1.0 } else { 1.5 })
            })
            .collect();
        let timeline = Timeline::of(start, &probes);
        let pass = Pass {
            attempted: 300,
            failed: 0,
            violations: Vec::new(),
            clock: SegmentClock::with_marks(100, start, &marks),
            latencies: vec![(0, 10_000_000), (1, 15_000_000), (2, 15_000_000)],
            counters: Counters::default(),
            spans: Spans::off(),
            extra: Vec::new(),
        };
        assert!((pass.ops_per_s(&timeline) - 100.0).abs() < 1e-9);
        assert!((pass.p50_ms(&timeline) - 10.0).abs() < 1e-9);
        // 0.5 CPU s per 100 ops, less the probe's own share.
        let cpu = pass.cpu_us_per_op(&timeline);
        assert!(cpu < 5000.0 && cpu > 4990.0, "{cpu}");
    }

    #[test]
    fn a_cold_start_scales_only_its_computing_part() {
        use crate::probe::REFERENCE_NS;
        let from = Instant::now();
        let cold = ColdStart {
            from,
            seconds: 0.010,
            cpu_seconds: 0.004,
        };
        // The core ran 2 x slower all around it; three probes fell inside.
        let probes: Vec<(f64, f64)> = (0..40)
            .map(|i| (i as f64 * 0.005 - 0.1015, REFERENCE_NS * 2.0))
            .collect();
        let slow = Timeline::of(from, &probes);
        let own_cpu = 0.004 - 2.0 * 2.0 * REFERENCE_NS / 1e9;
        let want = 0.010 - own_cpu + own_cpu / 2.0;
        let got = cold.seconds_at_reference(&slow);
        assert!((got - want).abs() < 1e-9, "{got} {want}");
        assert_eq!(cold.seconds_at_reference(&Timeline::of(from, &[])), 0.010);
    }

    #[test]
    fn payload_carries_its_op_index() {
        let mut rng = Rng::new(3);
        let p = payload(&mut rng, 0xABCD, 64);
        assert_eq!(p.len(), 64);
        assert_eq!(payload_op(&p), Some(0xABCD));
        assert_eq!(payload(&mut rng, 1, 1).len(), 8);
        assert_eq!(payload_op(&[1, 2]), None);
    }
}
