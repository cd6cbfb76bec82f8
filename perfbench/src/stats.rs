//! Summary statistics, the segment clock and the peak-memory reader.

use crate::probe::{process_cpu_seconds, Timeline};
use std::time::{Duration, Instant};

/// Number of equal consecutive segments the measured window is cut into.
/// Each segment is corrected for the core speed the probe saw during it
/// (see `probe.rs`) and the typical segment is reported (see [`typical`]),
/// so what the probe cannot see (the process descheduled, a neighbour
/// thrashing the caches) spoils segments, not the run.
pub const SEGMENTS: u64 = 40;

/// Median of `values` (mean of the two middle values for an even count).
/// Returns 0.0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The typical value of `values`: the median of their densest half (the
/// shortest interval that holds `n / 2 + 1` of them, the "shorth").
///
/// Like the median it ignores up to half of the values and follows the
/// other half, so a slow phase of the program that fills most segments
/// moves it; it is not a best case. Unlike the median it is not dragged by
/// a one-sided tail. The tail on the reference box is the neighbour the
/// probe cannot see (one that thrashes the shared caches slows the
/// program 2 x while the probe's register-only loop reads 1.35): in eight
/// runs of `svc-write` with up to 19 of 40 segments hit, the median
/// segment spread 6.9 % between runs and this 1.6 %.
pub fn typical(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let half = v.len() / 2 + 1;
    if half >= v.len() {
        return median(&v);
    }
    let width = |start: usize| v[start + half - 1] - v[start];
    let narrowest = (0..=v.len() - half)
        .map(width)
        .min_by(f64::total_cmp)
        .expect("at least one window");
    // Of equally narrow windows, the middle one.
    let starts: Vec<usize> = (0..=v.len() - half)
        .filter(|&s| width(s) == narrowest)
        .collect();
    let start = starts[(starts.len() - 1) / 2];
    median(&v[start..start + half])
}

/// Nearest-rank percentile (`0 < p <= 100`) of an ascending-sorted slice;
/// 0 when empty.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `(segment, median latency in ms)` of each segment that has samples,
/// from `(segment, ns)` samples.
pub fn segment_p50s_ms(samples: &[(u32, u64)]) -> Vec<(u32, f64)> {
    let mut by_segment: std::collections::BTreeMap<u32, Vec<u64>> = Default::default();
    for &(segment, ns) in samples {
        by_segment.entry(segment).or_default().push(ns);
    }
    by_segment
        .into_iter()
        .map(|(segment, mut v)| {
            v.sort_unstable();
            (segment, percentile(&v, 50.0) as f64 / 1e6)
        })
        .collect()
}

/// `VmHWM` (peak resident set) in MiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_ascii_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn rss_peak_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_vm_hwm_mib(&status).expect("VmHWM in /proc/self/status")
}

/// One completed segment of the measured window, as measured and as the
/// probe says the core ran during it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Segment {
    pub ops_per_s: f64,
    /// Process CPU per operation, the probe's own CPU taken off.
    pub cpu_us_per_op: f64,
    /// Core slow-down against the reference core (1.0 = reference speed).
    pub slowdown: f64,
}

/// Wall and CPU clock of a measured window cut into equal segments of
/// completed operations.
pub struct SegmentClock {
    seg_ops: u64,
    segments: u64,
    /// Wall budget for the whole window. A healthy run ends far inside
    /// it; past it the window stops at the next segment boundary and the
    /// run is reported as failed (see [`SegmentClock::truncated`]).
    cap: Duration,
    start: Instant,
    /// `(wall seconds since start, process CPU seconds)` at the window
    /// start and at every completed segment boundary.
    marks: Vec<(f64, f64)>,
}

impl SegmentClock {
    /// Starts the window now. `ops` is rounded down to a multiple of
    /// `segments` by the caller (see [`SegmentClock::total_ops`]).
    pub fn start(ops: u64, segments: u64, cap: Duration) -> Self {
        let seg_ops = (ops / segments).max(1);
        SegmentClock {
            seg_ops,
            segments,
            cap,
            start: Instant::now(),
            marks: vec![(0.0, process_cpu_seconds())],
        }
    }

    /// A finished window with hand-written marks, for tests of what is
    /// computed from one.
    #[cfg(test)]
    pub fn with_marks(seg_ops: u64, start: Instant, marks: &[(f64, f64)]) -> Self {
        SegmentClock {
            seg_ops,
            segments: marks.len() as u64 - 1,
            cap: Duration::MAX,
            start,
            marks: marks.to_vec(),
        }
    }

    /// Operations the full window holds.
    pub fn total_ops(&self) -> u64 {
        self.seg_ops * self.segments
    }

    /// Records that `done` operations have completed since the window
    /// opened. Returns `true` when the window is over: all segments are
    /// complete, or a boundary was reached past the wall cap.
    pub fn completed(&mut self, done: u64) -> bool {
        if !done.is_multiple_of(self.seg_ops) || done / self.seg_ops != self.marks.len() as u64 {
            return false;
        }
        self.marks
            .push((self.start.elapsed().as_secs_f64(), process_cpu_seconds()));
        done >= self.total_ops() || self.start.elapsed() > self.cap
    }

    /// Index of the segment now being measured.
    pub fn current_segment(&self) -> u32 {
        self.marks.len() as u32 - 1
    }

    /// Operations covered by the completed segments.
    pub fn measured_ops(&self) -> u64 {
        self.seg_ops * (self.marks.len() as u64 - 1)
    }

    /// The window hit its wall cap before its operation count: the op
    /// count, and with it `rss_peak_mb` and the per-op counts, is not the
    /// one the benchmark fixes, so the run does not count.
    pub fn truncated(&self) -> bool {
        self.measured_ops() < self.total_ops()
    }

    /// Wall seconds covered by the completed segments.
    pub fn wall_seconds(&self) -> f64 {
        self.marks.last().map_or(0.0, |m| m.0)
    }

    /// Every completed segment, with the slow-down `timeline` saw in it.
    pub fn segments(&self, timeline: &Timeline) -> Vec<Segment> {
        let ops = self.seg_ops as f64;
        let at = |s: f64| self.start + Duration::from_secs_f64(s);
        self.marks
            .windows(2)
            .map(|w| {
                let (from, to) = (at(w[0].0), at(w[1].0));
                let cpu = w[1].1 - w[0].1 - timeline.cpu_seconds(from, to);
                Segment {
                    ops_per_s: ops / (w[1].0 - w[0].0),
                    cpu_us_per_op: cpu * 1e6 / ops,
                    slowdown: timeline.slowdown(from, to),
                }
            })
            .collect()
    }
}

/// SplitMix64: the seeded generator behind every benchmark input.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `len` seeded bytes.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        while out.len() < len {
            out.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        out.truncate(len);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn typical_is_the_median_of_the_densest_half() {
        assert_eq!(typical(&[]), 0.0);
        assert_eq!(typical(&[4.0]), 4.0);
        assert_eq!(typical(&[4.0, 2.0]), 3.0);
        assert_eq!(typical(&[1.0, 9.0, 2.0]), 1.5);
        // A symmetric cloud: the median.
        assert_eq!(typical(&[1.0, 2.0, 3.0, 4.0, 5.0]), 3.0);
        // Four of ten dragged far out on one side: the median moves
        // towards them, the densest six do not.
        let v = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 19.0, 20.0, 21.0, 22.0];
        assert_eq!(median(&v), 10.45);
        assert_eq!(typical(&v), 10.25);
        // Most values slow: that is where it goes.
        let v = [10.0, 10.25, 20.0, 20.25, 20.5, 20.75, 21.0];
        assert_eq!(typical(&v), 20.375);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&v, 0.1), 1);
        assert_eq!(percentile(&[7], 99.0), 7);
        assert_eq!(percentile(&[], 50.0), 0);
    }

    #[test]
    fn segment_p50s_group_by_segment() {
        let samples = [
            (0, 3_000_000),
            (1, 9_000_000),
            (0, 1_000_000),
            (0, 2_000_000),
        ];
        assert_eq!(segment_p50s_ms(&samples), vec![(0, 2.0), (1, 9.0)]);
        assert!(segment_p50s_ms(&[]).is_empty());
    }

    #[test]
    fn vm_hwm_parser() {
        let status = "Name:\tx\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("Name:\tx\n"), None);
        assert!(rss_peak_mib() > 0.0);
    }

    #[test]
    fn segment_clock_reports_every_segment() {
        let mut c = SegmentClock::start(10, 5, Duration::from_secs(60));
        assert_eq!(c.total_ops(), 10);
        // Hand-written marks: segment rates 2, 4, 1, 8, 4 ops/s and
        // CPU costs 0.5, 0.25, 1.0, 0.125, 0.25 s/op.
        c.marks = vec![
            (0.0, 0.0),
            (1.0, 1.0),
            (1.5, 1.5),
            (3.5, 3.5),
            (3.75, 3.75),
            (4.25, 4.25),
        ];
        let segments = c.segments(&Timeline::of(c.start, &[]));
        let rates: Vec<f64> = segments.iter().map(|s| s.ops_per_s).collect();
        let cpus: Vec<f64> = segments.iter().map(|s| s.cpu_us_per_op).collect();
        assert_eq!(rates, [2.0, 4.0, 1.0, 8.0, 4.0]);
        assert_eq!(cpus, [5e5, 2.5e5, 1e6, 1.25e5, 2.5e5]);
        assert!(segments.iter().all(|s| s.slowdown == 1.0));
        assert_eq!(c.current_segment(), 5);
        assert_eq!(c.measured_ops(), 10);
        assert!(!c.truncated());
        assert_eq!(c.wall_seconds(), 4.25);
    }

    #[test]
    fn segments_carry_the_slowdown_the_probe_saw_and_not_its_cpu() {
        use crate::probe::REFERENCE_NS;
        let start = Instant::now();
        // Two one-second segments of 10 ops, one CPU second each. The
        // probe ran at the reference cost in the first and at twice that
        // in the second, four times in each.
        let c = SegmentClock::with_marks(10, start, &[(0.0, 0.0), (1.0, 1.0), (2.0, 2.0)]);
        let probes: Vec<(f64, f64)> = (0..8)
            .map(|i| {
                let cost = if i < 4 {
                    REFERENCE_NS
                } else {
                    REFERENCE_NS * 2.0
                };
                (0.1 + i as f64 * 0.25, cost)
            })
            .collect();
        let s = c.segments(&Timeline::of(start, &probes));
        assert_eq!((s[0].slowdown, s[1].slowdown), (1.0, 2.0));
        assert_eq!(s[0].ops_per_s, 10.0);
        let probe_cpu_us = 4.0 * REFERENCE_NS / 1e3;
        assert!((s[0].cpu_us_per_op - (1e6 - probe_cpu_us) / 10.0).abs() < 1e-6);
        assert!((s[1].cpu_us_per_op - (1e6 - 2.0 * probe_cpu_us) / 10.0).abs() < 1e-6);
    }

    #[test]
    fn segment_clock_stops_at_the_end_or_past_the_cap() {
        let mut c = SegmentClock::start(12, 3, Duration::from_secs(60));
        assert!(!c.completed(1));
        assert!(!c.completed(4));
        assert!(!c.completed(8));
        assert!(c.completed(12));
        assert_eq!(c.measured_ops(), 12);
        assert!(!c.truncated());

        let mut capped = SegmentClock::start(12, 3, Duration::ZERO);
        assert!(capped.completed(4), "past the cap: stop at the boundary");
        assert_eq!(capped.measured_ops(), 4);
        assert!(capped.truncated());
    }

    #[test]
    fn rng_is_a_function_of_the_seed() {
        let a = Rng::new(7).bytes(100);
        assert_eq!(a, Rng::new(7).bytes(100));
        assert_ne!(a, Rng::new(8).bytes(100));
        assert_eq!(a.len(), 100);
    }
}
