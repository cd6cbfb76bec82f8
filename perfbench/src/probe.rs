//! Where things run, and how fast the core under the program is running.
//!
//! The reference box is a shared 2-vCPU one. Two things make a timed
//! number differ between two runs of the same code there, and both were
//! measured before anything here was written:
//!
//! * **Thread placement.** With the program's eight threads free to roam
//!   over both vCPUs, `node-small` flips between regimes that last
//!   seconds (all threads packed on one vCPU: 1 740 ops/s at 580
//!   CPU-µs/op; spread over both: 2 500 ops/s at 780). So the program
//!   under test is confined to [`PROGRAM_CPU`] (its threads inherit the
//!   affinity of the thread that builds the group) and the benchmark's
//!   own generator threads move to [`GENERATOR_CPU`]. The rate is that of
//!   a four-replica group on one core.
//! * **The core's speed.** A neighbour on the sibling hyperthread slows a
//!   vCPU by up to 1.9 x, toggling every 10–100 ms, for anything from a
//!   tenth to nine tenths of a run. [`SpeedProbe`] is the witness: a
//!   thread on the program's CPU that every [`PERIOD`] runs a fixed
//!   register-only loop and records the *thread CPU time* it cost (so
//!   being preempted by the program does not count, only the core's
//!   speed does). Six runs of `node-small` on a box contended 20–60 % of
//!   the time: the median segment cost 708–917 µs of wall time per
//!   command as measured, 559–580 µs once each segment was divided by
//!   the slow-down the probe saw during it.
//!
//! The slow-down is taken against a fixed [`REFERENCE_NS`], not against
//! the quietest moment of the run, so a run that never saw a quiet core
//! is corrected like any other.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The CPU the program under test is confined to: the first one this
/// process may run on.
pub const PROGRAM_CPU: usize = 0;

/// The CPU the benchmark's generator threads move to once the group is
/// built: the second one this process may run on (the first again on a
/// one-CPU box).
pub const GENERATOR_CPU: usize = 1;

/// Pause between two probes. A probe costs ~0.1 ms, so the witness takes
/// 2 % of the program's CPU.
pub const PERIOD: Duration = Duration::from_millis(5);

/// Iterations of the probe loop.
const ROUNDS: u64 = 32 * 1024;

/// Thread CPU time of one probe on the quiet reference core (the level
/// the fastest tenth of the probes of every run sat at, within 0.5 %,
/// when the benchmark was defined). Every timed metric is reported at
/// this core speed.
pub const REFERENCE_NS: f64 = 96_400.0;

/// Fewer probes than this in an interval say nothing about it.
const MIN_SAMPLES: usize = 4;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
}

/// A kernel CPU set of 1024 bits.
type CpuSet = [u64; 16];

/// The CPUs this process was allowed when it started, lowest first.
fn allowed_cpus() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is 128 live, writable bytes, the size passed;
        // pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_mut_ptr()) };
        let cpus: Vec<usize> = (0..1024)
            .filter(|cpu| rc == 0 && mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        if cpus.is_empty() {
            vec![0]
        } else {
            cpus
        }
    })
}

/// Linux clock ids.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_seconds(clock_id: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `clock_gettime` writes one `timespec` through `tp`, which
    // points to a live, writable `Timespec`; on 64-bit Linux `time_t` and
    // `long` are both 64 bits wide, which is the layout declared above.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id})");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds (user + system) consumed so far by all threads of this
/// process, exited ones included. The process CPU-time clock counts in
/// nanoseconds; `utime`/`stime` of `/proc/self/stat` count in 10 ms
/// ticks, too coarse for half-second segments.
pub fn process_cpu_seconds() -> f64 {
    cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID)
}

/// Confines the calling thread, and every thread it spawns from now on,
/// to the `slot`-th CPU this process may run on (to the last one when
/// there are fewer). Call [`PROGRAM_CPU`] first, from the main thread,
/// before any other thread exists. A refusal by the kernel is reported
/// and lived with: the numbers are then noisier, not wrong.
pub fn pin_to(slot: usize) {
    let allowed = allowed_cpus();
    let cpu = allowed[slot.min(allowed.len() - 1)];
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is 128 live bytes, the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) };
    if rc != 0 {
        eprintln!("warning: could not confine a thread to cpu {cpu}");
    }
}

/// Eight independent multiply-xor-rotate chains in registers: bound by
/// the core's issue width, which is what a busy sibling hyperthread
/// takes away, and touching no memory, so the program's cache footprint
/// does not show in it. (A single dependent chain is latency-bound and
/// barely notices the sibling; a loop over a buffer measures what the
/// program evicted.)
#[inline(never)]
fn probe_loop(seed: u64) -> u64 {
    let mut acc = [0u64; 8];
    for (i, a) in acc.iter_mut().enumerate() {
        *a = seed ^ i as u64;
    }
    for i in 0..ROUNDS {
        for a in acc.iter_mut() {
            *a = (*a ^ i)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(23)
                .wrapping_add(i);
        }
    }
    acc.iter().fold(0, |h, a| h ^ a)
}

/// The running witness. Start it before anything is timed, on the thread
/// that will build the program (it pins itself, not its parent).
pub struct SpeedProbe {
    stop: Arc<AtomicBool>,
    thread: JoinHandle<Vec<(f64, f64)>>,
    epoch: Instant,
}

impl SpeedProbe {
    pub fn start() -> Self {
        let epoch = Instant::now();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let thread = std::thread::spawn(move || {
            pin_to(PROGRAM_CPU);
            let mut samples = Vec::new();
            let mut x = 7;
            while !flag.load(Ordering::Relaxed) {
                let c0 = cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
                x = std::hint::black_box(probe_loop(std::hint::black_box(x)));
                let c1 = cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
                samples.push((epoch.elapsed().as_secs_f64(), (c1 - c0) * 1e9));
                std::thread::sleep(PERIOD);
            }
            samples
        });
        SpeedProbe {
            stop,
            thread,
            epoch,
        }
    }

    pub fn finish(self) -> Timeline {
        self.stop.store(true, Ordering::Relaxed);
        Timeline {
            epoch: self.epoch,
            samples: self.thread.join().expect("probe thread"),
        }
    }
}

/// What the probe saw: `(seconds since the epoch at which it ended, the
/// thread CPU ns it cost)`, in time order.
pub struct Timeline {
    epoch: Instant,
    samples: Vec<(f64, f64)>,
}

impl Timeline {
    /// A hand-written timeline: `(seconds since epoch, probe ns)`. An
    /// empty one reads every interval as running at the reference speed.
    #[cfg(test)]
    pub fn of(epoch: Instant, samples: &[(f64, f64)]) -> Self {
        Timeline {
            epoch,
            samples: samples.to_vec(),
        }
    }

    fn between(&self, from: Instant, to: Instant) -> &[(f64, f64)] {
        let a = from.saturating_duration_since(self.epoch).as_secs_f64();
        let b = to.saturating_duration_since(self.epoch).as_secs_f64();
        let lo = self.samples.partition_point(|s| s.0 < a);
        let hi = self.samples.partition_point(|s| s.0 <= b);
        &self.samples[lo..hi.max(lo)]
    }

    /// How much slower than the reference core the program's CPU ran
    /// between `from` and `to`: the mean probe cost over [`REFERENCE_NS`].
    /// 1.0 when the probe has too few samples there to say.
    pub fn slowdown(&self, from: Instant, to: Instant) -> f64 {
        let s = self.between(from, to);
        if s.len() < MIN_SAMPLES {
            return 1.0;
        }
        s.iter().map(|s| s.1).sum::<f64>() / s.len() as f64 / REFERENCE_NS
    }

    /// CPU seconds the probe itself used between `from` and `to`; not the
    /// program's, so taken off the process CPU time.
    pub fn cpu_seconds(&self, from: Instant, to: Instant) -> f64 {
        self.between(from, to).iter().map(|s| s.1).sum::<f64>() / 1e9
    }

    /// `(probes, the cost of the fastest tenth, the median cost)` in ns:
    /// the quiet level should sit at [`REFERENCE_NS`] on the reference box.
    pub fn summary(&self) -> (usize, f64, f64) {
        let mut ns: Vec<f64> = self.samples.iter().map(|s| s.1).collect();
        ns.sort_by(f64::total_cmp);
        let at = |q: usize| ns.get(ns.len() * q / 100).copied().unwrap_or(0.0);
        (ns.len(), at(10), at(50))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_mean_probe_cost_over_the_reference() {
        let samples = [
            (0.1, REFERENCE_NS),
            (0.2, REFERENCE_NS * 2.0),
            (0.3, REFERENCE_NS * 2.0),
            (0.4, REFERENCE_NS),
            (0.5, REFERENCE_NS * 3.0),
        ];
        let t = Timeline::of(Instant::now(), &samples);
        let at = |s: f64| t.epoch + Duration::from_secs_f64(s);
        assert_eq!(t.slowdown(at(0.05), at(0.45)), 1.5);
        assert_eq!(t.cpu_seconds(at(0.15), at(0.35)), REFERENCE_NS * 4.0 / 1e9);
        // Too few probes to say: reference speed.
        assert_eq!(t.slowdown(at(0.35), at(0.6)), 1.0);
        assert_eq!(Timeline::of(t.epoch, &[]).slowdown(at(0.0), at(9.0)), 1.0);
        assert_eq!(t.summary().0, 5);
    }

    #[test]
    fn probe_runs_and_costs_cpu() {
        let probe = SpeedProbe::start();
        let before = process_cpu_seconds();
        std::thread::sleep(PERIOD * 8);
        let t = probe.finish();
        let (n, fast, median) = t.summary();
        assert!(n >= 2, "{n} probes in 8 periods");
        assert!(fast > 0.0 && median >= fast);
        assert!(process_cpu_seconds() > before);
    }
}
