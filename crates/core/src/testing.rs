//! Deterministic in-memory cluster for driving [`crate::stack::Stack`]s.
//!
//! The cluster is a zero-time message-passing harness: it holds one stack
//! per process and a queue of in-flight frames, and drains the queue in a
//! seeded pseudo-random order (every interleaving is a legal asynchronous
//! schedule, so randomizing it is a cheap schedule-exploration tool for
//! tests — rerun with different seeds to explore different schedules).
//! Timing-aware execution lives in the `ritas-sim` crate; this harness is
//! for functional tests of the protocol logic.

use crate::adversary::{FrameMutator, StrategyRng};
use crate::config::Group;
use crate::stack::{Output, Stack, StackStep};
use crate::step::Target;
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::KeyTable;

/// How in-flight frames are picked for delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Schedule {
    /// Seeded pseudo-random order (default): each run explores one legal
    /// asynchronous interleaving, determined by the cluster seed.
    #[default]
    Random,
    /// Strict FIFO: messages delivered in send order.
    Fifo,
    /// LIFO: newest messages first — an adversarial-ish schedule that
    /// maximizes reordering across protocol instances.
    Lifo,
}

impl Schedule {
    /// Every schedule, in matrix order (the `schedule` axis of the
    /// adversarial conformance matrix).
    pub const ALL: [Schedule; 3] = [Schedule::Random, Schedule::Fifo, Schedule::Lifo];
}

impl core::fmt::Display for Schedule {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Schedule::Random => "random",
            Schedule::Fifo => "fifo",
            Schedule::Lifo => "lifo",
        })
    }
}

impl std::str::FromStr for Schedule {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "random" => Ok(Schedule::Random),
            "fifo" => Ok(Schedule::Fifo),
            "lifo" => Ok(Schedule::Lifo),
            other => Err(format!(
                "unknown schedule {other:?} (expected random, fifo or lifo)"
            )),
        }
    }
}

/// A deterministic cluster of `n` stacks connected by reliable links.
///
/// # Example
///
/// ```
/// use ritas::testing::Cluster;
/// use ritas::stack::Output;
/// use bytes::Bytes;
///
/// let mut cluster = Cluster::new(4, 42);
/// let (_key, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"hi"));
/// cluster.absorb(0, step);
/// cluster.run();
/// assert!(cluster.outputs(3).iter().any(|o| matches!(
///     o,
///     Output::RbDelivered { payload, .. } if payload.as_ref() == b"hi"
/// )));
/// ```
#[derive(Debug)]
pub struct Cluster {
    stacks: Vec<Stack>,
    queue: Vec<(ProcessId, ProcessId, Bytes)>,
    outputs: Vec<Vec<Output>>,
    schedule: Schedule,
    seed: u64,
    rng: StrategyRng,
    crashed: Vec<bool>,
    /// Processes whose outgoing frames are randomly mutated (dropped,
    /// duplicated, bit-flipped, truncated or replaced with garbage) — a
    /// wire-level Byzantine adversary, one seeded mutator each.
    corrupted: Vec<Option<FrameMutator>>,
    /// Protocol-aware Byzantine strategies (see [`crate::adversary`]):
    /// when set for a process, every outbound frame is decoded and run
    /// through the strategy once per destination before it travels.
    strategies: Vec<Option<Box<dyn crate::adversary::Strategy>>>,
    /// Processes whose inbound frames are currently withheld (extreme
    /// asynchrony: the frames are buffered, not lost, and re-enter the
    /// queue on release — delay, never loss, per the reliable-channel
    /// model).
    held_inbound: Vec<bool>,
    stash: Vec<(ProcessId, ProcessId, Bytes)>,
    /// Links (as normalized unordered pairs) currently severed: frames on
    /// them are buffered in `link_stash`, not lost, and re-enter the
    /// queue on heal — the harness twin of a TCP socket kill the session
    /// layer recovers from by reconnect + retransmit.
    severed: std::collections::HashSet<(ProcessId, ProcessId)>,
    link_stash: Vec<(ProcessId, ProcessId, Bytes)>,
    delivered_frames: u64,
}

impl Cluster {
    /// Creates a cluster of `n` correct processes with dealt keys.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_stacks(
            (0..n)
                .map(|me| {
                    let group = Group::new(n).expect("n >= 4");
                    let table = KeyTable::dealer(n, seed);
                    Stack::new(group, me, table.view_of(me), seed ^ ((me as u64) << 32))
                })
                .collect(),
            seed,
        )
    }

    /// Creates a cluster from pre-built stacks (custom configs, Byzantine
    /// strategies).
    ///
    /// # Panics
    ///
    /// Panics if `stacks` is empty.
    pub fn with_stacks(stacks: Vec<Stack>, seed: u64) -> Self {
        assert!(!stacks.is_empty(), "cluster needs stacks");
        let n = stacks.len();
        Cluster {
            stacks,
            queue: Vec::new(),
            outputs: vec![Vec::new(); n],
            schedule: Schedule::Random,
            seed,
            rng: StrategyRng::new(seed),
            crashed: vec![false; n],
            corrupted: vec![None; n],
            strategies: (0..n).map(|_| None).collect(),
            held_inbound: vec![false; n],
            stash: Vec::new(),
            severed: std::collections::HashSet::new(),
            link_stash: Vec::new(),
            delivered_frames: 0,
        }
    }

    /// Sets the delivery schedule.
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = schedule;
    }

    /// Crashes process `p`: its outgoing frames are dropped and inbound
    /// frames are discarded from now on.
    pub fn crash(&mut self, p: ProcessId) {
        self.crashed[p] = true;
    }

    /// Starts withholding all inbound frames for `p` — extreme (but
    /// model-faithful) asynchrony: the frames are buffered and re-enter
    /// the network when [`Cluster::release`] is called; nothing is lost.
    pub fn hold(&mut self, p: ProcessId) {
        self.held_inbound[p] = true;
    }

    /// Stops withholding and re-queues everything buffered for `p`.
    pub fn release(&mut self, p: ProcessId) {
        self.held_inbound[p] = false;
        let (for_p, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.stash)
            .into_iter()
            .partition(|(_, to, _)| *to == p);
        self.stash = rest;
        self.queue.extend(for_p);
    }

    fn norm_pair(a: ProcessId, b: ProcessId) -> (ProcessId, ProcessId) {
        (a.min(b), a.max(b))
    }

    /// Severs the point-to-point link between `a` and `b`, both
    /// directions: frames on it are buffered (delay, never loss — the
    /// reliable-channel model the real mesh's session layer restores by
    /// reconnecting and retransmitting) until [`Cluster::heal_link`].
    pub fn sever_link(&mut self, a: ProcessId, b: ProcessId) {
        self.severed.insert(Self::norm_pair(a, b));
    }

    /// Restores the link between `a` and `b` and re-queues every frame
    /// buffered on it while severed.
    pub fn heal_link(&mut self, a: ProcessId, b: ProcessId) {
        let pair = Self::norm_pair(a, b);
        self.severed.remove(&pair);
        let (for_link, rest): (Vec<_>, Vec<_>) = std::mem::take(&mut self.link_stash)
            .into_iter()
            .partition(|(f, t, _)| Self::norm_pair(*f, *t) == pair);
        self.link_stash = rest;
        self.queue.extend(for_link);
    }

    /// Marks process `p` as a wire-level Byzantine adversary: every frame
    /// it sends is randomly dropped, duplicated, bit-flipped, truncated or
    /// replaced with garbage by a seeded [`FrameMutator`]. The remaining
    /// correct processes must still satisfy their protocols'
    /// agreement/validity/order properties — this models a corrupt process
    /// that emits arbitrary bytes rather than one that merely follows a
    /// clever high-level strategy.
    pub fn corrupt(&mut self, p: ProcessId) {
        self.corrupted[p] = Some(FrameMutator::new(self.seed ^ p as u64));
    }

    /// Installs a protocol-aware Byzantine [`crate::adversary::Strategy`]
    /// for process `p`: every frame its stack emits is decoded, handed to
    /// the strategy once per destination (broadcasts included — the basis
    /// of equivocation), and replaced by whatever frames the strategy
    /// returns. Takes precedence over [`Cluster::corrupt`]'s wire-level
    /// mutation for the same process.
    pub fn set_strategy(&mut self, p: ProcessId, strategy: Box<dyn crate::adversary::Strategy>) {
        self.strategies[p] = Some(strategy);
    }

    /// Group size.
    pub fn n(&self) -> usize {
        self.stacks.len()
    }

    /// Access to a process's stack, e.g. to issue service requests.
    pub fn stack_mut(&mut self, p: ProcessId) -> &mut Stack {
        &mut self.stacks[p]
    }

    /// Process `p`'s observability registry (each stack in the cluster
    /// owns a private one).
    pub fn metrics(&self, p: ProcessId) -> &ritas_metrics::Metrics {
        self.stacks[p].metrics()
    }

    /// The outputs process `p` has produced so far, in order.
    pub fn outputs(&self, p: ProcessId) -> &[Output] {
        &self.outputs[p]
    }

    /// Frames delivered since creation (a rough message-complexity meter).
    pub fn delivered_frames(&self) -> u64 {
        self.delivered_frames
    }

    /// Queues the messages of `step` as in-flight frames from `p` and
    /// records its outputs.
    pub fn absorb(&mut self, p: ProcessId, step: StackStep) {
        if self.crashed[p] {
            return;
        }
        let n = self.stacks.len();
        for out in step.messages {
            if self.strategies[p].is_some() {
                let dests: Vec<ProcessId> = match out.target {
                    Target::All => (0..n).collect(),
                    Target::One(to) => vec![to],
                };
                match crate::adversary::decode_frame(&out.message) {
                    Some((key, msg)) => {
                        let strategy = self.strategies[p].as_mut().expect("checked above");
                        for to in dests {
                            let ctx = crate::adversary::SendCtx { me: p, to, n };
                            for frame in strategy.rewrite(&ctx, key, msg.clone()) {
                                self.queue.push((p, to, frame));
                            }
                        }
                    }
                    // An honest stack never emits an undecodable frame;
                    // if one appears (strategy-injected), pass it through.
                    None => {
                        for to in dests {
                            self.queue.push((p, to, out.message.clone()));
                        }
                    }
                }
                continue;
            }
            let frames = match &mut self.corrupted[p] {
                Some(mutator) => mutator.mutate(out.message),
                None => vec![out.message],
            };
            for frame in frames {
                match out.target {
                    Target::All => {
                        for to in 0..n {
                            self.queue.push((p, to, frame.clone()));
                        }
                    }
                    Target::One(to) => self.queue.push((p, to, frame.clone())),
                }
            }
        }
        self.outputs[p].extend(step.outputs);
    }

    /// Delivers exactly one in-flight frame, then polls the receiving
    /// stack: a round may start after any frame, so seeds and schedules
    /// explore every interleaving a real driver (which polls whenever its
    /// queue drains) could produce. Returns `false` when the queue is
    /// empty.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let idx = match self.schedule {
            Schedule::Fifo => 0,
            Schedule::Lifo => self.queue.len() - 1,
            Schedule::Random => (self.rng.next() as usize) % self.queue.len(),
        };
        let (from, to, frame) = self.queue.remove(idx);
        if self.crashed[to] {
            return true;
        }
        if self.severed.contains(&Self::norm_pair(from, to)) {
            self.link_stash.push((from, to, frame));
            return true;
        }
        if self.held_inbound[to] {
            self.stash.push((from, to, frame));
            return true;
        }
        self.delivered_frames += 1;
        let mut step = self.stacks[to].handle_frame(from, frame);
        step.extend(self.stacks[to].poll_all());
        self.absorb(to, step);
        true
    }

    /// Runs until no frames are in flight.
    ///
    /// # Panics
    ///
    /// Panics after 50 million deliveries (runaway-execution guard).
    pub fn run(&mut self) {
        let mut iterations: u64 = 0;
        while self.step() {
            iterations += 1;
            assert!(iterations < 50_000_000, "runaway execution");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_and_lifo_schedules_still_converge() {
        for schedule in [Schedule::Fifo, Schedule::Lifo, Schedule::Random] {
            let mut cluster = Cluster::new(4, 3);
            cluster.set_schedule(schedule);
            let (_k, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"s"));
            cluster.absorb(0, step);
            cluster.run();
            for p in 0..4 {
                assert!(
                    cluster.outputs(p).iter().any(|o| matches!(
                        o,
                        Output::RbDelivered { payload, .. } if payload.as_ref() == b"s"
                    )),
                    "{schedule:?} process {p}"
                );
            }
        }
    }

    #[test]
    fn crashed_process_stops_participating() {
        let mut cluster = Cluster::new(4, 4);
        cluster.crash(3);
        let (_k, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"c"));
        cluster.absorb(0, step);
        cluster.run();
        assert!(cluster.outputs(3).is_empty());
        for p in 0..3 {
            assert!(!cluster.outputs(p).is_empty(), "process {p}");
        }
    }

    #[test]
    fn wire_level_byzantine_cannot_break_bc_agreement() {
        for seed in [1u64, 2, 3, 4, 5] {
            let mut cluster = Cluster::new(4, seed);
            cluster.corrupt(3);
            for p in 0..4 {
                let step = cluster.stack_mut(p).bc_propose(1, p % 2 == 0).unwrap();
                cluster.absorb(p, step);
            }
            cluster.run();
            let decisions: Vec<bool> = (0..3)
                .filter_map(|p| {
                    cluster.outputs(p).iter().find_map(|o| match o {
                        Output::BcDecided { decision, .. } => Some(*decision),
                        _ => None,
                    })
                })
                .collect();
            assert_eq!(
                decisions.len(),
                3,
                "seed {seed}: a correct process missed a decision"
            );
            assert!(
                decisions.iter().all(|d| *d == decisions[0]),
                "seed {seed}: agreement violated under wire-level corruption"
            );
        }
    }

    #[test]
    fn wire_level_byzantine_cannot_break_ab_total_order() {
        for seed in [7u64, 8, 9] {
            let mut cluster = Cluster::new(4, seed);
            cluster.corrupt(2);
            for p in [0usize, 1, 3] {
                let (_, step) = cluster
                    .stack_mut(p)
                    .ab_broadcast(0, Bytes::from(format!("w{p}")));
                cluster.absorb(p, step);
            }
            cluster.run();
            let order = |p: usize| -> Vec<crate::ab::MsgId> {
                cluster
                    .outputs(p)
                    .iter()
                    .filter_map(|o| match o {
                        Output::AbDelivered { delivery, .. } => Some(delivery.id),
                        _ => None,
                    })
                    .collect()
            };
            let o0 = order(0);
            assert_eq!(o0.len(), 3, "seed {seed}: deliveries missing");
            for p in [1usize, 3] {
                assert_eq!(order(p), o0, "seed {seed}: order diverged at {p}");
            }
        }
    }

    #[test]
    fn severed_link_buffers_frames_until_heal() {
        let mut cluster = Cluster::new(4, 6);
        cluster.sever_link(0, 1);
        let (_id, step) = cluster
            .stack_mut(0)
            .ab_broadcast(0, Bytes::from_static(b"sv"));
        cluster.absorb(0, step);
        cluster.run();
        // The queue drained with the 0-1 link dark; frames crossed it
        // into the stash, none were lost.
        assert!(!cluster.link_stash.is_empty(), "frames buffered on link");
        cluster.heal_link(0, 1);
        cluster.run();
        assert!(cluster.link_stash.is_empty(), "heal re-queued the stash");
        for p in 0..4 {
            assert!(
                cluster
                    .outputs(p)
                    .iter()
                    .any(|o| matches!(o, Output::AbDelivered { .. })),
                "process {p} a-delivered after heal"
            );
        }
    }

    #[test]
    fn delivered_frames_counts() {
        let mut cluster = Cluster::new(4, 5);
        let (_k, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"x"));
        cluster.absorb(0, step);
        cluster.run();
        // 1 INIT broadcast + 4 ECHO broadcasts + 4 READY broadcasts,
        // 4 destinations each = 36 frames.
        assert_eq!(cluster.delivered_frames(), 36);
    }
}
