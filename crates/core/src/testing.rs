//! The deterministic in-memory message pump: [`Net`] drives any sans-io
//! protocol state machine (a [`Process`]: each of the six layers, or a
//! whole [`Stack`]); [`Cluster`] is the `Net` of stacks with a Byzantine
//! wire underneath.
//!
//! A net is a zero-time message-passing harness: it holds one process
//! per group member and a queue of in-flight messages, and drains the
//! queue in a seeded pseudo-random order (every interleaving is a legal
//! asynchronous schedule, so randomizing it is a cheap
//! schedule-exploration tool for tests — rerun with different seeds to
//! explore different schedules). Timing-aware execution lives in the
//! `ritas-sim` crate; this harness is for functional tests of the
//! protocol logic.
//!
//! [`byzantine_cluster_with_hub`] puts the same adversary on real
//! threads: a [`Node`] cluster in which one process lies through a
//! [`Strategy`], sealing its lies under its own AH keys.

use crate::adversary::{rewrite_frame, seeded_rng, Strategy};
use crate::bc::Profile;
use crate::config::Group;
use crate::ctx::Ctx;
use crate::node::{Node, NodeError, SessionConfig};
use crate::stack::{Stack, StackConfig};
use crate::step::{Outgoing, Process, Step, Target};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::{KeyTable, XorShift64};
use ritas_metrics::Metrics;
use ritas_transport::Hub;
use std::collections::HashSet;
use std::sync::Arc;

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

    /// Every `(seed, schedule)` pair over `seeds` — the loop header of a
    /// test that must hold under all three schedules.
    pub fn sweep(seeds: std::ops::Range<u64>) -> impl Iterator<Item = (u64, Schedule)> {
        seeds.flat_map(|seed| Schedule::ALL.map(|schedule| (seed, schedule)))
    }
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

/// What a process's outbound traffic turns into before it enters the
/// network: `(destination, message)` pairs, in travel order.
pub trait Wire<M> {
    /// Carries one outgoing message of `from` in a group of `n`.
    fn carry(&mut self, from: ProcessId, n: usize, out: Outgoing<M>) -> Vec<(ProcessId, M)>;
}

fn destinations(n: usize, target: Target) -> std::ops::Range<ProcessId> {
    match target {
        Target::All => 0..n,
        Target::One(to) => to..to + 1,
    }
}

/// The honest wire: every message reaches exactly its target(s).
#[derive(Debug, Default, Clone, Copy)]
pub struct Faithful;

impl<M: Clone> Wire<M> for Faithful {
    fn carry(&mut self, _from: ProcessId, n: usize, out: Outgoing<M>) -> Vec<(ProcessId, M)> {
        destinations(n, out.target)
            .map(|to| (to, out.message.clone()))
            .collect()
    }
}

/// The context of a free-standing instance at process `me` of a group of
/// `n` whose keys are dealt from `seed`.
///
/// # Panics
///
/// Panics if `n < 4` or `me >= n`.
pub fn ctx(n: usize, me: ProcessId, seed: u64) -> Ctx {
    let keys = KeyTable::dealer(n, seed).view_of(me);
    Ctx::new(Group::new(n).expect("n >= 4"), me, Arc::new(keys))
}

/// A deterministic network of `n` processes connected by reliable links.
///
/// # Example
///
/// Driving one protocol layer directly:
///
/// ```
/// use ritas::bc::Profile;
/// use ritas::rb::ReliableBroadcast;
/// use ritas::testing::{ctx, Net};
/// use bytes::Bytes;
///
/// let mut net = Net::connect((0..4).map(|me| ReliableBroadcast::new(ctx(4, me, 1), Profile::Paper, 0)).collect(), 7);
/// let step = net.process_mut(0).broadcast(Bytes::from_static(b"hi"))?;
/// net.absorb(0, step);
/// net.run();
/// assert_eq!(net.outputs(3), [Bytes::from_static(b"hi")]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Net<P: Process, W = Faithful> {
    procs: Vec<P>,
    wire: W,
    queue: Vec<(ProcessId, ProcessId, P::Msg)>,
    outputs: Vec<Vec<P::Out>>,
    schedule: Schedule,
    rng: XorShift64,
    crashed: Vec<bool>,
    /// Processes whose inbound messages are currently withheld (extreme
    /// asynchrony: the messages are buffered, not lost, and re-enter the
    /// queue on release — delay, never loss, per the reliable-channel
    /// model).
    held_inbound: Vec<bool>,
    stash: Vec<(ProcessId, ProcessId, P::Msg)>,
    /// Links (as normalized unordered pairs) currently severed: messages
    /// on them are buffered in `link_stash`, not lost, and re-enter the
    /// queue on heal — the harness twin of a TCP socket kill the session
    /// layer recovers from by reconnect + retransmit.
    severed: HashSet<(ProcessId, ProcessId)>,
    link_stash: Vec<(ProcessId, ProcessId, P::Msg)>,
    delivered_frames: u64,
}

impl<P: Process, W> core::fmt::Debug for Net<P, W> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Net")
            .field("n", &self.procs.len())
            .field("in_flight", &self.queue.len())
            .field("schedule", &self.schedule)
            .finish_non_exhaustive()
    }
}

impl<P: Process> Net<P> {
    /// Connects `procs` (index = process id) over the honest wire; `seed`
    /// determines the [`Schedule::Random`] interleaving.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is empty.
    pub fn connect(procs: Vec<P>, seed: u64) -> Self {
        Net::over(procs, Faithful, seed)
    }
}

impl<P: Process, W: Wire<P::Msg>> Net<P, W> {
    fn over(procs: Vec<P>, wire: W, seed: u64) -> Self {
        assert!(!procs.is_empty(), "a net needs processes");
        let n = procs.len();
        Net {
            procs,
            wire,
            queue: Vec::new(),
            outputs: (0..n).map(|_| Vec::new()).collect(),
            schedule: Schedule::Random,
            rng: seeded_rng(seed),
            crashed: vec![false; n],
            held_inbound: vec![false; n],
            stash: Vec::new(),
            severed: HashSet::new(),
            link_stash: Vec::new(),
            delivered_frames: 0,
        }
    }

    /// Sets the delivery schedule.
    pub fn set_schedule(&mut self, schedule: Schedule) {
        self.schedule = schedule;
    }

    /// Crashes process `p`: its outgoing messages are dropped and inbound
    /// messages are discarded from now on.
    pub fn crash(&mut self, p: ProcessId) {
        self.crashed[p] = true;
    }

    /// Brings crashed process `p` back, as a replica that rejoins: what
    /// was sent to or by it while it was down stays lost.
    pub fn restart(&mut self, p: ProcessId) {
        self.crashed[p] = false;
    }

    /// Starts withholding all inbound messages for `p` — extreme (but
    /// model-faithful) asynchrony: they are buffered and re-enter the
    /// network when [`Net::release`] is called; nothing is lost.
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
    /// directions: messages on it are buffered (delay, never loss — the
    /// reliable-channel model the real mesh's session layer restores by
    /// reconnecting and retransmitting) until [`Net::heal_link`].
    pub fn sever_link(&mut self, a: ProcessId, b: ProcessId) {
        self.severed.insert(Self::norm_pair(a, b));
    }

    /// Restores the link between `a` and `b` and re-queues every message
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

    /// Group size.
    pub fn n(&self) -> usize {
        self.procs.len()
    }

    /// Process `p`.
    pub fn process(&self, p: ProcessId) -> &P {
        &self.procs[p]
    }

    /// Access to process `p`, e.g. to issue service requests.
    pub fn process_mut(&mut self, p: ProcessId) -> &mut P {
        &mut self.procs[p]
    }

    /// The outputs process `p` has produced so far, in order.
    pub fn outputs(&self, p: ProcessId) -> &[P::Out] {
        &self.outputs[p]
    }

    /// The one output of a single-shot process (a decision, a delivery),
    /// if it has produced it yet.
    ///
    /// # Panics
    ///
    /// Panics if `p` produced more than one.
    pub fn output(&self, p: ProcessId) -> Option<&P::Out> {
        assert!(self.outputs[p].len() <= 1, "double output at {p}");
        self.outputs[p].first()
    }

    /// Messages delivered since creation (a rough message-complexity
    /// meter).
    pub fn delivered_frames(&self) -> u64 {
        self.delivered_frames
    }

    /// Puts `msg` in flight from `from` to `to` as is — bypassing the wire
    /// and `from`'s crash flag, which is how a test plays a Byzantine
    /// sender by hand.
    pub fn inject(&mut self, from: ProcessId, to: ProcessId, msg: P::Msg) {
        self.queue.push((from, to, msg));
    }

    /// Queues the messages of `step` as in flight from `p` and records
    /// its outputs.
    pub fn absorb(&mut self, p: ProcessId, step: Step<P::Msg, P::Out>) {
        if self.crashed[p] {
            return;
        }
        let n = self.procs.len();
        for out in step.messages {
            let carried = self.wire.carry(p, n, out);
            self.queue
                .extend(carried.into_iter().map(|(to, msg)| (p, to, msg)));
        }
        self.outputs[p].extend(step.outputs);
    }

    /// Delivers exactly one in-flight message, then polls the receiving
    /// process: a round may start after any message, so seeds and
    /// schedules explore every interleaving a real driver (which polls
    /// whenever its queue drains) could produce. Returns `false` when the
    /// queue is empty.
    pub fn step(&mut self) -> bool {
        if self.queue.is_empty() {
            return false;
        }
        let idx = match self.schedule {
            Schedule::Fifo => 0,
            Schedule::Lifo => self.queue.len() - 1,
            Schedule::Random => (self.rng.next_u64() as usize) % self.queue.len(),
        };
        let (from, to, msg) = self.queue.remove(idx);
        if self.crashed[to] {
            return true;
        }
        if self.severed.contains(&Self::norm_pair(from, to)) {
            self.link_stash.push((from, to, msg));
            return true;
        }
        if self.held_inbound[to] {
            self.stash.push((from, to, msg));
            return true;
        }
        self.delivered_frames += 1;
        let mut step = self.procs[to].handle_message(from, msg);
        step.extend(self.procs[to].poll());
        self.absorb(to, step);
        true
    }

    /// Runs until no messages are in flight.
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

/// For the tests of the single-shot broadcast layers: under every
/// schedule, connects a fresh `group()` (minus the `crashed`), lets
/// `sender` open with `broadcast`, runs to quiescence, and returns each
/// run's per-process delivery.
#[cfg(test)]
pub(crate) fn broadcast_runs<P: Process>(
    group: impl Fn() -> Vec<P>,
    crashed: &[ProcessId],
    sender: ProcessId,
    broadcast: impl Fn(&mut P) -> Step<P::Msg, P::Out>,
) -> Vec<Vec<Option<P::Out>>>
where
    P::Out: Clone,
{
    Schedule::ALL
        .map(|schedule| {
            let mut net = Net::connect(group(), 1);
            net.set_schedule(schedule);
            for &p in crashed {
                net.crash(p);
            }
            let step = broadcast(net.process_mut(sender));
            net.absorb(sender, step);
            net.run();
            (0..net.n()).map(|p| net.output(p).cloned()).collect()
        })
        .into()
}

/// The [`Cluster`]'s wire: per process, an optional Byzantine rewrite of
/// everything its stack sends.
pub struct Byzantine {
    /// Per process, the strategy its frames go through ([`rewrite_frame`]).
    strategies: Vec<Option<Box<dyn Strategy>>>,
}

impl Wire<Bytes> for Byzantine {
    fn carry(&mut self, p: ProcessId, n: usize, out: Outgoing<Bytes>) -> Vec<(ProcessId, Bytes)> {
        let dests = destinations(n, out.target);
        match &mut self.strategies[p] {
            Some(strategy) => rewrite_frame(strategy.as_mut(), p, n, &out.message, dests),
            None => dests.map(|to| (to, out.message.clone())).collect(),
        }
    }
}

/// A deterministic cluster of `n` stacks connected by reliable links,
/// any of which may be turned Byzantine.
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
pub type Cluster = Net<Stack, Byzantine>;

impl Cluster {
    /// Creates a cluster of `n` correct processes with dealt keys,
    /// running the paper's stack.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn new(n: usize, seed: u64) -> Self {
        Self::with_profile(n, seed, Profile::Paper)
    }

    /// [`Cluster::new`] with every binary consensus of `profile`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 4`.
    pub fn with_profile(n: usize, seed: u64, profile: Profile) -> Self {
        let group = Group::new(n).expect("n >= 4");
        let table = KeyTable::dealer(n, seed);
        let config = StackConfig::default().with_profile(profile);
        Self::with_stacks(
            (0..n)
                .map(|me| {
                    let coin_seed = seed ^ ((me as u64) << 32);
                    Stack::with_config(group, me, table.view_of(me), coin_seed, config)
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
        let n = stacks.len();
        let wire = Byzantine {
            strategies: (0..n).map(|_| None).collect(),
        };
        Net::over(stacks, wire, seed)
    }

    /// Installs a protocol-aware Byzantine [`crate::adversary::Strategy`]
    /// for process `p`: every frame its stack emits is decoded, handed to
    /// the strategy once per destination (broadcasts included — the basis
    /// of equivocation), and replaced by whatever frames the strategy
    /// returns. [`RandomMutation`](crate::adversary::RandomMutation)
    /// is the wire-level adversary: a corrupt process that emits arbitrary
    /// bytes rather than one that follows a clever high-level strategy.
    pub fn set_strategy(&mut self, p: ProcessId, strategy: Box<dyn Strategy>) {
        self.wire.strategies[p] = Some(strategy);
    }

    /// Access to a process's stack, e.g. to issue service requests.
    pub fn stack_mut(&mut self, p: ProcessId) -> &mut Stack {
        self.process_mut(p)
    }

    /// Process `p`'s observability registry (each stack in the cluster
    /// owns a private one).
    pub fn metrics(&self, p: ProcessId) -> &ritas_metrics::Metrics {
        self.process(p).metrics()
    }
}

/// [`Node::cluster_with_hub`] with process `p` Byzantine: its protocol
/// thread runs every message it sends a peer through `strategy` (see
/// [`rewrite_frame`]), and the AH layer seals what comes out under `p`'s
/// real keys.
///
/// # Errors
///
/// As [`Node::cluster_with_hub`].
pub fn byzantine_cluster_with_hub(
    config: &SessionConfig,
    p: ProcessId,
    strategy: Box<dyn Strategy>,
) -> Result<(Vec<Node>, Hub), NodeError> {
    let mut hub = Hub::new(config.group().n());
    let mut strategy = Some(strategy);
    let nodes = hub
        .take_endpoints()
        .into_iter()
        .enumerate()
        .map(|(me, ep)| {
            let strategy = strategy.take_if(|_| me == p);
            Node::assemble(config, me, ep, Metrics::new(), false, strategy)
        })
        .collect::<Result<_, _>>()?;
    Ok((nodes, hub))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::RandomMutation;
    use crate::stack::Output;

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
            cluster.set_strategy(3, Box::new(RandomMutation::new(seed ^ 3)));
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
            cluster.set_strategy(2, Box::new(RandomMutation::new(seed ^ 2)));
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
