//! The benchmark's own single-threaded driver: four sans-io `Stack`s and
//! one FIFO queue of frames in flight. No threads, sockets or
//! authentication layer.
//!
//! Deliberately not `testing::Cluster`: a refactor of the repository's
//! drivers must not silently change the measuring harness, and
//! `Cluster::step`'s `Vec::remove` must not be in the timing. Follows the
//! `Node` worker's policy — drain the input, then `set_now`/`tick`/
//! `poll_all` — on a virtual clock that only jumps to the next batch-flush
//! deadline, so the frame, byte and agreement counts repeat exactly.

use crate::load::N;
use crate::spans::{Name, Open, Spans};
use bytes::Bytes;
use ritas::config::Group;
use ritas::node::SessionConfig;
use ritas::stack::{Output, Stack, StackStep};
use ritas::step::Target;
use ritas_crypto::KeyTable;
use ritas_metrics::{Metrics, MetricsSnapshot};
use std::collections::VecDeque;

pub struct Fifo {
    pub stacks: Vec<Stack>,
    queue: VecDeque<(usize, usize, Bytes)>,
    now_ns: u64,
    /// Frames and bytes routed between stacks (loopback sends included,
    /// as the transports count them).
    pub frames: u64,
    pub bytes: u64,
    /// Faults any stack attributed to a peer; a failure-free run has none.
    pub faults: u64,
}

impl Fifo {
    /// Four fresh stacks with keys dealt from `seed`, configured like a
    /// `Node`'s (deferred agreement rounds, default `BatchPolicy`) and
    /// reporting into `registries` (one per process), which outlive the
    /// stacks so counters accumulate across re-creations.
    pub fn new(seed: u64, registries: &[Metrics]) -> Self {
        Fifo {
            stacks: Fifo::fresh_stacks(seed, registries),
            queue: VecDeque::new(),
            now_ns: 0,
            frames: 0,
            bytes: 0,
            faults: 0,
        }
    }

    fn fresh_stacks(seed: u64, registries: &[Metrics]) -> Vec<Stack> {
        let group = Group::new(N).expect("n = 4 is a valid group");
        let config = SessionConfig::new(N).expect("n = 4 is a valid group").stack;
        let table = KeyTable::dealer(N, seed);
        (0..N)
            .map(|me| {
                let coin_seed = seed ^ ((me as u64) << 32);
                let mut s = Stack::with_config(group, me, table.view_of(me), coin_seed, config);
                s.set_metrics(registries[me].clone());
                s
            })
            .collect()
    }

    /// Replaces the (quiescent) stacks with fresh ones under new keys;
    /// the frame, byte and fault counts carry on.
    pub fn recreate(&mut self, seed: u64, registries: &[Metrics]) {
        self.stacks = Fifo::fresh_stacks(seed, registries);
        self.now_ns = 0;
    }

    /// One registry per process, the program's own span/trace recording
    /// set to `tracing`.
    pub fn registries(tracing: bool) -> Vec<Metrics> {
        (0..N)
            .map(|_| {
                let m = Metrics::new();
                m.set_tracing(tracing);
                m
            })
            .collect()
    }

    pub fn snapshots(registries: &[Metrics]) -> Vec<MetricsSnapshot> {
        registries.iter().map(Metrics::snapshot).collect()
    }

    /// Queues the frames `from` wants sent and hands its outputs to `sink`.
    pub fn absorb(&mut self, from: usize, step: StackStep, sink: &mut impl FnMut(usize, Output)) {
        for out in step.messages {
            match out.target {
                Target::All => {
                    for to in 0..N {
                        self.push(from, to, out.message.clone());
                    }
                }
                Target::One(to) => self.push(from, to, out.message),
            }
        }
        self.faults += step.faults.len() as u64;
        for o in step.outputs {
            sink(from, o);
        }
    }

    fn push(&mut self, from: usize, to: usize, frame: Bytes) {
        self.frames += 1;
        self.bytes += frame.len() as u64;
        self.queue.push_back((from, to, frame));
    }

    /// Delivers frames in FIFO order until nothing is in flight and no
    /// batch-flush timer is armed. Spans (children of `parent`, for
    /// operation `op`) go around every call into a stack.
    pub fn run(
        &mut self,
        spans: &mut Spans,
        parent: Option<&Open>,
        op: u64,
        sink: &mut impl FnMut(usize, Output),
    ) {
        loop {
            while let Some((from, to, frame)) = self.queue.pop_front() {
                let s = spans.open(Name::StackHandleFrame, op, parent);
                let step = self.stacks[to].handle_frame(from, frame);
                spans.close(s);
                self.absorb(to, step, sink);
            }
            for p in 0..N {
                let s = spans.open(Name::StackTick, op, parent);
                self.stacks[p].set_now(self.now_ns);
                let step = self.stacks[p].tick();
                spans.close(s);
                self.absorb(p, step, sink);
                let s = spans.open(Name::StackPollAll, op, parent);
                let step = self.stacks[p].poll_all();
                spans.close(s);
                self.absorb(p, step, sink);
            }
            if !self.queue.is_empty() {
                continue;
            }
            match self.stacks.iter().filter_map(Stack::ab_next_deadline).min() {
                Some(deadline) => self.now_ns = self.now_ns.max(deadline),
                None => return,
            }
        }
    }
}
