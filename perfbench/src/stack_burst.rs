//! `stack-burst`: the protocol core alone. Repeated bursts of
//! `window` commands a-broadcast round-robin over four sans-io stacks in
//! the benchmark's FIFO driver; codec, RB/EB/BC/MVC/AB and `hash_vector`
//! do all the work, transport, node, rsm and service do none.

use crate::fifo::Fifo;
use crate::load::{payload, ColdStart, Counters, Oracle, Pass, PassSpec, N};
use crate::probe::{pin_to, PROGRAM_CPU};
use crate::spans::{Name, Spans};
use crate::stats::{Rng, SegmentClock};
use bytes::Bytes;
use ritas::stack::Output;
use std::time::Instant;

/// Bursts after which the stacks are re-created (fresh keys, instance
/// tables and sessions), so memory stays bounded however long the run.
/// One generation is the workload's `unit`: warm-up and segments hold
/// whole generations, so every segment pays for exactly as many
/// re-creations as any other (with segments cut across generations,
/// every fourth one ran 15 % slower and looked like noise).
pub const RECREATE_EVERY: u64 = 64;

fn sink(oracle: &mut Oracle) -> impl FnMut(usize, Output) + '_ {
    move |p, out| {
        if let Output::AbDelivered { delivery, .. } = out {
            oracle.delivered(p, delivery.id, &delivery.payload);
        }
    }
}

/// One cold start: fresh keys → four stacks built → first command
/// committed at every stack.
pub fn setup_once(seed: u64) -> ColdStart {
    pin_to(PROGRAM_CPU);
    let (cold, (_fifo, oracle)) = ColdStart::time(|| {
        let registries = Fifo::registries(false);
        let mut fifo = Fifo::new(seed, &registries);
        let mut oracle = Oracle::new();
        let (_, step) = fifo.stacks[0].ab_broadcast(0, Bytes::from_static(b"first command"));
        fifo.absorb(0, step, &mut sink(&mut oracle));
        fifo.run(&mut Spans::off(), None, 0, &mut sink(&mut oracle));
        oracle.check(1);
        (fifo, oracle)
    });
    assert!(oracle.into_violations().is_empty(), "set-up command lost");
    cold
}

pub fn run(spec: &PassSpec) -> Pass {
    // Program and generator are this one thread.
    pin_to(PROGRAM_CPU);
    let epoch = Instant::now();
    let mut spans = Spans::new(spec.spans.at(0), epoch);
    let mut rng = Rng::new(spec.seed);
    let rr_start = rng.next_u64() % N as u64;
    let registries = Fifo::registries(spec.program_tracing.at(0));
    let mut fifo = Fifo::new(rng.next_u64(), &registries);
    let mut oracle = Oracle::new();

    let burst = spec.window as u64;
    let warmup_bursts = spec.warmup / burst;
    let mut clock: Option<SegmentClock> = None;
    let mut start = (Counters::default(), 0, 0);
    let mut latencies = Vec::with_capacity((spec.ops / burst) as usize);
    let mut submitted = 0u64;

    for b in 0.. {
        if b == warmup_bursts {
            start = (
                Counters::read(&Fifo::snapshots(&registries)),
                fifo.frames,
                fifo.bytes,
            );
            clock = Some(SegmentClock::start(spec.ops, spec.segments, spec.cap));
        }
        if b > 0 && b % RECREATE_EVERY == 0 {
            fifo.recreate(rng.next_u64(), &registries);
            oracle.new_generation();
        }
        let segment = clock.as_ref().map_or(0, SegmentClock::current_segment);
        spec.switch(segment, &mut spans, &registries);
        let t0 = Instant::now();
        let root = spans.open(Name::Burst, b, None);
        for i in 0..burst {
            let op = b * burst + i;
            let p = ((rr_start + op) % N as u64) as usize;
            let cmd = Bytes::from(payload(&mut rng, op, spec.payload));
            let s = spans.open(Name::StackAbBroadcast, b, Some(&root));
            let (_, step) = fifo.stacks[p].ab_broadcast(0, cmd);
            spans.close(s);
            fifo.absorb(p, step, &mut sink(&mut oracle));
        }
        fifo.run(&mut spans, Some(&root), b, &mut sink(&mut oracle));
        spans.close(root);
        submitted += burst;
        oracle.check(submitted);
        if let Some(c) = clock.as_mut() {
            latencies.push((c.current_segment(), t0.elapsed().as_nanos() as u64));
            if c.completed(submitted - spec.warmup) {
                break;
            }
        }
    }

    let clock = clock.expect("the measured window opened");
    if fifo.faults > 0 {
        oracle.violation(format!(
            "{} protocol faults in a failure-free run",
            fifo.faults
        ));
    }
    let mut counters = Counters::read(&Fifo::snapshots(&registries)).since(&start.0);
    counters.frames = fifo.frames - start.1;
    counters.bytes = fifo.bytes - start.2;
    let failed = oracle.undelivered(submitted);
    let violations = oracle.into_violations();
    Pass {
        attempted: submitted,
        failed,
        violations,
        clock,
        latencies,
        counters,
        spans,
        extra: Vec::new(),
    }
}
