//! The ledger's single-layer rungs: each calls one layer's public
//! functions in isolation, on one thread, for at least `min` wall time.

use crate::fifo::Fifo;
use crate::load::{N, OP_TIMEOUT};
use crate::node_load;
use crate::spans::Spans;
use crate::stats::{median, Rng};
use crate::svc_load;
use bytes::Bytes;
use ritas::adversary::decode_frame;
use ritas::rsm::Replica;
use ritas::service::{CommandKind, ServiceConfig, ServiceReplica};
use ritas::stack::{InstanceKey, Output};
use ritas_crypto::{mac, ClientKeyDealer, Digest, Hmac, KeyTable, Sha1};
use ritas_service::wire::{Request, RequestKind, RequestMode};
use ritas_transport::{AuthConfig, AuthenticatedTransport, Hub, Transport};
use std::hint::black_box;
use std::time::{Duration, Instant};

pub type Metric = (&'static str, f64);

/// Nanoseconds per call of `f`: `min` wall time of calls in five equal
/// slices, the mean of the fastest slice (a neighbour on the shared box
/// only ever slows a slice down).
fn ns_per_call(min: Duration, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        let mut calls = 0u64;
        let elapsed = loop {
            for _ in 0..16 {
                f();
            }
            calls += 16;
            let elapsed = t0.elapsed();
            if elapsed >= min / 5 {
                break elapsed;
            }
        };
        best = best.min(elapsed.as_nanos() as f64 / calls as f64);
    }
    best
}

pub fn crypto(min: Duration, rng: &mut Rng) -> Vec<Metric> {
    let small = rng.bytes(64);
    let large = rng.bytes(4096);
    let table = KeyTable::dealer(N, rng.next_u64());
    let key = table.shared_key(0, 1).expect("pairwise key");
    let keys = table.view_of(0);
    let tag = mac::authenticate(&small, &key);
    vec![
        (
            "crypto.sha1_64B_ns",
            ns_per_call(min, || {
                black_box(Sha1::digest(black_box(&small)));
            }),
        ),
        (
            "crypto.sha1_4KiB_ns",
            ns_per_call(min, || {
                black_box(Sha1::digest(black_box(&large)));
            }),
        ),
        (
            "crypto.hmac_sha1_64B_ns",
            ns_per_call(min, || {
                black_box(Hmac::<Sha1>::mac(key.as_ref(), black_box(&small)));
            }),
        ),
        (
            "crypto.hmac_sha1_4KiB_ns",
            ns_per_call(min, || {
                black_box(Hmac::<Sha1>::mac(key.as_ref(), black_box(&large)));
            }),
        ),
        (
            "crypto.mac_verify_64B_ns",
            ns_per_call(min, || {
                black_box(mac::verify(black_box(&small), &key, &tag));
            }),
        ),
        (
            "crypto.hash_vector_n4_64B_ns",
            ns_per_call(min, || {
                black_box(mac::hash_vector(black_box(&small), &keys));
            }),
        ),
    ]
}

fn oneway<T: Transport>(min: Duration, a: &T, b: &T, payload: &Bytes) -> f64 {
    ns_per_call(min, || {
        a.send(1, payload.clone()).expect("send");
        black_box(b.recv().expect("recv"));
    })
}

/// `Transport::send` → `recv` over a two-endpoint `Hub`, plain and under
/// the authentication layer configured as `Node::cluster` configures it.
pub fn transport(min: Duration, rng: &mut Rng) -> Vec<Metric> {
    let small = Bytes::from(rng.bytes(64));
    let large = Bytes::from(rng.bytes(4096));
    let plain = Hub::new(2).take_endpoints();
    let master_seed = rng.next_u64();
    let table = KeyTable::dealer(2, master_seed);
    let sealed: Vec<_> = Hub::new(2)
        .take_endpoints()
        .into_iter()
        .enumerate()
        .map(|(me, ep)| {
            let auth = AuthConfig::from_key_table(&table, me).with_epoch_rekey(
                master_seed,
                0,
                Duration::from_secs(5),
            );
            AuthenticatedTransport::new(ep, auth)
        })
        .collect();
    vec![
        (
            "transport.hub_oneway_64B_ns",
            oneway(min, &plain[0], &plain[1], &small),
        ),
        (
            "transport.auth_oneway_64B_ns",
            oneway(min, &sealed[0], &sealed[1], &small),
        ),
        (
            "transport.auth_oneway_4KiB_ns",
            oneway(min, &sealed[0], &sealed[1], &large),
        ),
    ]
}

/// Encode and decode of the first frame an a-broadcast of one 64 B
/// command puts on the wire (an AB `Msg` carrying the batch's RB `INIT`).
pub fn codec(min: Duration, rng: &mut Rng) -> Vec<Metric> {
    let registries = Fifo::registries(false);
    let mut fifo = Fifo::new(rng.next_u64(), &registries);
    let (_, step) = fifo.stacks[0].ab_broadcast(0, Bytes::from(rng.bytes(64)));
    let frame = step.messages.first().expect("an AB frame").message.clone();
    let (key, msg) = decode_frame(&frame).expect("own frame decodes");
    assert_eq!(msg.frame(key), frame, "codec round trip");
    vec![
        (
            "codec.ab_frame_encode_ns",
            ns_per_call(min, || {
                black_box(black_box(&msg).frame(key));
            }),
        ),
        (
            "codec.ab_frame_decode_ns",
            ns_per_call(min, || {
                black_box(decode_frame(black_box(&frame)));
            }),
        ),
    ]
}

/// Seal and open of one 64 B client request on the service wire.
pub fn service_wire(min: Duration, rng: &mut Rng) -> Vec<Metric> {
    let key = ClientKeyDealer::new(rng.next_u64()).link_key(1000, 0);
    let request = Request {
        client: 1000,
        seq: 1,
        kind: RequestKind::Apply,
        mode: RequestMode::Submit,
        payload: Bytes::from(rng.bytes(64)),
    };
    vec![(
        "service.wire_seal_open_64B_ns",
        ns_per_call(min, || {
            let frame = black_box(&request).seal(&key);
            black_box(Request::open(&frame, &key).expect("own frame opens"));
        }),
    )]
}

#[derive(Clone, Copy)]
enum Rung {
    Rb,
    Eb,
    Bc,
    Mvc,
    Vc,
    Ab,
}

/// Starts one instance of `rung` (all four processes propose; broadcasts
/// come from process 0), drives it to completion and returns its key.
/// Every output any stack produces is counted.
fn instance(
    fifo: &mut Fifo,
    rung: Rung,
    tag: u64,
    value: &Bytes,
    outputs: &mut u64,
) -> Option<InstanceKey> {
    let mut sink = |_: usize, _: Output| *outputs += 1;
    let key = match rung {
        Rung::Rb => {
            let (key, step) = fifo.stacks[0].rb_broadcast(value.clone());
            fifo.absorb(0, step, &mut sink);
            Some(key)
        }
        Rung::Eb => {
            let (key, step) = fifo.stacks[0].eb_broadcast(value.clone());
            fifo.absorb(0, step, &mut sink);
            Some(key)
        }
        Rung::Bc | Rung::Mvc | Rung::Vc => {
            for p in 0..N {
                let stack = &mut fifo.stacks[p];
                let step = match rung {
                    Rung::Bc => stack.bc_propose(tag, true),
                    Rung::Mvc => stack.mvc_propose(tag, value.clone()),
                    _ => stack.vc_propose(tag, value.clone()),
                }
                .expect("fresh tag");
                fifo.absorb(p, step, &mut sink);
            }
            Some(match rung {
                Rung::Bc => InstanceKey::Bc { tag },
                Rung::Mvc => InstanceKey::Mvc { tag },
                _ => InstanceKey::Vc { tag },
            })
        }
        Rung::Ab => {
            let (_, step) = fifo.stacks[0].ab_broadcast(0, value.clone());
            fifo.absorb(0, step, &mut sink);
            None
        }
    };
    fifo.run(&mut Spans::off(), None, tag, &mut sink);
    key
}

fn destroy(fifo: &mut Fifo, key: Option<InstanceKey>) {
    if let Some(key) = key {
        for s in &mut fifo.stacks {
            s.destroy(key);
        }
    }
}

/// One instance of each protocol driven to completion at n = 4 in the
/// FIFO driver — the paper's Table 1 on real silicon. Frame, byte and
/// round counts are those of the first instance and repeat exactly.
/// Returns the metrics and what went wrong, if anything.
pub fn instances(min: Duration, rng: &mut Rng) -> (Vec<Metric>, Vec<String>) {
    // (rung, time, frames, bytes, rounds): the metric names of each.
    type Names = (
        Rung,
        &'static str,
        &'static str,
        Option<&'static str>,
        Option<&'static str>,
    );
    const RUNGS: [Names; 6] = [
        (
            Rung::Rb,
            "rb.instance_us",
            "rb.frames",
            Some("rb.bytes"),
            None,
        ),
        (
            Rung::Eb,
            "eb.instance_us",
            "eb.frames",
            Some("eb.bytes"),
            None,
        ),
        (
            Rung::Bc,
            "bc.instance_us",
            "bc.frames",
            None,
            Some("bc.rounds"),
        ),
        (Rung::Mvc, "mvc.instance_us", "mvc.frames", None, None),
        (Rung::Vc, "vc.instance_us", "vc.frames", None, None),
        (Rung::Ab, "ab.instance_us", "ab.frames", None, None),
    ];
    let registries = Fifo::registries(false);
    let mut fifo = Fifo::new(rng.next_u64(), &registries);
    let value = Bytes::from(rng.bytes(64));
    let mut metrics = Vec::new();
    let mut violations = Vec::new();
    let mut tag = 0u64;
    for (rung, time, frames, bytes, rounds) in RUNGS {
        let (mut outputs, mut started) = (0u64, 1u64);
        let before = (fifo.frames, fifo.bytes);
        tag += 1;
        let key = instance(&mut fifo, rung, tag, &value, &mut outputs);
        metrics.push((frames, (fifo.frames - before.0) as f64));
        if let Some(bytes) = bytes {
            metrics.push((bytes, (fifo.bytes - before.1) as f64));
        }
        if let Some(rounds) = rounds {
            let round = fifo.stacks[0].bc_decided_round(tag).unwrap_or(0);
            metrics.push((rounds, f64::from(round)));
        }
        destroy(&mut fifo, key);
        let ns = ns_per_call(min, || {
            tag += 1;
            started += 1;
            let key = instance(&mut fifo, rung, tag, &value, &mut outputs);
            destroy(&mut fifo, key);
        });
        metrics.push((time, ns / 1e3));
        // Every instance ends with one delivery or decision per process.
        if outputs != started * N as u64 {
            violations.push(format!(
                "{time}: {outputs} outputs from {started} instances at n = {N}"
            ));
        }
    }
    if fifo.faults > 0 {
        violations.push(format!(
            "{} protocol faults in the instance rungs",
            fifo.faults
        ));
    }
    (metrics, violations)
}

/// Median milliseconds of `call`, one outstanding at a time, over at
/// least 20 calls and `min` wall time. `None` if a call fails.
fn median_call_ms(min: Duration, mut call: impl FnMut(u64) -> bool) -> Option<f64> {
    let t0 = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 20 || t0.elapsed() < min {
        let t = Instant::now();
        if !call(samples.len() as u64 + 1) {
            return None;
        }
        samples.push(t.elapsed().as_secs_f64() * 1e3);
    }
    Some(median(&samples))
}

/// `Replica::submit_sync` on a four-replica counter, no service tier.
pub fn rsm_submit_sync(min: Duration, rng: &mut Rng) -> (Vec<Metric>, Vec<String>) {
    let replicas: Vec<Replica<u64>> = node_load::cluster(rng.next_u64(), false)
        .into_iter()
        .map(|node| Replica::new(node, 0u64, |count, _, _| *count += 1))
        .collect();
    let cmd = Bytes::from(rng.bytes(64));
    let mut calls = 0;
    let ms = median_call_ms(min, |i| {
        calls = i;
        replicas[0].submit_sync(cmd.clone()).is_ok()
    });
    let applied = replicas[0].read(|count| *count);
    for r in &replicas {
        r.shutdown();
    }
    drop(replicas);
    match ms {
        Some(ms) if applied == calls => (vec![("rsm.submit_sync_ms", ms)], Vec::new()),
        _ => (
            vec![("rsm.submit_sync_ms", 0.0)],
            vec![format!(
                "rsm rung: {applied} applied after {calls} submit_sync calls"
            )],
        ),
    }
}

/// `ServiceReplica::submit` on four service replicas, no sockets.
pub fn service_replica_submit(min: Duration, rng: &mut Rng) -> (Vec<Metric>, Vec<String>) {
    let replicas: Vec<ServiceReplica<svc_load::LoadState>> =
        node_load::cluster(rng.next_u64(), false)
            .into_iter()
            .map(|node| {
                ServiceReplica::new(
                    node,
                    svc_load::LoadState::default(),
                    ServiceConfig::default(),
                    svc_load::apply,
                    svc_load::query,
                )
            })
            .collect();
    let mut calls = 0;
    let mut last = 0;
    let ms = median_call_ms(min, |seq| {
        calls = seq;
        let cmd = Bytes::from(crate::load::payload(rng, seq, 64));
        let reply = replicas[0].submit(1000, seq, CommandKind::Apply, cmd, OP_TIMEOUT);
        last = reply
            .ok()
            .as_deref()
            .and_then(svc_load::counter_of)
            .unwrap_or(0);
        last == seq
    });
    for r in &replicas {
        r.shutdown();
    }
    drop(replicas);
    match ms {
        Some(ms) => (vec![("service.replica_submit_ms", ms)], Vec::new()),
        None => (
            vec![("service.replica_submit_ms", 0.0)],
            vec![format!(
                "service rung: call {calls} returned counter {last}"
            )],
        ),
    }
}
