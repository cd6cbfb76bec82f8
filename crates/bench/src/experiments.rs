//! The simulated rows of [`EXPERIMENTS`](crate::EXPERIMENTS): each
//! function prints one artifact to `out` (progress goes to stderr) and
//! is a pure function of its [`Args`]. `EXPERIMENTS.md` discusses what
//! each one shows.

use crate::{Args, PAPER_TABLE1};
use bytes::Bytes;
use ritas::adversary::{innermost_rb, ProtocolMsg, SendCtx, Strategy};
use ritas::bc::Profile;
use ritas::mvc::{MvcConfig, VectTransport};
use ritas::rb::RbMessage;
use ritas::stack::InstanceKey;
use ritas::stack::{Stack, StackStep};
use ritas::testing::{Cluster, Schedule};
use ritas_sim::cluster::{Action, SimCluster, SimConfig};
use ritas_sim::harness::{
    measure_with_config, run_ab_burst, run_agreement_cost, run_stack_latency, run_steady_state,
    ProtocolUnderTest, StackLatencyRow,
};
use ritas_sim::stats::mean;
use ritas_sim::Calibration;
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The burst sizes of Figures 4–7 (paper: up to 1000).
const BURSTS: [usize; 8] = [4, 8, 16, 40, 100, 250, 500, 1000];

/// The message sizes of Figures 4–6.
const MSG_SIZES: [usize; 4] = [10, 100, 1000, 10_000];

/// A cluster under `config`, run to quiescence after process `p` was
/// handed `actions(p)` at time 0.
pub(crate) fn simulate(config: SimConfig, actions: impl Fn(usize) -> Vec<Action>) -> SimCluster {
    let mut sim = SimCluster::new(config);
    for p in 0..config.n {
        for action in actions(p) {
            sim.schedule(0, p, action);
        }
    }
    sim.run();
    sim
}

/// Mean latency in µs of `samples` isolated executions of `protocol`,
/// the i-th under `config(i)` (which also carries its seed).
fn mean_latency_us(
    protocol: ProtocolUnderTest,
    samples: usize,
    config: impl Fn(u64) -> SimConfig,
) -> f64 {
    let us: Vec<f64> = (0..samples as u64)
        .map(|i| {
            let config = config(i);
            measure_with_config(protocol, config, config.seed) as f64 / 1000.0
        })
        .collect();
    mean(&us)
}

/// **Table 1**: average latency of isolated executions of each protocol,
/// with and without the channel authentication ("IPSec") layer and the
/// overhead it adds, the paper's values alongside.
pub(crate) fn table1(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    eprintln!(
        "Table 1: {} isolated executions per protocol per mode (seed {})",
        args.runs, args.seed
    );
    let rows = run_stack_latency(args.runs, args.seed);
    render_table1(&rows, out)?;
    let with = |i: usize| rows[i].with_ipsec_us;
    writeln!(
        out,
        "\nInterdependencies (paper §4.1): MVC/BC = {:.2} (paper ~1.8 w/), VC/MVC = {:.2} \
         (paper ~1.26), AB/MVC = {:.2} (paper ~1.45)",
        with(3) / with(2),
        with(4) / with(3),
        with(5) / with(3),
    )
}

/// Table 1's header and one line per measured row, the paper's values
/// for the same protocol alongside.
fn render_table1(rows: &[StackLatencyRow], out: &mut dyn Write) -> io::Result<()> {
    writeln!(
        out,
        "{:<24} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}",
        "", "measured", "", "", "paper", "", ""
    )?;
    writeln!(
        out,
        "{:<24} | {:>10} {:>10} {:>6} | {:>10} {:>10} {:>6}",
        "Protocol", "w/ (us)", "w/o (us)", "ovh%", "w/ (us)", "w/o (us)", "ovh%"
    )?;
    writeln!(out, "{}", "-".repeat(100))?;
    for r in rows {
        let label = r.protocol.label();
        let (_, pw, pwo, po) = PAPER_TABLE1
            .into_iter()
            .find(|(paper, ..)| *paper == label)
            .expect("a Table 1 protocol");
        let (w, wo, ovh) = (r.with_ipsec_us, r.without_ipsec_us, r.overhead_pct());
        writeln!(
            out,
            "{label:<24} | {w:>10.0} {wo:>10.0} {ovh:>5.0}% | {pw:>10.0} {pwo:>10.0} {po:>5.0}%"
        )?;
    }
    Ok(())
}

/// **Figures 4–6**: atomic broadcast burst latency and throughput under
/// `args.faultload`, one curve per message size, with the paper's
/// burst-of-1000 `(message size, latency ms, max throughput msg/s)` for
/// that figure alongside. Expected (paper §4.2): a crash makes runs no
/// slower, and a Byzantine process attacking the consensus layers leaves
/// performance "basically immune".
pub(crate) fn burst_figure(
    args: &Args,
    out: &mut dyn Write,
    title: &str,
    paper_1000: [(usize, f64, f64); 4],
) -> io::Result<()> {
    let (sizes, bursts): (&[usize], &[usize]) = if args.quick {
        (&[10, 1000], &[4, 16, 100])
    } else {
        (&MSG_SIZES, &BURSTS)
    };
    eprintln!("{title}: {} runs per point, seed {}", args.runs, args.seed);
    for s in run_ab_burst(args.faultload, sizes, bursts, args.runs, args.seed) {
        writeln!(
            out,
            "--- message size {} bytes ({} faultload) ---",
            s.msg_size,
            s.faultload.label()
        )?;
        writeln!(
            out,
            "   burst   latency (ms) throughput (msg/s)   agreements"
        )?;
        for p in &s.points {
            writeln!(
                out,
                "{:>8} {:>14.1} {:>18.0} {:>12.1}",
                p.burst, p.latency_ms, p.throughput_msgs_per_sec, p.agreements
            )?;
        }
        if let Some((_, pl, pt)) = paper_1000.iter().find(|(m, ..)| *m == s.msg_size) {
            writeln!(
                out,
                "  paper @ burst 1000: latency {pl:.0} ms, Tmax {pt:.0} msg/s"
            )?;
        }
        writeln!(out)?;
    }
    Ok(())
}

/// **Figure 7**: the share of all reliable/echo broadcasts spent on the
/// agreement machinery versus burst size (failure-free, 10-byte
/// messages).
pub(crate) fn fig7(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let bursts: &[usize] = if args.quick { &[4, 40, 200] } else { &BURSTS };
    eprintln!("Figure 7 (relative cost of agreement), seed {}", args.seed);
    writeln!(out, "   burst      payload    agreement  agreement %")?;
    for p in run_agreement_cost(bursts, args.seed) {
        writeln!(
            out,
            "{:>8} {:>12} {:>12} {:>11.1}%",
            p.burst, p.payload_broadcasts, p.agreement_broadcasts, p.agreement_pct
        )?;
    }
    writeln!(
        out,
        "\npaper: ~92% at burst 4, dropping exponentially to 2.4% at burst 1000"
    )
}

/// A transport ablation: `protocol`'s latency at n = 4, 7, 10 under each
/// of two `(name, config)` variants, the first the baseline of the ratio
/// column; the two widths are the name and ratio columns' under `header`.
fn transport_ablation(
    args: &Args,
    out: &mut dyn Write,
    protocol: ProtocolUnderTest,
    (header, name_width, ratio_width): (&str, usize, usize),
    seed_stride: u64,
    variants: [(String, MvcConfig); 2],
) -> io::Result<()> {
    let samples = args.runs.max(5);
    writeln!(out, "{header}")?;
    for n in [4usize, 7, 10] {
        let mut base = None;
        for (name, mvc) in &variants {
            let us = mean_latency_us(protocol, samples, |i| {
                let seed = args.seed.wrapping_add(i * seed_stride);
                SimConfig::paper_testbed(seed.wrapping_add(n as u64))
                    .with_n(n)
                    .with_mvc(*mvc)
            });
            let ratio = us / *base.get_or_insert(us);
            writeln!(
                out,
                "{n:>4} {name:>name_width$} {us:>14.0} {ratio:>ratio_width$.2}x"
            )?;
        }
    }
    writeln!(out)
}

/// **Ablation A1**: the binary consensus of the two profiles. `paper` is
/// Bracha's as the paper describes it (§2.4): three steps per round, each
/// step value carried by "the underlying reliable broadcast". `lean` is
/// BV-broadcast + `AUX` as plain fan-outs on the dealt common coin — what
/// the node runtime and the service tier run. Both tolerate `f < n/3`
/// Byzantine processes.
pub(crate) fn a1(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let variants = [Profile::Paper, Profile::Lean].map(|profile| {
        let mvc = MvcConfig {
            profile,
            ..MvcConfig::default()
        };
        (profile.to_string(), mvc)
    });
    let header = "   n  profile   latency (us)   vs paper";
    let bc = ProtocolUnderTest::BinaryConsensus;
    transport_ablation(args, out, bc, (header, 8, 9), 7919, variants)?;
    writeln!(
        out,
        "note: both are Byzantine-safe; lean's common coin is one every member can compute\n\
         (ROADMAP item 8), which costs liveness against a scheduler that is also a member"
    )
}

/// **Ablation A2**: echo vs reliable broadcast for the multi-valued
/// consensus `VECT` messages — the optimization the paper claims over
/// the original Correia et al. protocol (§2.5).
pub(crate) fn a2(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let variants = [VectTransport::Reliable, VectTransport::Echo].map(|t| {
        let mvc = MvcConfig {
            vect_transport: t,
            ..MvcConfig::default()
        };
        (format!("{t:?}"), mvc)
    });
    let header = "   n     VECT transport   latency (us)  vs reliable";
    let mvc = ProtocolUnderTest::MultiValuedConsensus;
    transport_ablation(args, out, mvc, (header, 18, 11), 104729, variants)?;
    writeln!(
        out,
        "paper's claim: echo broadcast is the cheaper transport for VECT"
    )
}

/// **Ablation A3**: signature-free MACs vs a SINTRA-style public-key
/// stack (§5) — an RSA-era per-message signing/verification cost applied
/// to the same protocols.
pub(crate) fn a3(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let samples = args.runs.max(3);
    writeln!(
        out,
        "protocol                   MAC stack (us)      PK stack (us)   slowdown"
    )?;
    for protocol in [
        ProtocolUnderTest::ReliableBroadcast,
        ProtocolUnderTest::BinaryConsensus,
        ProtocolUnderTest::AtomicBroadcast,
    ] {
        let run = |cal: Calibration, salt: u64| {
            mean_latency_us(protocol, samples, |i| {
                SimConfig::paper_testbed(args.seed.wrapping_add(i * 31 + salt))
                    .with_calibration(cal)
            })
        };
        let mac = run(Calibration::default(), 0);
        let pk = run(Calibration::default().with_public_key_costs(), 1);
        let (label, slowdown) = (protocol.label(), pk / mac);
        writeln!(out, "{label:<24} {mac:>16.0} {pk:>18.0} {slowdown:>9.1}x")?;
    }
    writeln!(
        out,
        "\npaper §5: SINTRA (public-key, Java) ~1.45 atomic msgs/s vs RITAS ~721 msgs/s"
    )
}

/// **Extension X2**: the paper's closing conjecture of §4.2 — "in a
/// more asymmetrical environment, like a WAN, it is not guaranteed that
/// this result [all consensus deciding in one round] can be
/// reproduced". Sweeps per-link propagation asymmetry from the
/// calibrated LAN to WAN-like spreads over many seeded atomic broadcast
/// runs.
pub(crate) fn x2(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let runs = args.runs.max(10);
    writeln!(
        out,
        "topology                 1-round rate   bottom-agreem.   latency (ms)"
    )?;
    for (label, spread) in [
        ("LAN (uniform 35us)", None),
        ("campus (0.1-1ms)", Some((100_000, 1_000_000))),
        ("metro (1-10ms)", Some((1_000_000, 10_000_000))),
        ("WAN (10-80ms)", Some((10_000_000, 80_000_000))),
    ] {
        let (mut one_round, mut bottoms, mut latency_ms) = (0u32, 0u64, 0.0f64);
        for i in 0..runs {
            let mut config = SimConfig::paper_testbed(args.seed.wrapping_add(i as u64 * 6151));
            if let Some((lo, hi)) = spread {
                config = config.with_wan_spread(lo, hi);
            }
            let sim = simulate(config, |p| {
                (0..5)
                    .map(|k| Action::AbBroadcast(Bytes::from(format!("w{p}:{k}"))))
                    .collect()
            });
            let observer = sim.observer();
            let stats = sim.stack(observer).ab(0).expect("session").stats();
            assert_eq!(stats.delivered, 20, "deliveries lost");
            one_round += u32::from(stats.bc_rounds_max <= 1);
            bottoms += stats.bottom_agreements;
            latency_ms += *sim.ab_delivery_times(observer).last().unwrap() as f64 / 1e6;
        }
        let (rate, latency_ms) = (
            100.0 * f64::from(one_round) / runs as f64,
            latency_ms / runs as f64,
        );
        writeln!(
            out,
            "{label:<22} {rate:>13.0}% {bottoms:>16} {latency_ms:>14.1}"
        )?;
    }
    writeln!(
        out,
        "\nreading: an agreement aborts now and then even on the symmetric LAN; as per-link\n\
         asymmetry grows, processes snapshot different views, the multi-valued consensus\n\
         decides ⊥ more often and rounds must be retried — the cost the paper's §4.2\n\
         conjecture anticipated for WANs, in direction (at the default ten runs per row\n\
         the counts are small). (Binary consensus itself still usually decides in one\n\
         round: divergent views make correct processes propose a unanimous 0.)\n\
         Correctness never degrades: every run delivered all 20 messages in an\n\
         identical order."
    )
}

/// **Extension X3**: scaling beyond the paper's `n = 4` testbed —
/// isolated latencies of the key layers and the throughput of a
/// 120-message atomic broadcast burst at `n ∈ {4, 7, 10, 13}`.
pub(crate) fn x3(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let samples = args.runs.max(5);
    writeln!(
        out,
        "   n   f    RB (us)    BC (us)    AB (us)  AB tput (m/s)"
    )?;
    for n in [4usize, 7, 10, 13] {
        let latency = |protocol| {
            mean_latency_us(protocol, samples, |i| {
                SimConfig::paper_testbed(args.seed.wrapping_add(i * 2903 + n as u64)).with_n(n)
            })
        };
        let (f, rb, bc, ab) = (
            (n - 1) / 3,
            latency(ProtocolUnderTest::ReliableBroadcast),
            latency(ProtocolUnderTest::BinaryConsensus),
            latency(ProtocolUnderTest::AtomicBroadcast),
        );
        let share = 120 / n;
        let sim = simulate(SimConfig::paper_testbed(args.seed).with_n(n), |_| {
            vec![Action::AbBroadcast(Bytes::from_static(b"0123456789")); share]
        });
        let times = sim.ab_delivery_times(sim.observer());
        assert_eq!(times.len(), share * n);
        let tput = (share * n) as f64 / (*times.last().unwrap() as f64 / 1e9);
        writeln!(
            out,
            "{n:>4} {f:>3} {rb:>10.0} {bc:>10.0} {ab:>10.0} {tput:>14.0}"
        )?;
    }
    writeln!(
        out,
        "\nreliable broadcast grows ~O(n) in latency (fan-out serialization), binary\n\
         consensus ~O(n^2) (n broadcasts per step over n-sized RBCs), and burst\n\
         throughput falls accordingly — the cost of optimal resilience at scale."
    )
}

/// **Extension X4**: decided-round histogram of randomized binary
/// consensus in both profiles — Bracha's with Ben-Or local coins (§2.4)
/// and the lean one with the common coin dealt with the keys (a
/// Rabin-style coin, §5) — over many seeded runs with *divergent*
/// proposals (2 vs 2, no initial majority), the hard case.
pub(crate) fn x4(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let runs = args.runs.max(100);
    writeln!(
        out,
        "binary consensus decided-round distribution, {runs} runs, split 2-2 proposals\n"
    )?;
    for (label, profile) in [
        ("Bracha, local coins", Profile::Paper),
        ("lean, dealt coin", Profile::Lean),
    ] {
        let mvc = MvcConfig {
            profile,
            ..MvcConfig::default()
        };
        let mut histogram = std::collections::BTreeMap::<u32, u32>::new();
        for i in 0..runs {
            let seed = args.seed.wrapping_add(i as u64 * 131);
            let sim = simulate(SimConfig::paper_testbed(seed).with_mvc(mvc), |p| {
                let value = p % 2 == 0;
                vec![Action::BcPropose { tag: 1, value }]
            });
            let round = sim.stack(sim.observer()).bc_decided_round(1);
            *histogram
                .entry(round.expect("consensus terminated"))
                .or_insert(0) += 1;
        }
        let mean = histogram.iter().map(|(r, c)| r * c).sum::<u32>() as f64 / runs as f64;
        let max = histogram.keys().max().expect("at least one run");
        write!(out, "{label:<22} mean {mean:.2} rounds, max {max}  |")?;
        for (r, c) in &histogram {
            write!(out, " r{r}:{c}")?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "\nBracha's keeps the paper's observation: despite the 2^(n-f) worst case, the\n\
         symmetric LAN decides in round 1 even for split proposals, because delivery\n\
         order makes the step-1 majority common. The lean one never does: a 2-2 split\n\
         BV-delivers both values everywhere, so round 1 ends with est = coin(1) = 1,\n\
         round 2 holds {{1}} against the fixed coin(2) = 0, and from round 3 on each\n\
         round decides when the common coin comes up 1 — a geometric tail. At 2 message\n\
         delays and at most 3n² frames a round (2n² EST + AUX, n² relays) against\n\
         Bracha's 9 and 3n(n + 2n²), the lean mean still costs fewer of both than\n\
         Bracha's single round."
    )
}

/// **Extension X5**: point-to-point frames (loopback included) of one
/// isolated instance of each protocol at n = 4 and 7 against the
/// closed-form counts, asserted for every layer so that a drift in any
/// of them fails the run — and with it `ritas-bench check`.
///
/// Closed forms (n processes, f = ⌊(n − 1)/3⌋, failure-free):
///
/// * reliable broadcast: `n + 2n²` (1 INIT fan-out + n ECHO + n READY);
/// * echo broadcast: `n + n + (f + 1)·n` (INIT fan-out, n VECT unicasts,
///   and the sender's MAT columns — a first set once n − f rows are in,
///   one more set for each of the f rows that arrive after it);
/// * binary consensus, `paper` (RBC per step): `3 · n · (n + 2n²)` per
///   round; all decide in round 1 and a decided instance sends nothing of
///   round 2 unless another process asks for it, so one round is the
///   count;
/// * binary consensus, `lean`: `2n²` (one `EST` and one `AUX` fan-out per
///   process; a unanimous 1 decides in round 1 and nobody names round 2);
/// * multi-valued consensus: n INIT reliable broadcasts + n VECT echo
///   broadcasts + one binary consensus;
/// * vector consensus: n proposal reliable broadcasts + one multi-valued
///   consensus; atomic broadcast of one message: its reliable broadcast +
///   n `AB_VECT` reliable broadcasts + one multi-valued consensus.
///
/// And the bytes one reliable broadcast of `m` puts on the wire, counted
/// as its messages' bodies between distinct processes: `paper` carries
/// `m` in `n − 1` INITs and `n(n − 1)` ECHOs and READYs each,
/// `(n − 1)(2n + 1)·|m|`; `lean`'s READY carries a 32-byte digest,
/// `(n − 1)(n + 1)·|m| + n(n − 1)·32`.
pub(crate) fn x5(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let payload = || Bytes::from_static(b"0123456789");
    for n in [4u64, 7] {
        let f = (n - 1) / 3;
        let rb = n + 2 * n * n;
        let eb = n + n + (f + 1) * n;
        // Per profile: binary consensus, then multi-valued consensus.
        let bc = [3 * n * rb, 2 * n * n];
        let mvc = bc.map(|bc| n * rb + n * eb + bc);
        // (protocol, closed form per profile, how many processes start
        // it, how)
        type Start<'a> = &'a dyn Fn(&mut Stack) -> StackStep;
        let protocols: [(&str, [u64; 2], u64, Start); 6] = [
            ("Echo Broadcast", [eb; 2], 1, &|s| {
                s.eb_broadcast(payload()).1
            }),
            ("Reliable Broadcast", [rb; 2], 1, &|s| {
                s.rb_broadcast(payload()).1
            }),
            ("Binary Consensus", bc, n, &|s| {
                s.bc_propose(1, true).unwrap()
            }),
            ("Multi-valued Consensus", mvc, n, &|s| {
                s.mvc_propose(1, payload()).unwrap()
            }),
            ("Vector Consensus", mvc.map(|mvc| n * rb + mvc), n, &|s| {
                s.vc_propose(1, payload()).unwrap()
            }),
            // Paper: the batch's RB, n AB_VECT RBs and a multi-valued
            // consensus. Lean: the batch's RB and one binary consensus, in
            // slot 0, which the isolated sender leads.
            (
                "Atomic Broadcast",
                [rb + n * rb + mvc[0], rb + bc[1]],
                1,
                &|s| s.ab_broadcast(0, payload()).1,
            ),
        ];
        writeln!(
            out,
            "message complexity per isolated instance, n = {n}, failure-free\n"
        )?;
        writeln!(out, "{:<24} {:>23} {:>23}", "", "paper", "lean")?;
        let (frames, form) = ("frames", "closed form");
        writeln!(
            out,
            "{:<24} {frames:>10} {form:>12} {frames:>10} {form:>12}",
            "protocol"
        )?;
        for (name, forms, starters, start) in protocols {
            write!(out, "{name:<24}")?;
            for (profile, form) in [Profile::Paper, Profile::Lean].into_iter().zip(forms) {
                let mut cluster = Cluster::with_profile(n as usize, 1, profile);
                // In send order every process sees the same first n − f
                // proposals, so vector consensus needs one multi-valued
                // consensus; under another schedule views can differ and
                // it runs a second one (n = 7, random).
                cluster.set_schedule(Schedule::Fifo);
                for p in 0..n as usize {
                    cluster.stack_mut(p).set_metrics(args.metrics.clone());
                }
                for p in 0..starters as usize {
                    let step = start(cluster.stack_mut(p));
                    cluster.absorb(p, step);
                }
                cluster.run();
                let frames = cluster.delivered_frames();
                write!(out, " {frames:>10} {form:>12}")?;
                let what = format!("{name} ({profile}) at n = {n}");
                assert!(!cluster.outputs(0).is_empty(), "{what} did not complete");
                assert_eq!(frames, form, "{what}: frame count drifted");
            }
            writeln!(out)?;
        }
        writeln!(
            out,
            "\nreliable broadcast bytes per instance, n = {n}, self-sends excluded\n"
        )?;
        writeln!(out, "{:<24} {:>23} {:>23}", "", "paper", "lean")?;
        let (bytes, form) = ("bytes", "closed form");
        writeln!(
            out,
            "{:<24} {bytes:>10} {form:>12} {bytes:>10} {form:>12}",
            "|m|"
        )?;
        for len in [10u64, 4096] {
            let copies = [(n - 1) * (2 * n + 1) * len, (n - 1) * (n + 1) * len];
            let forms = [copies[0], copies[1] + n * (n - 1) * 32];
            write!(out, "{len:<24}")?;
            for (profile, form) in [Profile::Paper, Profile::Lean].into_iter().zip(forms) {
                let bytes = rb_wire_bytes(n as usize, profile, len as usize);
                write!(out, " {bytes:>10} {form:>12}")?;
                let what = format!("reliable broadcast ({profile}) of {len} B at n = {n}");
                assert_eq!(bytes, form, "{what}: wire bytes drifted");
            }
            writeln!(out)?;
        }
        writeln!(out)?;
    }
    writeln!(
        out,
        "the paper's O(n³)-per-round binary consensus dominates every composite —\n\
         which is why its 'dilute agreements across a burst' observation (Figure 7)\n\
         matters so much in practice. The lean one costs 2n² frames, and lean\n\
         atomic broadcast orders a batch with one of them in its sender's slot\n\
         (n + 4n² frames) instead of n AB_VECT reliable broadcasts and a\n\
         multi-valued consensus per round; a slot whose sender has no batch\n\
         costs 4n² (decided 0 in round 2). The lean READY names m by its\n\
         SHA-256, so a reliable broadcast carries n(n − 1) fewer copies of m\n\
         for n(n − 1) digests: fewer bytes once |m| exceeds 32."
    )
}

/// Adds up, per destination other than the sender, the body of every
/// reliable broadcast message a process sends; sends what it was given.
#[derive(Debug)]
struct RbBytes(Arc<AtomicU64>);

impl Strategy for RbBytes {
    fn name(&self) -> &'static str {
        "rb-bytes"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        if let Some((_, rb)) = innermost_rb(&mut msg).filter(|_| ctx.to != ctx.me) {
            let body = match rb {
                RbMessage::ReadyDigest(h) => h.len(),
                other => other.payload().map_or(0, Bytes::len),
            };
            self.0.fetch_add(body as u64, Ordering::Relaxed);
        }
        vec![msg.frame(key)]
    }
}

/// The reliable broadcast bytes of one failure-free broadcast of a
/// `len`-byte payload among `n` `profile` stacks.
fn rb_wire_bytes(n: usize, profile: Profile, len: usize) -> u64 {
    let total = Arc::new(AtomicU64::new(0));
    let mut cluster = Cluster::with_profile(n, 1, profile);
    for p in 0..n {
        cluster.set_strategy(p, Box::new(RbBytes(Arc::clone(&total))));
    }
    let step = cluster
        .stack_mut(0)
        .rb_broadcast(Bytes::from(vec![0x5a; len]))
        .1;
    cluster.absorb(0, step);
    cluster.run();
    assert!(
        !cluster.outputs(n - 1).is_empty(),
        "the broadcast completed"
    );
    total.load(Ordering::Relaxed)
}

/// **Extension X7b**: open-loop (steady-state) load on atomic
/// broadcast. The paper's Figures 4–6 are closed-loop bursts; this sweep
/// offers messages at fixed rates around the measured `T_max` plateau
/// and reports the delivery-latency distribution — the queueing knee
/// that tells a deployer the service's safe operating region.
pub(crate) fn x7b(args: &Args, out: &mut dyn Write) -> io::Result<()> {
    let window_ms = if args.quick { 80 } else { 200 };
    writeln!(
        out,
        "  rate (msg/s)    offered    delivered  mean lat (ms)   p99 lat (ms)"
    )?;
    for rate in [100.0, 300.0, 600.0, 900.0, 1200.0, 1800.0, 3000.0] {
        let p = run_steady_state(rate, window_ms, args.seed);
        writeln!(
            out,
            "{:>14.0} {:>10} {:>12} {:>14.1} {:>14.1}",
            p.offered_rate, p.offered, p.delivered, p.mean_latency_ms, p.p99_latency_ms
        )?;
    }
    writeln!(
        out,
        "\nlatency stays near the isolated-instance floor below the Figure-4 plateau\n\
         (~1000 msg/s at this calibration) and grows without bound past it."
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_rendering_includes_paper_columns() {
        let rows = [StackLatencyRow {
            protocol: ProtocolUnderTest::ReliableBroadcast,
            with_ipsec_us: 2000.0,
            without_ipsec_us: 1500.0,
        }];
        let mut out = Vec::new();
        render_table1(&rows, &mut out).unwrap();
        let s = String::from_utf8(out).unwrap();
        assert!(s.contains("Reliable Broadcast"));
        assert!(s.contains("2134")); // paper reference value
        assert!(s.contains("33%")); // measured overhead
    }

    #[test]
    fn defaults_are_sane() {
        assert!(BURSTS.contains(&1000));
        assert_eq!(MSG_SIZES.len(), 4);
    }
}
