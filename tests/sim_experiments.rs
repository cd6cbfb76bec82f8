//! Reproduction acceptance tests: the paper's qualitative claims (§4.3)
//! checked against the calibrated simulator. These are the automated
//! counterparts of Table 1 and Figures 4–7; the bench binaries print the
//! full artifacts.

use ritas_sim::harness::{
    run_agreement_cost, run_burst_once, run_stack_latency, ProtocolUnderTest,
};
use ritas_sim::Faultload;

#[test]
fn table1_layer_ordering_and_overhead_band() {
    let rows = run_stack_latency(8, 2006);
    let get = |p: ProtocolUnderTest| rows.iter().find(|r| r.protocol == p).unwrap();
    let eb = get(ProtocolUnderTest::EchoBroadcast);
    let rb = get(ProtocolUnderTest::ReliableBroadcast);
    let bc = get(ProtocolUnderTest::BinaryConsensus);
    let mvc = get(ProtocolUnderTest::MultiValuedConsensus);
    let vc = get(ProtocolUnderTest::VectorConsensus);
    let ab = get(ProtocolUnderTest::AtomicBroadcast);

    // Layer ordering (Table 1).
    assert!(eb.with_ipsec_us < rb.with_ipsec_us);
    assert!(rb.with_ipsec_us < bc.with_ipsec_us);
    assert!(bc.with_ipsec_us < mvc.with_ipsec_us);
    assert!(mvc.with_ipsec_us < vc.with_ipsec_us);
    assert!(mvc.with_ipsec_us < ab.with_ipsec_us);

    // The paper's interdependency observations: an atomic broadcast
    // spends roughly 2/3 of its time in multi-valued consensus; a
    // multi-valued consensus roughly half in binary consensus; vector
    // consensus roughly 3/4 in multi-valued consensus.
    let frac = mvc.with_ipsec_us / ab.with_ipsec_us;
    assert!((0.5..0.95).contains(&frac), "MVC/AB = {frac:.2}");
    let frac = bc.with_ipsec_us / mvc.with_ipsec_us;
    assert!((0.4..0.85).contains(&frac), "BC/MVC = {frac:.2}");
    let frac = mvc.with_ipsec_us / vc.with_ipsec_us;
    assert!((0.6..0.98).contains(&frac), "MVC/VC = {frac:.2}");

    // IPSec overheads within (a tolerant version of) the paper's band.
    // Vector consensus is excluded: its latency occasionally includes a
    // second agreement round, and that variance dwarfs the AH delta at
    // this sample count (the paper averaged 100 runs).
    for r in &rows {
        if r.protocol == ProtocolUnderTest::VectorConsensus {
            continue;
        }
        let ovh = r.overhead_pct();
        assert!(
            (2.0..70.0).contains(&ovh),
            "{:?}: overhead {ovh:.1}% out of band",
            r.protocol
        );
    }
}

#[test]
fn fig4_latency_linear_and_throughput_plateaus() {
    // Latency roughly linear in burst size: doubling the burst must not
    // much more than double the latency once past the agreement floor.
    let (_, l250, _) = run_burst_once(Faultload::FailureFree, 10, 250, 1);
    let (_, l500, _) = run_burst_once(Faultload::FailureFree, 10, 500, 1);
    let ratio = l500 as f64 / l250 as f64;
    assert!((1.5..2.5).contains(&ratio), "latency ratio {ratio:.2}");

    // Throughput plateaus decrease with message size.
    let tput = |m: usize| {
        let (k, ns, _) = run_burst_once(Faultload::FailureFree, m, 500, 2);
        k as f64 / (ns as f64 / 1e9)
    };
    let t10 = tput(10);
    let t1k = tput(1000);
    let t10k = tput(10_000);
    assert!(
        t10 > t1k && t1k > t10k,
        "plateaus: {t10:.0} > {t1k:.0} > {t10k:.0}"
    );
    // Rough magnitude check against the paper's Tmax values (721 / 465 /
    // 81 msgs/s): within a factor of 2.5.
    assert!((300.0..1800.0).contains(&t10), "t10 = {t10:.0}");
    assert!((190.0..1200.0).contains(&t1k), "t1k = {t1k:.0}");
    assert!((32.0..210.0).contains(&t10k), "t10k = {t10k:.0}");
}

#[test]
fn fig5_fail_stop_not_slower() {
    // §4.2: with one crashed process there is less contention, so the
    // fail-stop faultload is at least as fast as failure-free.
    let mut wins = 0;
    for seed in 0..3 {
        let (_, ff, _) = run_burst_once(Faultload::FailureFree, 100, 120, seed);
        let (_, fs, _) = run_burst_once(Faultload::FailStop { victim: 3 }, 100, 120, seed);
        if fs <= ff {
            wins += 1;
        }
        assert!(
            (fs as f64) < (ff as f64) * 1.15,
            "seed {seed}: fail-stop {fs} ≫ failure-free {ff}"
        );
    }
    assert!(wins >= 2, "fail-stop should usually be faster");
}

#[test]
fn fig6_byzantine_immunity() {
    for seed in 0..3 {
        let (_, ff, _) = run_burst_once(Faultload::FailureFree, 10, 100, seed);
        let (k, byz, _) = run_burst_once(Faultload::Byzantine { attacker: 3 }, 10, 100, seed);
        assert_eq!(k, 100, "deliveries lost under attack");
        let ratio = byz as f64 / ff as f64;
        assert!(
            (0.8..1.3).contains(&ratio),
            "seed {seed}: attack changed performance by {ratio:.2}x"
        );
    }
}

#[test]
fn fig7_agreement_cost_declines_exponentially() {
    let points = run_agreement_cost(&[4, 40, 400], 7);
    assert!(
        points[0].agreement_pct > 80.0,
        "burst 4: {:.1}%",
        points[0].agreement_pct
    );
    assert!(
        points[1].agreement_pct < points[0].agreement_pct / 1.3,
        "no decline at 40"
    );
    assert!(
        points[2].agreement_pct < 25.0,
        "burst 400 still agreement-heavy: {:.1}%",
        points[2].agreement_pct
    );
}

#[test]
fn consensus_decides_in_one_round_under_all_faultloads() {
    // §4.3: "the binary consensus always terminated within one round",
    // even under the Byzantine faultload.
    for faultload in [
        Faultload::FailureFree,
        Faultload::FailStop { victim: 3 },
        Faultload::Byzantine { attacker: 3 },
    ] {
        let config = ritas_sim::SimConfig::paper_testbed(99).with_faultload(faultload);
        let mut sim = ritas_sim::SimCluster::new(config);
        for p in faultload.senders(4) {
            sim.schedule(
                0,
                p,
                ritas_sim::cluster::Action::AbBroadcast(bytes::Bytes::from_static(b"round-check")),
            );
        }
        sim.run();
        let observer = sim.observer();
        let stats = sim
            .stack(observer)
            .ab(0)
            .map(|ab| ab.stats())
            .expect("ab session");
        assert!(stats.delivered > 0, "{faultload:?}: nothing delivered");
        assert_eq!(
            stats.bc_rounds_max, 1,
            "{faultload:?}: binary consensus needed {} rounds",
            stats.bc_rounds_max
        );
        assert_eq!(
            stats.bottom_agreements, 0,
            "{faultload:?}: multi-valued consensus decided ⊥"
        );
    }
}

#[test]
fn two_agreements_per_burst() {
    // §4.2 "Relative Cost of Agreement": an entire burst is delivered
    // with about two agreements.
    let (_, _, agreements) = run_burst_once(Faultload::FailureFree, 10, 400, 5);
    assert!(
        (1..=3).contains(&agreements),
        "expected ~2 agreements, got {agreements}"
    );
}
