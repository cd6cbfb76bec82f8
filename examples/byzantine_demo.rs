//! The paper's Byzantine faultload, live: one process permanently
//! attacks the consensus layers while the others order a burst of
//! messages — and neither correctness nor performance suffers (§4.2,
//! Figure 6).
//!
//! Run with: `cargo run --release --example byzantine_demo`
//!
//! The demo uses the calibrated discrete-event simulator so the attack
//! runs deterministically and the virtual-time cost of the attack can be
//! compared with a failure-free baseline of the same seed.

use bytes::Bytes;
use ritas::stack::Output;
use ritas_sim::cluster::{Action, SimCluster, SimConfig};
use ritas_sim::Faultload;

fn run(faultload: Faultload, seed: u64) -> (Vec<Vec<(usize, u64)>>, f64, u32) {
    let config = SimConfig::paper_testbed(seed).with_faultload(faultload);
    let mut sim = SimCluster::new(config);
    // Every participant (including the attacker — its payloads are
    // legitimate, its attack is at the consensus layer) broadcasts 10
    // messages.
    for p in faultload.senders(4) {
        for k in 0..10u64 {
            sim.schedule(0, p, Action::AbBroadcast(Bytes::from(format!("m{p}:{k}"))));
        }
    }
    sim.run();

    let orders: Vec<Vec<(usize, u64)>> = (0..4)
        .map(|p| {
            sim.outputs(p)
                .iter()
                .filter_map(|(_, o)| match o {
                    Output::AbDelivered { delivery, .. } => {
                        Some((delivery.id.sender, delivery.id.rbid))
                    }
                    _ => None,
                })
                .collect()
        })
        .collect();
    let observer = sim.observer();
    let last_ms = sim
        .ab_delivery_times(observer)
        .last()
        .map(|ns| *ns as f64 / 1e6)
        .unwrap_or(0.0);
    let bc_rounds = sim
        .stack(observer)
        .ab(0)
        .map(|ab| ab.stats().bc_rounds_max)
        .unwrap_or(0);
    (orders, last_ms, bc_rounds)
}

fn main() {
    let seed = 2006; // DSN 2006

    println!("Baseline: failure-free burst of 40 messages (4 senders x 10)…");
    let (ff_orders, ff_ms, ff_rounds) = run(Faultload::FailureFree, seed);
    println!(
        "  delivered {} messages in {:.1} ms of virtual time (max BC rounds: {ff_rounds})",
        ff_orders[0].len(),
        ff_ms
    );

    println!();
    println!("Attack: process 3 runs the paper's Byzantine strategy —");
    println!("  * always proposes 0 at the binary consensus layer,");
    println!("  * proposes the default value ⊥ in the MVC INIT and VECT messages,");
    println!("  trying to force correct processes to abort every agreement.");
    let (byz_orders, byz_ms, byz_rounds) = run(Faultload::Byzantine { attacker: 3 }, seed);
    println!(
        "  delivered {} messages in {:.1} ms of virtual time (max BC rounds: {byz_rounds})",
        byz_orders[0].len(),
        byz_ms
    );

    // Agreement among the correct processes (0, 1, 2).
    for p in 1..3 {
        assert_eq!(
            byz_orders[p], byz_orders[0],
            "total order diverged at correct process {p}"
        );
    }
    assert_eq!(byz_orders[0].len(), 40, "messages lost under attack");

    let slowdown = byz_ms / ff_ms;
    println!();
    println!("Result: identical total order at every correct process. ✔");
    println!(
        "Performance under attack: {:.2}x the failure-free baseline \
         (the paper found the protocols 'basically immune').",
        slowdown
    );
    assert!(
        slowdown < 1.5,
        "the Byzantine process should not be able to slow the protocols much"
    );
}
