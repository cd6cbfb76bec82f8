//! The paper's actual deployment shape: the RITAS stack over **real TCP
//! sockets** with the AH-style authentication layer computing real
//! HMAC-SHA-1-96 on every frame — TCP for reliability, MACs for
//! integrity, exactly the §2.1 reliable channel.
//!
//! Run with: `cargo run --example tcp_cluster`
//!
//! All four endpoints live in this OS process for the demo, but each
//! speaks length-prefixed frames over a genuine localhost socket; for a
//! multi-host deployment, establish a `TcpEndpoint` with your address
//! list and hand it to `Node::new` (as the `ritas-node` binary does).

use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("Establishing a 4-process TCP mesh on localhost…");
    let started = Instant::now();
    let nodes = Node::tcp_cluster(SessionConfig::new(4)?, Duration::from_secs(10))?;
    println!(
        "  mesh up in {:?} (6 connections, all frames HMAC-sealed)",
        started.elapsed()
    );

    let mut handles = Vec::new();
    for node in nodes {
        handles.push(std::thread::spawn(
            move || -> Result<_, ritas::node::NodeError> {
                let me = node.id();
                // One consensus and a few atomic broadcasts per process.
                let elected = node.binary_consensus(1, me % 2 == 0)?;
                for k in 0..3 {
                    node.atomic_broadcast(Bytes::from(format!("p{me}-msg{k}")))?;
                }
                let mut order = Vec::new();
                for _ in 0..12 {
                    order.push(node.atomic_recv()?.id);
                }
                node.shutdown();
                Ok((me, elected, order))
            },
        ));
    }

    let mut results: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("thread panicked"))
        .collect::<Result<_, _>>()?;
    results.sort_by_key(|(me, ..)| *me);

    let (_, elected0, order0) = &results[0];
    for (me, elected, order) in &results {
        assert_eq!(elected, elected0, "consensus diverged at p{me}");
        assert_eq!(order, order0, "total order diverged at p{me}");
    }

    println!("\nConsensus decision (same at all 4 processes): {elected0}");
    println!(
        "Total order over TCP ({} messages): identical everywhere. ✔",
        order0.len()
    );
    println!("Elapsed: {:?}", started.elapsed());
    Ok(())
}
