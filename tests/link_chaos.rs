//! Experiment X7 — link chaos over the real TCP mesh.
//!
//! The paper (§2.1) *assumes* reliable point-to-point channels and
//! discharges the assumption onto TCP + IPSec. This test discharges it
//! onto our session layer instead, adversarially: a 4-node cluster runs
//! atomic broadcast while a chaos thread forcibly kills every live
//! socket of every link at least five times. The protocols above must
//! never notice — zero lost deliveries, zero duplicates, identical
//! total order on every node — and the observability layer must report
//! the carnage (`ritas_transport_reconnects_total > 0` on `/metrics`).

use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use std::time::Duration;

const N: usize = 4;
const MSGS_PER_NODE: usize = 10;
const KILL_ROUNDS: usize = 5;
const PAIRS: [(usize, usize); 6] = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)];

#[test]
fn atomic_broadcast_survives_repeated_socket_kills_on_every_link() {
    let config = SessionConfig::new(N).unwrap().with_metrics_endpoint();
    let (nodes, chaos) =
        Node::tcp_cluster_with_chaos(config, Duration::from_secs(10)).expect("tcp mesh");
    let metrics_addr = nodes[0].metrics_addr().expect("metrics endpoint enabled");

    // The chaos thread: five rounds over all six links, each kill
    // severing the live socket (both directions) at the TCP level while
    // application traffic is in flight.
    let killer = std::thread::spawn(move || {
        for round in 0..KILL_ROUNDS {
            for (a, b) in PAIRS {
                chaos[a].kill_link(b);
                std::thread::sleep(Duration::from_millis(20 + (round as u64) * 5));
            }
        }
    });

    // Meanwhile every node atomically broadcasts a paced stream and
    // must a-deliver everyone's full stream.
    let total = N * MSGS_PER_NODE;
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                for k in 0..MSGS_PER_NODE {
                    node.atomic_broadcast(Bytes::from(format!("chaos-{}-{k}", node.id())))
                        .unwrap();
                    std::thread::sleep(Duration::from_millis(15));
                }
                let mut order = Vec::new();
                for i in 0..total {
                    let d = node
                        .atomic_recv_timeout(Duration::from_secs(60))
                        .unwrap_or_else(|e| {
                            panic!("node {} starved at delivery {i}: {e:?}", node.id())
                        });
                    order.push(d.id);
                }
                (node, order)
            })
        })
        .collect();
    let (nodes, orders): (Vec<Node>, Vec<Vec<_>>) =
        handles.into_iter().map(|h| h.join().unwrap()).unzip();
    killer.join().unwrap();

    // Zero loss, zero duplication: every node saw exactly `total`
    // distinct message ids...
    for (p, order) in orders.iter().enumerate() {
        let unique: std::collections::HashSet<_> = order.iter().collect();
        assert_eq!(
            unique.len(),
            total,
            "node {p} delivered a duplicate under link chaos"
        );
        // ...in the same total order everywhere.
        assert_eq!(order, &orders[0], "total order diverged at node {p}");
    }

    // The mesh actually went through reconnects and says so on /metrics.
    let body = scrape(metrics_addr);
    let reconnects = counter(&body, "ritas_transport_reconnects_total");
    assert!(reconnects > 0, "chaos run reported no reconnects:\n{body}");
    assert!(body.contains("# TYPE ritas_transport_reconnects_total counter"));
    // Once the last kill has healed, node 0 has all N - 1 links up.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let mut links_up = counter(&body, "ritas_transport_links_up");
    while links_up != (N - 1) as u64 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        links_up = counter(&scrape(metrics_addr), "ritas_transport_links_up");
    }
    assert_eq!(links_up, (N - 1) as u64);

    for node in nodes {
        node.shutdown();
    }
}

/// One Prometheus-style scrape of `addr`, returning the body.
fn scrape(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to /metrics");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: ritas\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1
        .to_string()
}

/// Extracts a plain counter sample from a text-exposition body.
fn counter(body: &str, name: &str) -> u64 {
    body.lines()
        .find_map(|l| l.strip_prefix(&format!("{name} ")))
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("no {name} sample in:\n{body}"))
}
