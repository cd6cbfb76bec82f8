//! End-to-end tests of the threaded node runtime over the authenticated
//! in-memory transport — the closest analogue to the paper's deployed
//! C library (§3).

use bytes::Bytes;
use ritas::adversary::StrategyKind;
use ritas::node::{Node, NodeError, SessionConfig};
use ritas::testing::byzantine_cluster_with_hub;
use ritas_metrics::FlightKind;
use std::collections::HashMap;
use std::time::Duration;

/// Runs `body` on every node of a fresh cluster, in parallel threads.
fn with_cluster<T: Send + 'static>(
    config: SessionConfig,
    body: impl Fn(Node) -> T + Send + Sync + Clone + 'static,
) -> Vec<T> {
    let nodes = Node::cluster(config).expect("cluster");
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            let body = body.clone();
            std::thread::spawn(move || body(node))
        })
        .collect();
    handles
        .into_iter()
        .map(|h| h.join().expect("join"))
        .collect()
}

#[test]
fn pipelined_reliable_broadcasts_arrive_in_per_sender_order() {
    let results = with_cluster(SessionConfig::new(4).unwrap(), |node| {
        if node.id() == 2 {
            for k in 0..20u32 {
                node.reliable_broadcast(Bytes::copy_from_slice(&k.to_be_bytes()))
                    .unwrap();
            }
        }
        let mut got = Vec::new();
        for _ in 0..20 {
            let (sender, payload) = node.rb_recv().unwrap();
            assert_eq!(sender, 2);
            got.push(u32::from_be_bytes(payload.as_ref().try_into().unwrap()));
        }
        node.shutdown();
        got
    });
    // Stack instance keys carry the sender's sequence number; deliveries
    // complete in arbitrary order across instances, but every node must
    // see each value exactly once.
    for got in results {
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..20).collect::<Vec<_>>());
    }
}

#[test]
fn mixed_protocol_session() {
    let results = with_cluster(SessionConfig::new(4).unwrap(), |node| {
        // A consensus, a broadcast and an atomic broadcast in the same
        // session, like an application would.
        let bit = node.binary_consensus(10, node.id() != 3).unwrap();
        node.atomic_broadcast(Bytes::from(format!("from-{}", node.id())))
            .unwrap();
        if node.id() == 0 {
            node.echo_broadcast(Bytes::from_static(b"echo!")).unwrap();
        }
        let (eb_sender, eb_payload) = node.eb_recv().unwrap();
        let mut order = Vec::new();
        for _ in 0..4 {
            order.push(node.atomic_recv().unwrap().id);
        }
        node.shutdown();
        (bit, eb_sender, eb_payload, order)
    });
    let reference = results[0].clone();
    for r in &results {
        assert_eq!(r.0, reference.0, "bc decisions diverged");
        assert_eq!((r.1, r.2.as_ref()), (0, &b"echo!"[..]));
        assert_eq!(r.3, reference.3, "total order diverged");
    }
}

#[test]
fn consensus_with_divergent_proposals_still_agrees() {
    let results = with_cluster(SessionConfig::new(4).unwrap(), |node| {
        let v = node
            .multi_valued_consensus(5, Bytes::from(format!("proposal-{}", node.id())))
            .unwrap();
        node.shutdown();
        v
    });
    for r in &results {
        assert_eq!(*r, results[0], "mvc agreement violated");
    }
}

#[test]
fn seven_node_cluster() {
    let results = with_cluster(SessionConfig::new(7).unwrap(), |node| {
        let d = node.binary_consensus(1, true).unwrap();
        node.shutdown();
        d
    });
    assert_eq!(results, vec![true; 7]);
}

#[test]
fn full_stack_over_real_tcp_with_real_hmacs() {
    // The complete paper deployment: protocol stack over TCP with the
    // AH-style authentication layer computing real HMAC-SHA-1-96 on
    // every frame — atomic broadcast and consensus end-to-end.
    let nodes = Node::tcp_cluster(SessionConfig::new(4).unwrap(), Duration::from_secs(10))
        .expect("tcp mesh");
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                let d = node.binary_consensus(1, true).unwrap();
                assert!(d);
                node.atomic_broadcast(Bytes::from(format!("tcp-{}", node.id())))
                    .unwrap();
                let mut order = Vec::new();
                for _ in 0..4 {
                    order.push(node.atomic_recv().unwrap().id);
                }
                node.shutdown();
                order
            })
        })
        .collect();
    let orders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for o in &orders {
        assert_eq!(o, &orders[0], "total order diverged over TCP");
    }
}

#[test]
fn metrics_endpoint_serves_prometheus_text_during_tcp_run() {
    use std::io::{Read, Write};

    // The deployed configuration: real TCP transport with the opt-in
    // observability endpoint enabled on every node.
    let config = SessionConfig::new(4).unwrap().with_metrics_endpoint();
    let nodes = Node::tcp_cluster(config, Duration::from_secs(10)).expect("tcp mesh");
    let addr = nodes[0]
        .metrics_addr()
        .expect("endpoint enabled via config");

    // Drive a round of atomic broadcasts so the scrape sees live data.
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                node.atomic_broadcast(Bytes::from(format!("scrape-{}", node.id())))
                    .unwrap();
                for _ in 0..4 {
                    node.atomic_recv().unwrap();
                }
                node
            })
        })
        .collect();
    let nodes: Vec<Node> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Scrape while the session is still live, like Prometheus would.
    let mut conn = std::net::TcpStream::connect(addr).expect("connect to /metrics");
    conn.write_all(b"GET /metrics HTTP/1.1\r\nHost: ritas\r\nConnection: close\r\n\r\n")
        .unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();

    assert!(
        response.starts_with("HTTP/1.1 200 OK"),
        "unexpected status line: {}",
        response.lines().next().unwrap_or("")
    );
    assert!(response.contains("Content-Type: text/plain; version=0.0.4"));
    let body = response
        .split_once("\r\n\r\n")
        .expect("header/body separator")
        .1;
    // Valid text exposition: every ritas_-prefixed sample has a TYPE line,
    // counters from the run are nonzero, and the per-layer latency
    // histogram exports cumulative buckets.
    assert!(body.contains("# TYPE ritas_ab_delivered counter"));
    assert!(body.contains("# TYPE ritas_ab_sent_pending gauge"));
    assert!(body.contains("# TYPE ritas_ab_latency_ns histogram"));
    assert!(body.contains("ritas_ab_latency_ns_bucket{le=\"+Inf\"}"));
    assert!(body.contains("ritas_ab_latency_ns_count"));
    let delivered = body
        .lines()
        .find_map(|l| l.strip_prefix("ritas_ab_delivered "))
        .and_then(|v| v.parse::<u64>().ok())
        .expect("ritas_ab_delivered sample");
    assert!(delivered >= 4, "scrape saw {delivered} deliveries");

    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn tcp_delivery_resumes_after_link_sever_mid_run() {
    // Kill a live TCP socket mid-session: the session layer must
    // reconnect and retransmit, so a second wave of atomic broadcasts
    // still fully delivers and the runtime surfaces the outage as link
    // events rather than wedging.
    let (nodes, chaos) =
        Node::tcp_cluster_with_chaos(SessionConfig::new(4).unwrap(), Duration::from_secs(10))
            .expect("tcp mesh");

    // Wave 1: traffic flows on the healthy mesh.
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                node.atomic_broadcast(Bytes::from(format!("pre-{}", node.id())))
                    .unwrap();
                for _ in 0..4 {
                    node.atomic_recv_timeout(Duration::from_secs(30)).unwrap();
                }
                node
            })
        })
        .collect();
    let nodes: Vec<Node> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sever the 0-1 link (forcibly, at the socket).
    chaos[0].kill_link(1);

    // Wave 2: deliveries must resume through the self-healed link, in
    // the same total order everywhere.
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                node.atomic_broadcast(Bytes::from(format!("post-{}", node.id())))
                    .unwrap();
                let mut ids = Vec::new();
                for _ in 0..4 {
                    let d = node
                        .atomic_recv_timeout(Duration::from_secs(30))
                        .expect("delivery stalled after link sever");
                    ids.push(d.id);
                }
                (node, ids)
            })
        })
        .collect();
    let (nodes, orders): (Vec<Node>, Vec<Vec<_>>) =
        handles.into_iter().map(|h| h.join().unwrap()).unzip();
    for o in &orders {
        assert_eq!(o, &orders[0], "total order diverged across the sever");
    }

    // The runtime observed the outage on the severed link.
    let m = nodes[0].metrics();
    assert!(m.transport_link_down_total.get() >= 1, "no link went down");
    let events = m.flight().events();
    assert!(
        events
            .iter()
            .any(|e| e.kind == FlightKind::LinkDown && e.peer == 1),
        "node 0 recorded no outage of its link to peer 1"
    );
    for node in nodes {
        node.shutdown();
    }
}

#[test]
fn survivors_progress_after_a_node_departs() {
    // Regression test: the broadcast fan-out used to abort on the first
    // per-link error, so once one node shut down (its endpoint dropped),
    // every broadcast silently stopped reaching higher-indexed peers and
    // the survivors' agreements hung forever. The fan-out is now one
    // `send_batch` per peer, and a failed one skips no other peer.
    let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
    // Wave 1: everyone broadcasts, everyone receives.
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                node.atomic_broadcast(Bytes::from(format!("w1-{}", node.id())))
                    .unwrap();
                for _ in 0..4 {
                    node.atomic_recv().unwrap();
                }
                node
            })
        })
        .collect();
    let mut nodes: Vec<Node> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Node 1 departs (clean shutdown, endpoint dropped).
    let departing = nodes.remove(1);
    departing.shutdown();
    drop(departing);
    std::thread::sleep(Duration::from_millis(100));

    // Wave 2: the three survivors must still reach agreement.
    let handles: Vec<_> = nodes
        .into_iter()
        .map(|node| {
            std::thread::spawn(move || {
                node.atomic_broadcast(Bytes::from(format!("w2-{}", node.id())))
                    .unwrap();
                let mut ids = Vec::new();
                for _ in 0..3 {
                    let d = node
                        .atomic_recv_timeout(Duration::from_secs(30))
                        .expect("survivor starved after a peer departed");
                    ids.push(d.id);
                }
                node.shutdown();
                ids
            })
        })
        .collect();
    let orders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for o in &orders {
        assert_eq!(o, &orders[0], "survivor total order diverged");
    }
}

#[test]
fn atomic_recv_timeout_on_idle_session() {
    let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
    let err = nodes[0]
        .atomic_recv_timeout(Duration::from_millis(30))
        .unwrap_err();
    assert_eq!(err, NodeError::Timeout);
    for n in &nodes {
        n.shutdown();
    }
}

#[test]
fn shutdown_disconnects_pending_receivers() {
    let nodes = Node::cluster(SessionConfig::new(4).unwrap()).unwrap();
    let node = nodes.into_iter().next().unwrap();
    node.shutdown();
    // Give the worker a moment to exit, then every API call must fail
    // with Disconnected rather than hang.
    std::thread::sleep(Duration::from_millis(50));
    assert!(matches!(
        node.atomic_broadcast(Bytes::from_static(b"x")),
        Err(NodeError::Disconnected)
    ));
}

/// Every built-in adversary strategy on real threads: node 3 runs it
/// through the node worker's strategy seam while nodes 0–2 each
/// a-broadcast 10 payloads. Each correct node a-delivers until it holds
/// all 30; their delivered sequences agree on their common prefix, and
/// each holds every correct payload exactly once.
#[test]
fn every_strategy_on_threads_keeps_the_correct_nodes_in_total_order() {
    for (i, kind) in StrategyKind::ALL.into_iter().enumerate() {
        let seed = 0xB12A + i as u64;
        let config = SessionConfig::new(4).unwrap();
        let (mut nodes, _hub) = byzantine_cluster_with_hub(&config, 3, kind.build(seed)).unwrap();
        let byzantine = nodes.pop().expect("node 3");
        let handles: Vec<_> = nodes
            .into_iter()
            .map(|node| {
                std::thread::spawn(move || {
                    for k in 0..10u8 {
                        node.atomic_broadcast(Bytes::from(vec![node.id() as u8, k]))
                            .unwrap();
                    }
                    let mut delivered = Vec::new();
                    let mut held: HashMap<Bytes, usize> = HashMap::new();
                    while held.len() < 30 {
                        let d = node
                            .atomic_recv_timeout(Duration::from_secs(10))
                            .unwrap_or_else(|e| {
                                panic!("{kind} seed {seed}: node {} starved: {e:?}", node.id())
                            });
                        if d.payload.len() == 2 && d.payload[0] < 3 && d.payload[1] < 10 {
                            *held.entry(d.payload.clone()).or_default() += 1;
                        }
                        delivered.push((d.id, d.payload));
                    }
                    (node, delivered, held)
                })
            })
            .collect();
        let runs: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let shortest = runs.iter().map(|(_, d, _)| d.len()).min().unwrap();
        for (node, delivered, held) in &runs {
            assert_eq!(
                delivered[..shortest],
                runs[0].1[..shortest],
                "{kind} seed {seed}: node {} left the total order",
                node.id()
            );
            assert!(
                held.values().all(|&count| count == 1),
                "{kind} seed {seed}: node {} a-delivered a payload twice",
                node.id()
            );
        }
        for (node, _, _) in runs {
            node.shutdown();
        }
        byzantine.shutdown();
    }
}
