//! A Byzantine-fault-tolerant replicated key-value store, served to real
//! clients over TCP — the state machine replication pattern the paper's
//! introduction motivates (consensus ⇔ atomic broadcast ⇔ replicated
//! state machines), completed by the service tier: clients fan each
//! request to `2f+1` replicas and accept a result only at `f+1`
//! byte-identical replies, so no single replica is ever trusted.
//!
//! Run with: `cargo run --example replicated_kv`
//!
//! Every command is ordered through atomic broadcast and applied in
//! delivery order at all four replicas; because delivery order is
//! identical everywhere, all replicas end in the same state — without
//! any leader, lock service or timing assumption, tolerating one
//! arbitrary (Byzantine) replica out of four. The clients talk the
//! HMAC-authenticated service protocol: `SET`/`DEL` are ordered writes,
//! and `GET` is a read ordered like them, so it sees every completed
//! `SET`.

use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas::service::{ServiceConfig, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The replicated state: an ordered map, applied deterministically.
type Store = BTreeMap<String, String>;

/// Applies one text command (`SET k=v` / `DEL k`), returning the reply
/// the client will vote on. Determinism is what makes the vote work:
/// every correct replica produces byte-identical replies.
fn apply(store: &mut Store, _client: u64, cmd: &[u8]) -> Bytes {
    let Ok(s) = std::str::from_utf8(cmd) else {
        return Bytes::from_static(b"ERR utf8");
    };
    if let Some(rest) = s.strip_prefix("SET ") {
        if let Some((key, value)) = rest.split_once('=') {
            store.insert(key.to_owned(), value.to_owned());
            return Bytes::from_static(b"OK");
        }
    } else if let Some(key) = s.strip_prefix("DEL ") {
        store.remove(key);
        return Bytes::from_static(b"OK");
    }
    Bytes::from_static(b"ERR parse")
}

/// Answers a `GET k` query at the read's position in the total order.
fn query(store: &Store, q: &[u8]) -> Bytes {
    let Ok(s) = std::str::from_utf8(q) else {
        return Bytes::from_static(b"ERR utf8");
    };
    match s.strip_prefix("GET ").and_then(|k| store.get(k)) {
        Some(v) => Bytes::from(v.clone()),
        None => Bytes::new(),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four replicas (f = 1) on an in-memory mesh, each with a TCP
    // service front-end clients connect to.
    let session = SessionConfig::new(4)?;
    let key_seed = session.client_key_seed();
    let dealer = ClientKeyDealer::new(key_seed);
    let mut servers: Vec<ServiceServer<Store>> = Node::cluster(session)?
        .into_iter()
        .map(|node| {
            let replica = Arc::new(ServiceReplica::new(
                node,
                Store::new(),
                ServiceConfig::default(),
                apply,
                query,
            ));
            ServiceServer::spawn(replica, dealer, ServerConfig::default()).expect("front-end")
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();

    // Two independent clients race conflicting writes. The total order
    // decides who wins "leader"; both clients then observe the same
    // winner.
    let mut workers = Vec::new();
    for (client_id, cmds) in [
        (
            1u64,
            vec!["SET leader=alpha", "SET tmp=scratch", "SET epoch=7"],
        ),
        (2u64, vec!["SET leader=beta", "DEL tmp"]),
    ] {
        let addrs = addrs.clone();
        workers.push(std::thread::spawn(move || {
            let mut client = ServiceClient::new(
                client_id,
                addrs,
                ClientConfig {
                    key_seed,
                    ..ClientConfig::default()
                },
            );
            for cmd in cmds {
                let reply = client.invoke(Bytes::from_static(cmd.as_bytes())).unwrap();
                println!("client {client_id}: {cmd:<18} -> {:?}", reply.as_ref());
            }
            // Read back through the f+1-vote read path.
            let leader = client.read(Bytes::from_static(b"GET leader")).unwrap();
            let tmp = client.read(Bytes::from_static(b"GET tmp")).unwrap();
            client.shutdown();
            (
                String::from_utf8_lossy(&leader).into_owned(),
                String::from_utf8_lossy(&tmp).into_owned(),
            )
        }));
    }
    let views: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("client thread"))
        .collect();

    println!("\nClient views after settling:");
    for (i, (leader, tmp)) in views.iter().enumerate() {
        println!("  client {}: leader={leader:?} tmp={tmp:?}", i + 1);
    }

    // Both clients read the same agreed leader; whoever it is, it is one
    // of the two candidates, and every replica agrees.
    assert_eq!(views[0].0, views[1].0, "clients saw different leaders");
    assert!(["alpha", "beta"].contains(&views[0].0.as_str()));

    for s in &mut servers {
        s.replica().barrier().ok();
    }
    let reference = servers[0].replica().read_state(|s| s.clone());
    for (i, s) in servers.iter().enumerate() {
        assert_eq!(
            s.replica().read_state(|st| st.clone()),
            reference,
            "replica p{i} diverged!"
        );
    }
    println!("\nFinal replicated state (identical at every replica):");
    for (k, v) in &reference {
        println!("  {k} = {v}");
    }
    for s in &mut servers {
        s.replica().shutdown();
        s.shutdown();
    }
    println!("\nAll 4 replicas converged; clients agreed through f+1 votes. ✔");
    Ok(())
}
