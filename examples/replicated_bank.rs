//! A replicated bank driven by real intrusion-tolerant clients over TCP —
//! the "asynchronous service" of the paper's title, end to end: clients
//! fan requests to `2f+1` replicas, atomic broadcast totally orders the
//! transfers, every replica applies them deterministically, and the
//! client accepts an answer only once `f+1` replicas return the exact
//! same bytes. Invariants (no negative balances, money conservation)
//! hold at every replica because all replicas see the same order.
//!
//! Run with: `cargo run --example replicated_bank`
//!
//! The session layer also gives exactly-once semantics: a client retry
//! of an already-ordered transfer hits the replicated session table and
//! returns the cached reply instead of moving the money twice.

use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas::service::{ServiceConfig, ServiceReplica};
use ritas_crypto::ClientKeyDealer;
use ritas_service::client::{ClientConfig, ServiceClient};
use ritas_service::server::{ServerConfig, ServiceServer};
use std::collections::BTreeMap;
use std::sync::Arc;

/// The replicated application state: account balances.
type Accounts = BTreeMap<String, i64>;

/// Applies one `transfer <from> <to> <amount>` command. Rejecting
/// overdrafts is part of the deterministic state machine, so all
/// replicas reject exactly the same transfers — and reply with the
/// same bytes, which is what the client's `f+1` vote checks.
fn apply(accounts: &mut Accounts, _client: u64, cmd: &[u8]) -> Bytes {
    let Ok(s) = std::str::from_utf8(cmd) else {
        return Bytes::from_static(b"ERR utf8");
    };
    let mut parts = s.split_whitespace();
    let (Some("transfer"), Some(from), Some(to), Some(amount)) =
        (parts.next(), parts.next(), parts.next(), parts.next())
    else {
        return Bytes::from_static(b"ERR parse");
    };
    let Ok(amount) = amount.parse::<i64>() else {
        return Bytes::from_static(b"ERR amount");
    };
    let balance = accounts.get(from).copied().unwrap_or(0);
    if amount <= 0 || balance < amount {
        return Bytes::from(format!("DENIED {from}={balance}"));
    }
    *accounts.entry(from.to_owned()).or_insert(0) -= amount;
    *accounts.entry(to.to_owned()).or_insert(0) += amount;
    Bytes::from(format!(
        "OK {from}={} {to}={}",
        accounts[from], accounts[to]
    ))
}

/// Answers `balance <acct>` queries (an ordered, `f+1`-voted read).
fn query(accounts: &Accounts, q: &[u8]) -> Bytes {
    let Ok(s) = std::str::from_utf8(q) else {
        return Bytes::from_static(b"ERR utf8");
    };
    match s.strip_prefix("balance ") {
        Some(acct) => Bytes::from(accounts.get(acct).copied().unwrap_or(0).to_string()),
        None => Bytes::from_static(b"ERR parse"),
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Four replicas tolerate f = 1 Byzantine failure. Seed both accounts
    // in the initial state so conservation is checkable: total is 200.
    let initial: Accounts = [("alice".to_owned(), 100), ("bob".to_owned(), 100)]
        .into_iter()
        .collect();
    let session = SessionConfig::new(4)?;
    let key_seed = session.client_key_seed();
    let dealer = ClientKeyDealer::new(key_seed);
    let mut servers: Vec<ServiceServer<Accounts>> = Node::cluster(session)?
        .into_iter()
        .map(|node| {
            let replica = Arc::new(ServiceReplica::new(
                node,
                initial.clone(),
                ServiceConfig::default(),
                apply,
                query,
            ));
            ServiceServer::spawn(replica, dealer, ServerConfig::default()).expect("front-end")
        })
        .collect();
    let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();

    // Two tellers race transfers in both directions. Some may be DENIED
    // depending on the agreed order — but deterministically so: every
    // replica denies the same ones.
    let mut workers = Vec::new();
    for (client_id, transfers) in [
        (
            1u64,
            vec![
                "transfer alice bob 30",
                "transfer alice bob 90",
                "transfer alice bob 10",
            ],
        ),
        (
            2u64,
            vec!["transfer bob alice 50", "transfer bob alice 120"],
        ),
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
            for t in transfers {
                let reply = client.invoke(Bytes::from_static(t.as_bytes())).unwrap();
                println!(
                    "teller {client_id}: {t:<24} -> {}",
                    String::from_utf8_lossy(&reply)
                );
            }
            // Read the final balances through the voted read path.
            let alice: i64 = String::from_utf8_lossy(
                &client.read(Bytes::from_static(b"balance alice")).unwrap(),
            )
            .parse()
            .unwrap();
            let bob: i64 =
                String::from_utf8_lossy(&client.read(Bytes::from_static(b"balance bob")).unwrap())
                    .parse()
                    .unwrap();
            client.shutdown();
            (alice, bob)
        }));
    }
    let views: Vec<_> = workers
        .into_iter()
        .map(|w| w.join().expect("teller thread"))
        .collect();

    println!("\nTeller views after settling:");
    for (i, (alice, bob)) in views.iter().enumerate() {
        println!("  teller {}: alice={alice} bob={bob}", i + 1);
    }

    // Settle every replica past the last ordered command, then audit.
    for s in &mut servers {
        s.replica().barrier().ok();
    }
    let reference = servers[0].replica().read_state(|a| a.clone());
    for (i, s) in servers.iter().enumerate() {
        let accounts = s.replica().read_state(|a| a.clone());
        let total: i64 = accounts.values().sum();
        assert_eq!(total, 200, "replica p{i} lost or created money!");
        assert!(
            accounts.values().all(|&b| b >= 0),
            "replica p{i} overdrafted an account!"
        );
        assert_eq!(accounts, reference, "replica p{i} diverged!");
    }
    println!("\nFinal balances (identical at every replica):");
    for (acct, balance) in &reference {
        println!("  {acct}: {balance}");
    }
    for s in &mut servers {
        s.replica().shutdown();
        s.shutdown();
    }
    println!("\nMoney conserved (total = 200) at all 4 replicas. ✔");
    Ok(())
}
