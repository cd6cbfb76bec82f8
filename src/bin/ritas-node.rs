//! `ritas-node` — run one RITAS process over real TCP.
//!
//! The deployable face of the library: each OS process (or host) runs one
//! instance; together they form an intrusion-tolerant atomic broadcast
//! group exactly as the paper's C library would be deployed. Every
//! frame between processes travels under the AH-style authentication
//! layer, keyed from the dealt pairwise keys.
//!
//! ```text
//! ritas-node --me <id> --peers <addr0,addr1,...> [options]
//!
//!   --me <id>              this process's index into the peer list
//!   --peers <a0,a1,...>    listen/dial addresses of ALL processes
//!   --seed <n>             key-dealer master seed (default 42; must match
//!                          across the group — a stand-in for real key
//!                          distribution)
//!   --burst <k>            non-interactive: a-broadcast k messages, wait
//!                          for everyone's, print `DELIVER <sender> <rbid>
//!                          <payload>` lines, then exit
//!   --connect-timeout-secs <s>   mesh establishment timeout (default 30)
//! ```
//!
//! Without `--burst`, runs interactively: every stdin line is atomically
//! broadcast; deliveries are printed as they arrive in the total order.

use bytes::Bytes;
use ritas::node::{Node, SessionConfig};
use ritas_crypto::KeyTable;
use ritas_transport::{TcpConfig, TcpEndpoint};
use std::io::BufRead;
use std::net::{SocketAddr, TcpListener};
use std::time::Duration;

struct Args {
    me: usize,
    peers: Vec<SocketAddr>,
    seed: u64,
    burst: Option<usize>,
    connect_timeout: Duration,
}

fn parse_args() -> Result<Args, String> {
    let mut me: Option<usize> = None;
    let mut peers: Vec<SocketAddr> = Vec::new();
    let mut seed = 42u64;
    let mut burst = None;
    let mut connect_timeout = Duration::from_secs(30);

    let argv: Vec<String> = std::env::args().collect();
    let mut i = 1;
    let next = |i: &mut usize| -> Result<String, String> {
        *i += 1;
        argv.get(*i - 1)
            .cloned()
            .ok_or_else(|| "missing argument value".to_owned())
    };
    while i < argv.len() {
        let flag = argv[i].clone();
        i += 1;
        match flag.as_str() {
            "--me" => me = Some(next(&mut i)?.parse().map_err(|e| format!("--me: {e}"))?),
            "--peers" => {
                peers = next(&mut i)?
                    .split(',')
                    .map(|s| s.parse().map_err(|e| format!("--peers: {e}")))
                    .collect::<Result<_, _>>()?;
            }
            "--seed" => seed = next(&mut i)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--burst" => burst = Some(next(&mut i)?.parse().map_err(|e| format!("--burst: {e}"))?),
            "--connect-timeout-secs" => {
                connect_timeout = Duration::from_secs(
                    next(&mut i)?
                        .parse()
                        .map_err(|e| format!("--connect-timeout-secs: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let me = me.ok_or("--me is required")?;
    if peers.len() < 4 {
        return Err("--peers needs at least 4 addresses (n >= 3f+1, f >= 1)".into());
    }
    if me >= peers.len() {
        return Err("--me out of range of --peers".into());
    }
    Ok(Args {
        me,
        peers,
        seed,
        burst,
        connect_timeout,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: ritas-node --me <id> --peers <a0,a1,...> [--seed n] [--burst k]");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(args) {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn run(args: Args) -> Result<(), Box<dyn std::error::Error>> {
    let n = args.peers.len();
    let config = SessionConfig::new(n)?.with_master_seed(args.seed);
    // The session-resume handshake is keyed by the same dealt pairwise
    // keys as the AH layer.
    let session_keys = TcpConfig::from_key_table(&KeyTable::dealer(n, args.seed), args.me);

    eprintln!("[p{}] binding {}", args.me, args.peers[args.me]);
    let listener = TcpListener::bind(args.peers[args.me])?;
    eprintln!("[p{}] establishing mesh with {} peers…", args.me, n - 1);
    let endpoint = TcpEndpoint::establish(
        args.me,
        listener,
        &args.peers,
        args.connect_timeout,
        session_keys,
    )?;
    eprintln!("[p{}] mesh up", args.me);
    let node = Node::new(&config, args.me, endpoint)?;

    match args.burst {
        Some(k) => run_burst(&node, args.me, n, k),
        None => run_interactive(&node, args.me),
    }
}

/// Scripted mode: broadcast `k` messages, collect everyone's, print the
/// total order, exit 0.
fn run_burst(node: &Node, me: usize, n: usize, k: usize) -> Result<(), Box<dyn std::error::Error>> {
    for i in 0..k {
        node.atomic_broadcast(Bytes::from(format!("p{me}:{i}")))?;
    }
    let expected = k * n;
    for _ in 0..expected {
        let d = node.atomic_recv()?;
        println!(
            "DELIVER {} {} {}",
            d.id.sender,
            d.id.rbid,
            String::from_utf8_lossy(&d.payload)
        );
    }
    // Give laggards a moment to finish pulling our frames before the
    // process (and its sockets) disappears.
    std::thread::sleep(Duration::from_millis(300));
    node.shutdown();
    Ok(())
}

/// Interactive mode: stdin lines are broadcast; deliveries stream to
/// stdout in total order.
fn run_interactive(node: &Node, me: usize) -> Result<(), Box<dyn std::error::Error>> {
    eprintln!("[p{me}] interactive: type a line to a-broadcast it (EOF to quit)");
    std::thread::scope(|scope| -> Result<(), Box<dyn std::error::Error>> {
        scope.spawn(|| loop {
            match node.atomic_recv() {
                Ok(d) => println!(
                    "[from p{} #{}] {}",
                    d.id.sender,
                    d.id.rbid,
                    String::from_utf8_lossy(&d.payload)
                ),
                Err(_) => return,
            }
        });
        for line in std::io::stdin().lock().lines() {
            let line = line?;
            if line.is_empty() {
                continue;
            }
            node.atomic_broadcast(Bytes::from(line))?;
        }
        std::thread::sleep(Duration::from_millis(500));
        node.shutdown();
        Ok(())
    })
}
