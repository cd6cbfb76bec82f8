//! # RITAS — Randomized Intrusion-Tolerant Asynchronous Services
//!
//! A reproduction of the protocol stack from *"Randomized
//! Intrusion-Tolerant Asynchronous Services"* (Moniz, Neves, Correia,
//! Veríssimo — DSN 2006): a stack of Byzantine-fault-tolerant agreement
//! protocols for fully asynchronous systems that is
//!
//! * **asynchronous** — termination relies on randomization (Ben-Or-style
//!   local coins), never on timing assumptions;
//! * **optimally resilient** — tolerates `f = ⌊(n-1)/3⌋` corrupt
//!   processes;
//! * **signature-free** — integrity comes from pairwise shared keys and
//!   hash MACs, no public-key cryptography anywhere;
//! * **leader-free** — all decisions are taken in a distributed way.
//!
//! The stack, bottom-up (paper Figure 1):
//!
//! | Module | Protocol |
//! |---|---|
//! | [`rb`] | reliable broadcast (Bracha) |
//! | [`eb`] | echo broadcast (matrix echo, Reiter-derived) |
//! | [`bc`] | randomized binary consensus (Bracha) |
//! | [`mvc`] | multi-valued consensus (Correia et al.) |
//! | [`vc`] | vector consensus |
//! | [`ab`] | atomic broadcast |
//!
//! All protocol state machines are *sans-io* (see [`step::Step`]): they can
//! be driven by the threaded [`node`] runtime over any
//! [`ritas_transport::Transport`], by the deterministic [`testing`]
//! cluster, or by the discrete-event simulator in the `ritas-sim` crate.
//!
//! # Quickstart
//!
//! Four processes on an in-memory hub; every process atomically
//! broadcasts one message and all observe the same total order:
//!
//! ```
//! use ritas::node::{Node, SessionConfig};
//! use bytes::Bytes;
//!
//! let nodes = Node::cluster(SessionConfig::new(4)?)?;
//! let mut handles = Vec::new();
//! for node in nodes {
//!     handles.push(std::thread::spawn(move || {
//!         let mine = format!("hello from {}", node.id());
//!         node.atomic_broadcast(Bytes::from(mine)).unwrap();
//!         let mut order = Vec::new();
//!         for _ in 0..4 {
//!             order.push(node.atomic_recv().unwrap().id);
//!         }
//!         node.shutdown();
//!         order
//!     }));
//! }
//! let orders: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
//! assert!(orders.windows(2).all(|w| w[0] == w[1]), "total order");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ab;
pub mod adversary;
pub mod bc;
pub mod codec;
pub mod config;
pub mod ctx;
pub mod eb;
pub mod error;
pub mod fifo;
pub mod invariants;
pub mod mvc;
pub mod node;
pub mod rb;
pub mod recovery;
pub mod rsm;
pub mod service;
pub mod stack;
pub mod step;
pub mod testing;
pub mod vc;

/// Identifier of a process in the group (re-exported from the transport).
pub use ritas_transport::ProcessId;

pub use config::Group;
pub use ctx::Ctx;
pub use error::ProtocolError;
pub use step::{Fault, FaultKind, Outgoing, Step, Target};
