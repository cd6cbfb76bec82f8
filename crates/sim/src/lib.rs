//! Deterministic discrete-event simulator and evaluation harnesses for
//! the RITAS stack.
//!
//! The paper's evaluation (§4) ran on four 500 MHz Pentium-III PCs
//! connected by a 100 Mbps switch, over TCP + IPSec AH. That testbed does
//! not exist here, so this crate substitutes it with a **calibrated
//! discrete-event model**: the *same* sans-io protocol stacks from the
//! `ritas` crate are driven by a virtual clock, with per-host NIC
//! serialization, per-message CPU costs and wire sizes tuned to the
//! paper's measurements (see [`calibration`] for the constants and their
//! derivation). The goal is to reproduce the *shape* of the paper's
//! results — layer orderings, IPSec overhead band, latency linearity,
//! throughput plateaus, faultload effects — not its absolute
//! microseconds.
//!
//! Modules:
//!
//! * [`calibration`] — the LAN/CPU model constants;
//! * [`lan`] — the queueing network model (per-host tx/rx resources),
//!   drawing its jitter from the simulator's own seeded xoshiro256++;
//! * [`cluster`] — the event loop driving `ritas::stack::Stack`s;
//! * [`faults`] — the §4.2 faultloads (failure-free, fail-stop,
//!   Byzantine);
//! * [`stats`] — frame classification (payload vs agreement traffic) and
//!   summary statistics;
//! * [`harness`] — one driver per paper artifact: Table 1, Figures 4–7,
//!   plus the ablations described in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod cluster;
pub mod faults;
pub mod harness;
pub mod lan;
mod rng;
pub mod stats;

pub use calibration::Calibration;
pub use cluster::{SimCluster, SimConfig};
pub use faults::Faultload;
