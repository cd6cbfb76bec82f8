//! The queueing model of the switched LAN.
//!
//! Each host owns two serialized resources: a **transmit path** (CPU send
//! cost + NIC wire serialization) and a **receive path** (CPU receive
//! cost). The switch is full-duplex and non-blocking (the ProCurve 2424M
//! of the testbed), modeled as a fixed propagation delay — contention
//! happens at the hosts, which is what produces the paper's fail-stop
//! speed-up ("with one less process there is less contention in the
//! network", §4.2).

use crate::calibration::Calibration;
use crate::rng::SimRng;

/// Virtual time in nanoseconds.
pub type Ns = u64;

/// Per-host resource state plus the cost model.
#[derive(Debug)]
pub struct LanModel {
    calibration: Calibration,
    authenticated: bool,
    /// Time at which each host's transmit path becomes free.
    tx_free: Vec<Ns>,
    /// Time at which each host's receive path becomes free.
    rx_free: Vec<Ns>,
    /// Optional per-link propagation delays (`[from][to]`), replacing the
    /// uniform `propagation_ns` — used to model asymmetric (WAN-like)
    /// topologies, probing the paper's §4.2 conjecture that the
    /// one-round-decision result depends on LAN symmetry.
    propagation: Option<Vec<Vec<Ns>>>,
    rng: SimRng,
}

/// The outcome of scheduling a frame transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxOutcome {
    /// When the frame arrives at the destination host (before receive
    /// processing).
    pub arrival: Ns,
    /// Bytes the frame occupied on the wire.
    pub wire_bytes: usize,
}

impl LanModel {
    /// Creates the model for `n` hosts.
    pub fn new(n: usize, calibration: Calibration, authenticated: bool, seed: u64) -> Self {
        LanModel {
            calibration,
            authenticated,
            tx_free: vec![0; n],
            rx_free: vec![0; n],
            propagation: None,
            rng: SimRng::seed_from_u64(seed),
        }
    }

    /// Installs per-link propagation delays (symmetric matrix expected,
    /// `[from][to]` nanoseconds), overriding the uniform switch latency.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is not `n × n`.
    pub fn set_propagation_matrix(&mut self, matrix: Vec<Vec<Ns>>) {
        let n = self.tx_free.len();
        assert_eq!(matrix.len(), n, "matrix rows");
        assert!(matrix.iter().all(|r| r.len() == n), "matrix columns");
        self.propagation = Some(matrix);
    }

    fn propagation_for(&self, from: usize, to: usize) -> Ns {
        match &self.propagation {
            Some(m) => m[from][to],
            None => self.calibration.propagation_ns,
        }
    }

    /// Whether frames carry the AH header (and pay its CPU cost).
    pub fn authenticated(&self) -> bool {
        self.authenticated
    }

    /// The cost model in use.
    pub fn calibration(&self) -> &Calibration {
        &self.calibration
    }

    fn jitter(&mut self, ns: u64) -> u64 {
        let j = self.calibration.jitter_frac;
        if j <= 0.0 {
            return ns;
        }
        let factor = 1.0 + self.rng.gen_f64(-j..j);
        (ns as f64 * factor) as u64
    }

    /// Schedules the transmission of a frame of `payload_len` protocol
    /// bytes from `from`, starting no earlier than `now`. Returns the
    /// arrival time at the destination (the receive path is modeled
    /// separately by [`LanModel::receive`]).
    ///
    /// Frames that queue behind a busy transmit path pay only the
    /// coalesced fraction of the fixed per-message cost (TCP segment
    /// coalescing; see [`Calibration::coalesce_factor`]).
    pub fn transmit(&mut self, now: Ns, from: usize, to: usize, payload_len: usize) -> TxOutcome {
        let wire = self.calibration.wire_size(payload_len, self.authenticated);
        let busy = self.tx_free[from] > now;
        let mut fixed = self.calibration.send_cpu_ns;
        if self.authenticated {
            fixed += self.calibration.ah_cpu_ns;
        }
        if busy {
            fixed = (fixed as f64 * self.calibration.coalesce_factor) as u64;
        }
        let cpu =
            self.jitter(fixed + (payload_len as f64 * self.calibration.per_byte_cpu_ns) as u64);
        let start = self.tx_free[from].max(now) + cpu;
        let tx_end = start + self.calibration.tx_time_ns(wire);
        self.tx_free[from] = tx_end;
        TxOutcome {
            arrival: tx_end + self.propagation_for(from, to),
            wire_bytes: wire,
        }
    }

    /// Schedules receive processing of a frame that arrived at host `to`
    /// at time `arrival`. Returns the time the frame is handed to the
    /// protocol stack. Back-to-back arrivals pay the coalesced fixed
    /// cost (batched socket reads / interrupt coalescing).
    pub fn receive(&mut self, arrival: Ns, to: usize, payload_len: usize) -> Ns {
        let busy = self.rx_free[to] > arrival;
        let mut fixed = self.calibration.recv_cpu_ns;
        if self.authenticated {
            fixed += self.calibration.ah_cpu_ns;
        }
        if busy {
            fixed = (fixed as f64 * self.calibration.coalesce_factor) as u64;
        }
        let cpu =
            self.jitter(fixed + (payload_len as f64 * self.calibration.per_byte_cpu_ns) as u64);
        let done = self.rx_free[to].max(arrival) + cpu;
        self.rx_free[to] = done;
        done
    }

    /// Cost of a loopback (self) delivery starting at `now`.
    pub fn loopback(&mut self, now: Ns) -> Ns {
        now + self.jitter(self.calibration.loopback_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LanModel {
        // Deterministic (jitter-free) for assertions.
        let c = Calibration {
            jitter_frac: 0.0,
            ..Calibration::default()
        };
        LanModel::new(2, c, false, 1)
    }

    #[test]
    fn tx_serializes_per_host() {
        let mut m = model();
        let a = m.transmit(0, 0, 1, 10);
        let b = m.transmit(0, 0, 1, 10);
        assert!(b.arrival > a.arrival, "second frame must queue behind");
        // The second frame queues behind the first and pays at least the
        // coalesced fixed cost plus its wire time.
        let min_gap = (m.calibration().send_cpu_ns as f64 * m.calibration().coalesce_factor) as u64;
        assert!(b.arrival - a.arrival >= min_gap);
    }

    #[test]
    fn different_hosts_do_not_contend_on_tx() {
        let mut m = model();
        let a = m.transmit(0, 0, 1, 10);
        let b = m.transmit(0, 1, 0, 10);
        assert_eq!(a.arrival, b.arrival);
    }

    #[test]
    fn rx_serializes() {
        let mut m = model();
        let d1 = m.receive(1000, 0, 10);
        let d2 = m.receive(1000, 0, 10);
        assert!(d2 > d1);
    }

    #[test]
    fn auth_adds_bytes_and_cpu() {
        let c = Calibration {
            jitter_frac: 0.0,
            ..Calibration::default()
        };
        let mut plain = LanModel::new(2, c, false, 1);
        let mut auth = LanModel::new(2, c, true, 1);
        let p = plain.transmit(0, 0, 1, 10);
        let a = auth.transmit(0, 0, 1, 10);
        assert_eq!(a.wire_bytes - p.wire_bytes, c.ah_overhead_bytes);
        assert!(a.arrival > p.arrival);
    }

    #[test]
    fn large_payload_pays_per_byte() {
        let mut m = model();
        let small = m.transmit(0, 0, 1, 10);
        let mut m2 = model();
        let large = m2.transmit(0, 0, 1, 10_000);
        assert!(large.arrival > small.arrival + 1_000_000, "10KB ≫ 10B");
    }

    #[test]
    fn jitter_varies_with_seed_but_is_reproducible() {
        let c = Calibration::default();
        let mut m1 = LanModel::new(2, c, false, 7);
        let mut m2 = LanModel::new(2, c, false, 7);
        let mut m3 = LanModel::new(2, c, false, 8);
        let a1 = m1.transmit(0, 0, 1, 10).arrival;
        let a2 = m2.transmit(0, 0, 1, 10).arrival;
        let a3 = m3.transmit(0, 0, 1, 10).arrival;
        assert_eq!(a1, a2);
        assert_ne!(a1, a3);
    }
}
