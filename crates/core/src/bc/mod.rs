//! Randomized binary consensus — Bracha's protocol (paper §2.4).
//!
//! Each process proposes a bit; all correct processes decide the same bit,
//! and if all correct processes propose `v` the decision is `v`. The
//! protocol is the only randomized layer of the stack: it circumvents FLP
//! with a *local coin* and terminates with probability 1, with no timing
//! assumptions whatsoever.
//!
//! It proceeds in rounds of three steps. In each step every process
//! (reliably) broadcasts a value and waits for `n − f` *valid* values:
//!
//! 1. broadcast `v_i`; set `v_i` to the **majority** of the values
//!    received;
//! 2. broadcast `v_i`; if more than half the received values are equal,
//!    set `v_i` to that value, else `v_i ← ⊥`;
//! 3. broadcast `v_i`; if `≥ 2f+1` received values are some `v ≠ ⊥`,
//!    **decide** `v`; else if `≥ f+1` are `v ≠ ⊥`, adopt `v_i ← v`; else
//!    flip a fair **coin**; in all cases start the next round (a decided
//!    process participates for one more round so laggards can finish).
//!
//! Two implementation aspects deserve attention:
//!
//! * **Validation** ([`validation`]): received values are only *accepted*
//!   once they are congruent with some `n − f` subset of the previous
//!   step's accepted values; messages that cannot yet be justified are
//!   parked. This neutralizes processes that do not follow the protocol —
//!   the mechanism the paper credits for its Byzantine immunity results.
//! * **Step transport**: per the paper, each step's broadcast uses the
//!   underlying *reliable broadcast* ([`StepTransport::ReliableBroadcast`]),
//!   which prevents equivocation inside a step. A cheaper
//!   [`StepTransport::PlainFanout`] mode (one authenticated point-to-point
//!   fan-out per step) is provided **for the crash-fault ablation bench
//!   only** — it does not tolerate Byzantine equivocation.

pub mod validation;

use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::RoundCoin;
use ritas_metrics::{Layer, SpanAnnotation};
use std::collections::BTreeMap;
use validation::{majority, next_round_valid, step2_valid, step3_valid, strict_majority, Tally};

/// A protocol value: `Some(bit)` or `None` for the undefined value ⊥.
pub type Val = Option<bool>;

/// How far ahead of our current round we accept (and buffer) messages.
/// Correct processes are normally within one round of each other; the
/// bound only limits memory a Byzantine process can make us allocate.
const MAX_ROUND_AHEAD: u32 = 64;

/// Transport used for the per-step broadcasts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepTransport {
    /// Reliable broadcast per step — the paper's configuration, tolerates
    /// Byzantine faults.
    #[default]
    ReliableBroadcast,
    /// One plain fan-out per step — ablation mode; tolerates crash faults
    /// only (an equivocating process can violate agreement).
    PlainFanout,
}

/// Body of a [`BcMessage`]: a reliable-broadcast sub-message or a plain
/// value, depending on the configured [`StepTransport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BcBody {
    /// Reliable broadcast traffic for the step value of `origin`.
    Rbc(RbMessage),
    /// The step value itself (plain fan-out mode).
    Plain(Val),
}

/// A binary consensus message: traffic of the broadcast of `origin`'s
/// value for (`round`, `step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BcMessage {
    /// Round number (from 1).
    pub round: u32,
    /// Step within the round (1, 2 or 3).
    pub step: u8,
    /// The process whose step value this broadcast carries.
    pub origin: ProcessId,
    /// The payload.
    pub body: BcBody,
}

pub(crate) fn encode_val(v: Val) -> u8 {
    match v {
        Some(false) => 0,
        Some(true) => 1,
        None => 2,
    }
}

pub(crate) fn decode_val(b: u8) -> Result<Val, WireError> {
    match b {
        0 => Ok(Some(false)),
        1 => Ok(Some(true)),
        2 => Ok(None),
        t => Err(WireError::InvalidTag {
            what: "bc.value",
            tag: t,
        }),
    }
}

const BODY_RBC: u8 = 1;
const BODY_PLAIN: u8 = 2;

impl WireMessage for BcMessage {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.round).u8(self.step).u32(self.origin as u32);
        match &self.body {
            BcBody::Rbc(inner) => {
                w.u8(BODY_RBC);
                inner.encode(w);
            }
            BcBody::Plain(v) => {
                w.u8(BODY_PLAIN).u8(encode_val(*v));
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let round = r.u32("bc.round")?;
        let step = r.u8("bc.step")?;
        let origin = r.u32("bc.origin")? as usize;
        let body = match r.u8("bc.body")? {
            BODY_RBC => BcBody::Rbc(RbMessage::decode(r)?),
            BODY_PLAIN => BcBody::Plain(decode_val(r.u8("bc.plain")?)?),
            t => {
                return Err(WireError::InvalidTag {
                    what: "bc.body",
                    tag: t,
                })
            }
        };
        Ok(BcMessage {
            round,
            step,
            origin,
            body,
        })
    }
}

/// Step type of a binary consensus instance: outgoing [`BcMessage`]s plus,
/// at most once, the decided bit.
pub type BcStep = Step<BcMessage, bool>;

/// Per-(round, step) bookkeeping.
#[derive(Debug, Clone)]
struct StepState {
    /// Values accepted (validated) per process.
    accepted: Vec<Option<Val>>,
    /// Values delivered by the step transport but not yet validated.
    pending: Vec<Option<Val>>,
    /// Whether this step's `n − f` threshold has been acted upon.
    fired: bool,
    /// Process whose accepted value first brought this step to quorum.
    quorum_closer: Option<ProcessId>,
}

impl StepState {
    fn new(n: usize) -> Self {
        StepState {
            accepted: vec![None; n],
            pending: vec![None; n],
            fired: false,
            quorum_closer: None,
        }
    }

    fn accepted_count(&self) -> usize {
        self.accepted.iter().filter(|v| v.is_some()).count()
    }

    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for v in self.accepted.iter().flatten() {
            match v {
                Some(false) => t.zeros += 1,
                Some(true) => t.ones += 1,
                None => t.bottoms += 1,
            }
        }
        t
    }
}

#[derive(Debug, Clone)]
struct RoundState {
    steps: [StepState; 3],
}

impl RoundState {
    fn new(n: usize) -> Self {
        RoundState {
            steps: [StepState::new(n), StepState::new(n), StepState::new(n)],
        }
    }
}

/// State of one binary consensus instance for process `me`.
///
/// The instance is generic-free: the coin is injected as a boxed
/// [`RoundCoin`] so that production, simulation and adversarial tests can
/// plug different sources (see `ritas_crypto::coin`): a local coin
/// (Ben-Or's scheme, the paper's) wrapped in
/// [`ritas_crypto::LocalRoundCoin`], or a [`ritas_crypto::SharedCoin`] —
/// Rabin's common coin, which keeps the expected round count constant
/// even under an adversarial message scheduler (paper §5's discussion of
/// the two approaches).
///
/// # Example
///
/// Most users reach binary consensus through
/// [`crate::stack::Stack::bc_propose`] or
/// [`crate::node::Node::binary_consensus`]; the state machine itself is
/// constructed per instance:
///
/// ```
/// use ritas::bc::{BinaryConsensus, StepTransport};
/// use ritas::testing::ctx;
/// use ritas_crypto::{DeterministicCoin, LocalRoundCoin};
///
/// let coin = Box::new(LocalRoundCoin(DeterministicCoin::new(1)));
/// let mut bc = BinaryConsensus::new(ctx(4, 0, 7), coin, StepTransport::default());
/// let step = bc.propose(true)?;
/// assert!(!step.messages.is_empty(), "round 1 step 1 broadcast");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BinaryConsensus {
    ctx: Ctx,
    coin: Box<dyn RoundCoin + Send>,
    transport: StepTransport,
    started: bool,
    /// Our value for the in-progress step broadcast.
    current: Val,
    round: u32,
    step: u8,
    decided: Option<bool>,
    decided_round: Option<u32>,
    /// True once we have completed our post-decision round and stopped
    /// initiating new rounds.
    halted: bool,
    rounds: BTreeMap<u32, RoundState>,
    /// Reliable-broadcast sub-instances keyed by (round, step, origin).
    rbc: BTreeMap<(u32, u8, ProcessId), ReliableBroadcast>,
    /// Rounds each process has completed (for statistics only).
    rounds_executed: u32,
}

impl core::fmt::Debug for BinaryConsensus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BinaryConsensus")
            .field("me", &self.ctx.me)
            .field("round", &self.round)
            .field("step", &self.step)
            .field("decided", &self.decided)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl BinaryConsensus {
    /// Creates an instance flipping `coin`, its step values carried by
    /// `transport` ([`StepTransport::ReliableBroadcast`] is the paper's
    /// configuration).
    pub fn new(ctx: Ctx, coin: Box<dyn RoundCoin + Send>, transport: StepTransport) -> Self {
        BinaryConsensus {
            ctx,
            coin,
            transport,
            started: false,
            current: None,
            round: 1,
            step: 1,
            decided: None,
            decided_round: None,
            halted: false,
            rounds: BTreeMap::new(),
            rbc: BTreeMap::new(),
            rounds_executed: 0,
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<bool> {
        self.decided
    }

    /// The round in which the decision was taken (1-based), once decided.
    pub fn decided_round(&self) -> Option<u32> {
        self.decided_round
    }

    /// Current round (1-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Proposes a bit and emits the round-1 step-1 broadcast.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose(&mut self, value: bool) -> Result<BcStep, ProtocolError> {
        if self.started {
            return Err(ProtocolError::AlreadyStarted);
        }
        self.started = true;
        self.current = Some(value);
        self.ctx.metrics.bc_started.inc();
        self.ctx.metrics.trace(
            Layer::Bc,
            "propose",
            || format!("bc:{}", self.ctx.me),
            self.round,
        );
        self.ctx
            .annotate(SpanAnnotation::RoundEntered, u64::from(self.round));
        let mut out = Step::none();
        self.broadcast_current(&mut out);
        // Messages from peers may already be buffered and could even
        // complete steps (if we are the last to propose).
        out.extend(self.settle());
        Ok(out)
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: BcMessage) -> BcStep {
        if !self.ctx.group.contains(from) || !self.ctx.group.contains(message.origin) {
            self.ctx.metrics.bc_rejected.inc();
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if message.round == 0 || !(1..=3).contains(&message.step) {
            self.ctx.metrics.bc_rejected.inc();
            return Step::fault(from, FaultKind::Malformed);
        }
        if message.round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            // Memory-bounding: refuse to buffer absurdly distant rounds.
            self.ctx.metrics.bc_rejected.inc();
            return Step::fault(from, FaultKind::Unjustified);
        }
        let (round, step, origin) = (message.round, message.step, message.origin);
        let mut out = Step::none();
        match (message.body, self.transport) {
            (BcBody::Rbc(inner), StepTransport::ReliableBroadcast) => {
                let mut sub = self
                    .step_rbc(round, step, origin)
                    .handle_message(from, inner);
                let delivered = std::mem::take(&mut sub.outputs);
                out = wrap_rbc(round, step, origin, sub);
                for payload in delivered {
                    match Self::decode_step_value(&payload, step) {
                        Ok(v) => self.record_pending(round, step, origin, v),
                        Err(_) => {
                            self.ctx.metrics.bc_rejected.inc();
                            out.push_fault(origin, FaultKind::Malformed);
                        }
                    }
                }
            }
            (BcBody::Plain(v), StepTransport::PlainFanout) => {
                if from != origin {
                    self.ctx.metrics.bc_rejected.inc();
                    return Step::fault(from, FaultKind::NotEntitled);
                }
                if (step == 1 || step == 2) && v.is_none() {
                    self.ctx.metrics.bc_rejected.inc();
                    return Step::fault(from, FaultKind::Malformed);
                }
                self.record_pending(round, step, origin, v);
            }
            // Body does not match the configured transport.
            _ => {
                self.ctx.metrics.bc_rejected.inc();
                return Step::fault(from, FaultKind::Malformed);
            }
        }
        out.extend(self.settle());
        out
    }

    /// Decodes a step value from a reliable-broadcast payload, rejecting
    /// ⊥ at steps 1 and 2 where only bits are legal.
    fn decode_step_value(payload: &Bytes, step: u8) -> Result<Val, WireError> {
        if payload.len() != 1 {
            return Err(WireError::Truncated { what: "bc.value" });
        }
        let v = decode_val(payload[0])?;
        if (step == 1 || step == 2) && v.is_none() {
            return Err(WireError::InvalidTag {
                what: "bc.value",
                tag: 2,
            });
        }
        Ok(v)
    }

    /// The RBC instance carrying `origin`'s value for (`round`, `step`),
    /// created on first use.
    fn step_rbc(&mut self, round: u32, step: u8, origin: ProcessId) -> &mut ReliableBroadcast {
        self.rbc
            .entry((round, step, origin))
            .or_insert_with(|| ReliableBroadcast::new(self.ctx.spanless(), origin))
    }

    fn round_mut(&mut self, round: u32) -> &mut RoundState {
        let n = self.ctx.group.n();
        self.rounds
            .entry(round)
            .or_insert_with(|| RoundState::new(n))
    }

    fn record_pending(&mut self, round: u32, step: u8, origin: ProcessId, v: Val) {
        let st = &mut self.round_mut(round).steps[(step - 1) as usize];
        if st.accepted[origin].is_some() || st.pending[origin].is_some() {
            return; // only the first delivered value per slot counts
        }
        st.pending[origin] = Some(v);
    }

    /// Runs validation and progress to a fixpoint.
    fn settle(&mut self) -> BcStep {
        let mut out = Step::none();
        loop {
            let validated = self.revalidate();
            let advanced = self.try_advance(&mut out);
            if !validated && !advanced {
                break;
            }
        }
        out
    }

    /// One pass moving justifiable pending values to accepted, rounds and
    /// steps in order, each step judged against the tally its predecessor
    /// has once the pass reaches it. Returns whether anything moved.
    fn revalidate(&mut self) -> bool {
        let q = self.ctx.group.quorum();
        let f = self.ctx.group.f();
        let mut moved = false;
        // The round before the one being walked, for its step-3 tally.
        let mut prev: Option<(u32, &RoundState)> = None;
        for (&r, round) in &mut self.rounds {
            for s in 0..3 {
                if round.steps[s].pending.iter().all(Option::is_none) {
                    continue;
                }
                let prev_tally: Option<Tally> = match (r, s) {
                    (1, 0) => None, // always valid
                    (_, 0) => prev
                        .filter(|(before, _)| before + 1 == r)
                        .map(|(_, rs)| rs.steps[2].tally()),
                    _ => Some(round.steps[s - 1].tally()),
                };
                let st = &mut round.steps[s];
                for origin in 0..st.pending.len() {
                    let Some(v) = st.pending[origin] else {
                        continue;
                    };
                    let valid = match (r, s) {
                        (1, 0) => true,
                        (_, 0) => prev_tally
                            .is_some_and(|t| v.is_some_and(|b| next_round_valid(&t, b, q, f))),
                        (_, 1) => {
                            prev_tally.is_some_and(|t| v.is_some_and(|b| step2_valid(&t, b, q)))
                        }
                        _ => prev_tally.is_some_and(|t| step3_valid(&t, v, q)),
                    };
                    if valid {
                        st.pending[origin] = None;
                        st.accepted[origin] = Some(v);
                        // Batched acceptances may overshoot the quorum; the
                        // first origin to reach it is the one that closed it.
                        if st.quorum_closer.is_none() && st.accepted_count() >= q {
                            st.quorum_closer = Some(origin);
                        }
                        moved = true;
                    }
                }
            }
            prev = Some((r, round));
        }
        moved
    }

    /// Fires the transition for the current (round, step) if its threshold
    /// is met. Returns whether a transition fired.
    fn try_advance(&mut self, out: &mut BcStep) -> bool {
        if self.halted || !self.started {
            return false;
        }
        let (r, s) = (self.round, self.step);
        let quorum = self.ctx.group.quorum();
        let st = &mut self.round_mut(r).steps[(s - 1) as usize];
        if st.fired || st.accepted_count() < quorum {
            return false;
        }
        st.fired = true;
        let tally = st.tally();
        // Own values are accepted inline (no revalidate pass), so a step
        // completed by our own broadcast has no recorded closer: use `me`.
        let closer = st.quorum_closer.unwrap_or(self.ctx.me);
        match s {
            1 => {
                self.current = Some(majority(&tally));
                self.step = 2;
                self.broadcast_current(out);
            }
            2 => {
                self.current = strict_majority(&tally);
                self.step = 3;
                self.broadcast_current(out);
            }
            3 => {
                self.ctx.annotate(
                    SpanAnnotation::RoundQuorum,
                    ritas_metrics::pack_round_quorum(r, closer as u32),
                );
                self.finish_round(&tally, out);
            }
            _ => unreachable!(),
        }
        true
    }

    fn finish_round(&mut self, tally: &Tally, out: &mut BcStep) {
        let threshold_decide = self.ctx.group.byzantine_majority();
        let threshold_adopt = self.ctx.group.one_correct();
        self.rounds_executed = self.round;

        // Pick the non-⊥ value with the larger support (ties to 0).
        let (lead, lead_count) = if tally.ones > tally.zeros {
            (true, tally.ones)
        } else {
            (false, tally.zeros)
        };

        let next_value = if lead_count >= threshold_decide {
            if self.decided.is_none() {
                self.decided = Some(lead);
                self.decided_round = Some(self.round);
                self.ctx.metrics.bc_decided.inc();
                self.ctx.metrics.bc_rounds.record(u64::from(self.round));
                self.ctx.metrics.trace(
                    Layer::Bc,
                    "decide",
                    || format!("bc:{}", self.ctx.me),
                    self.round,
                );
                self.ctx.close();
                out.push_output(lead);
            }
            lead
        } else if lead_count >= threshold_adopt {
            lead
        } else {
            self.ctx.metrics.bc_coin_flips.inc();
            self.ctx.metrics.trace(
                Layer::Bc,
                "coin-flip",
                || format!("bc:{}", self.ctx.me),
                self.round,
            );
            let bit = self.coin.flip_round(self.round);
            self.ctx
                .annotate(SpanAnnotation::CoinFlipped, u64::from(bit));
            bit
        };

        // A decided process participates for exactly one more round so
        // that laggards (which are at most one round behind) can decide,
        // then stops initiating rounds.
        if let Some(dr) = self.decided_round {
            if self.round > dr {
                self.halted = true;
                return;
            }
        }
        self.current = Some(next_value);
        self.round += 1;
        self.step = 1;
        self.ctx
            .annotate(SpanAnnotation::RoundEntered, u64::from(self.round));
        self.broadcast_current(out);
    }

    /// Broadcasts our current value for (self.round, self.step).
    fn broadcast_current(&mut self, out: &mut BcStep) {
        let (round, step, origin) = (self.round, self.step, self.ctx.me);
        match self.transport {
            StepTransport::ReliableBroadcast => {
                let payload = Bytes::copy_from_slice(&[encode_val(self.current)]);
                let sub = self
                    .step_rbc(round, step, origin)
                    .broadcast(payload)
                    .expect("own step broadcast is unique per (round, step)");
                out.extend(wrap_rbc(round, step, origin, sub));
            }
            StepTransport::PlainFanout => {
                out.push_broadcast(BcMessage {
                    round,
                    step,
                    origin,
                    body: BcBody::Plain(self.current),
                });
            }
        }
    }
}

fn wrap_rbc(round: u32, step: u8, origin: ProcessId, sub: Step<RbMessage, Bytes>) -> BcStep {
    sub.forward(|inner| BcMessage {
        round,
        step,
        origin,
        body: BcBody::Rbc(inner),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ctx, Net, Schedule};
    use ritas_crypto::{DeterministicCoin, FixedCoin, LocalRoundCoin};

    const RB: StepTransport = StepTransport::ReliableBroadcast;

    fn coin(seed: u64) -> Box<dyn RoundCoin + Send> {
        Box::new(LocalRoundCoin(DeterministicCoin::new(seed)))
    }

    type BcNet = Net<BinaryConsensus>;

    fn bc_net(n: usize, transport: StepTransport, seed: u64) -> BcNet {
        let insts = (0..n)
            .map(|me| BinaryConsensus::new(ctx(n, me, 1), coin(seed ^ me as u64), transport))
            .collect();
        Net::connect(insts, seed)
    }

    fn propose(net: &mut BcNet, p: ProcessId, v: bool) {
        let step = net.process_mut(p).propose(v).unwrap();
        net.absorb(p, step);
    }

    fn decision(net: &BcNet, p: ProcessId) -> Option<bool> {
        net.output(p).copied()
    }

    #[test]
    fn message_codec_roundtrip() {
        for msg in [
            BcMessage {
                round: 3,
                step: 2,
                origin: 1,
                body: BcBody::Rbc(RbMessage::Init(Bytes::from_static(&[1]))),
            },
            BcMessage {
                round: 1,
                step: 3,
                origin: 0,
                body: BcBody::Plain(None),
            },
        ] {
            assert_eq!(BcMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn codec_rejects_bad_value() {
        assert!(decode_val(3).is_err());
        assert!(BinaryConsensus::decode_step_value(&Bytes::from_static(&[2]), 1).is_err());
        assert!(BinaryConsensus::decode_step_value(&Bytes::from_static(&[2]), 3).is_ok());
        assert!(BinaryConsensus::decode_step_value(&Bytes::from_static(&[0, 0]), 1).is_err());
    }

    #[test]
    fn unanimous_one_decides_one_in_one_round() {
        let mut net = bc_net(4, StepTransport::ReliableBroadcast, 7);
        for p in 0..4 {
            propose(&mut net, p, true);
        }
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(true), "process {p}");
            assert_eq!(net.process(p).decided_round(), Some(1));
        }
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut net = bc_net(4, StepTransport::ReliableBroadcast, 8);
        for p in 0..4 {
            propose(&mut net, p, false);
        }
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(false));
        }
    }

    #[test]
    fn mixed_proposals_agree() {
        for (seed, schedule) in Schedule::sweep(0..10) {
            let mut net = bc_net(4, StepTransport::ReliableBroadcast, 100 + seed);
            net.set_schedule(schedule);
            propose(&mut net, 0, true);
            propose(&mut net, 1, false);
            propose(&mut net, 2, true);
            propose(&mut net, 3, false);
            net.run();
            let d0 = decision(&net, 0).expect("p0 decided");
            for p in 1..4 {
                assert_eq!(
                    decision(&net, p),
                    Some(d0),
                    "agreement violated, seed {seed} {schedule}"
                );
            }
        }
    }

    #[test]
    fn majority_proposal_wins_with_unanimity() {
        // 3 of 4 propose 1: decision must be 1 when the fourth is silent
        // (validity w.r.t. correct processes).
        let mut net = bc_net(4, StepTransport::ReliableBroadcast, 21);
        net.crash(3);
        propose(&mut net, 0, true);
        propose(&mut net, 1, true);
        propose(&mut net, 2, true);
        net.run();
        for p in 0..3 {
            assert_eq!(decision(&net, p), Some(true), "process {p}");
        }
    }

    #[test]
    fn crash_fault_still_terminates() {
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = bc_net(4, StepTransport::ReliableBroadcast, 200 + seed);
            net.set_schedule(schedule);
            net.crash(2);
            propose(&mut net, 0, true);
            propose(&mut net, 1, false);
            propose(&mut net, 3, true);
            net.run();
            let d = decision(&net, 0).expect("decided despite crash");
            assert_eq!(decision(&net, 1), Some(d));
            assert_eq!(decision(&net, 3), Some(d));
        }
    }

    #[test]
    fn byzantine_always_zero_cannot_block_unanimous_one() {
        // The paper's Byzantine faultload: one process always proposes 0
        // (a legal value) while the correct ones propose 1. Decision: 1.
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = bc_net(4, StepTransport::ReliableBroadcast, 300 + seed);
            net.set_schedule(schedule);
            propose(&mut net, 0, true);
            propose(&mut net, 1, true);
            propose(&mut net, 2, true);
            propose(&mut net, 3, false); // the attacker
            net.run();
            for p in 0..3 {
                assert_eq!(
                    decision(&net, p),
                    Some(true),
                    "seed {seed} {schedule} process {p}"
                );
            }
        }
    }

    #[test]
    fn plain_fanout_terminates_under_crash() {
        let mut net = bc_net(4, StepTransport::PlainFanout, 17);
        net.crash(1);
        propose(&mut net, 0, true);
        propose(&mut net, 2, true);
        propose(&mut net, 3, true);
        net.run();
        assert_eq!(decision(&net, 0), Some(true));
        assert_eq!(decision(&net, 2), Some(true));
        assert_eq!(decision(&net, 3), Some(true));
    }

    #[test]
    fn larger_group_unanimous() {
        let mut net = bc_net(7, StepTransport::ReliableBroadcast, 5);
        for p in 0..7 {
            propose(&mut net, p, true);
        }
        net.run();
        for p in 0..7 {
            assert_eq!(decision(&net, p), Some(true));
        }
    }

    #[test]
    fn double_propose_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1), RB);
        let _ = bc.propose(true).unwrap();
        assert_eq!(bc.propose(true).unwrap_err(), ProtocolError::AlreadyStarted);
    }

    #[test]
    fn fixed_coin_adversarial_coins_still_agree() {
        // Worst-case coins (all heads vs all tails across processes) must
        // never break agreement, only possibly delay termination.
        for schedule in Schedule::ALL {
            let insts = (0..4)
                .map(|me| {
                    let coin = Box::new(LocalRoundCoin(FixedCoin(me % 2 == 0)));
                    BinaryConsensus::new(ctx(4, me, 1), coin, RB)
                })
                .collect();
            let mut net = Net::connect(insts, 1);
            net.set_schedule(schedule);
            propose(&mut net, 0, true);
            propose(&mut net, 1, false);
            propose(&mut net, 2, false);
            propose(&mut net, 3, true);
            net.run();
            let d = decision(&net, 0).expect("decided");
            for p in 1..4 {
                assert_eq!(decision(&net, p), Some(d), "{schedule}");
            }
        }
    }

    #[test]
    fn shared_coin_instances_agree() {
        use ritas_crypto::SharedCoinDealer;
        for (seed, schedule) in Schedule::sweep(0..5) {
            let dealer = SharedCoinDealer::new(99);
            let insts = (0..4)
                .map(|me| BinaryConsensus::new(ctx(4, me, 1), Box::new(dealer.coin(1)), RB))
                .collect();
            let mut net = Net::connect(insts, 400 + seed);
            net.set_schedule(schedule);
            propose(&mut net, 0, true);
            propose(&mut net, 1, false);
            propose(&mut net, 2, false);
            propose(&mut net, 3, true);
            net.run();
            let d = decision(&net, 0).expect("decided");
            for p in 1..4 {
                assert_eq!(decision(&net, p), Some(d), "seed {seed} {schedule}");
            }
        }
    }

    #[test]
    fn shared_coin_beats_adversarial_local_coins() {
        // With opposing FixedCoins (the worst local-coin draw), a split
        // vote can take several rounds; the same schedule with a shared
        // coin converges as soon as the coin round fires, because all
        // correct processes flip the *same* bit.
        use ritas_crypto::SharedCoinDealer;
        let dealer = SharedCoinDealer::new(5);
        let insts = (0..4)
            .map(|me| BinaryConsensus::new(ctx(4, me, 1), Box::new(dealer.coin(7)), RB))
            .collect();
        let mut net = Net::connect(insts, 31);
        propose(&mut net, 0, true);
        propose(&mut net, 1, false);
        propose(&mut net, 2, true);
        propose(&mut net, 3, false);
        net.run();
        let d = decision(&net, 0).expect("decided");
        let max_round = (0..4)
            .filter_map(|p| net.process(p).decided_round())
            .max()
            .unwrap();
        for p in 1..4 {
            assert_eq!(decision(&net, p), Some(d));
        }
        assert!(max_round <= 3, "shared coin needed {max_round} rounds");
    }

    #[test]
    fn laggard_decides_after_others_halt() {
        // Deliver nothing to process 3 until processes 0-2 have decided
        // and halted; then release its backlog. The one-extra-round
        // participation of decided instances must let the laggard finish.
        let mut net = bc_net(4, StepTransport::ReliableBroadcast, 77);
        for p in 0..4 {
            propose(&mut net, p, true);
        }
        // Run while withholding everything addressed to process 3.
        net.hold(3);
        net.run();
        for p in 0..3 {
            assert_eq!(decision(&net, p), Some(true), "fast process {p}");
        }
        assert!(decision(&net, 3).is_none());
        // Release the backlog; the laggard's own new messages flow
        // normally (the fast processes still respond to sub-broadcasts).
        net.release(3);
        net.run();
        assert_eq!(decision(&net, 3), Some(true), "laggard never decided");
    }

    #[test]
    fn far_future_round_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1), RB);
        let step = bc.handle_message(
            1,
            BcMessage {
                round: 1_000_000,
                step: 1,
                origin: 1,
                body: BcBody::Rbc(RbMessage::Init(Bytes::from_static(&[1]))),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Unjustified);
    }

    #[test]
    fn malformed_step_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1), RB);
        let step = bc.handle_message(
            1,
            BcMessage {
                round: 1,
                step: 4,
                origin: 1,
                body: BcBody::Plain(Some(true)),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }

    #[test]
    fn plain_body_rejected_in_rbc_mode() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1), RB);
        let step = bc.handle_message(
            1,
            BcMessage {
                round: 1,
                step: 1,
                origin: 1,
                body: BcBody::Plain(Some(true)),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }

    #[test]
    fn plain_fanout_rejects_relayed_values() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1), StepTransport::PlainFanout);
        let step = bc.handle_message(
            2,
            BcMessage {
                round: 1,
                step: 1,
                origin: 1, // relayed: from != origin
                body: BcBody::Plain(Some(true)),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }
}
