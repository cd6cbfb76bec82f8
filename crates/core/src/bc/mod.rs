//! Randomized binary consensus, in the two profiles a stack runs
//! ([`Profile`]): Bracha's protocol as the paper describes it (§2.4), and
//! the [`lean`] one the node runtime deploys. [`BcInstance::new`] is the
//! one place either is made.
//!
//! Each process proposes a bit; all correct processes decide the same bit,
//! and if all correct processes propose `v` the decision is `v`. The
//! protocol is the only randomized layer of the stack: it circumvents FLP
//! with a *coin* and terminates with probability 1, with no timing
//! assumptions whatsoever.
//!
//! Bracha's proceeds in rounds of three steps. In each step every process
//! reliably broadcasts a value and waits for `n − f` *valid* values:
//!
//! 1. broadcast `v_i`; set `v_i` to the **majority** of the values
//!    received;
//! 2. broadcast `v_i`; if more than half the received values are equal,
//!    set `v_i` to that value, else `v_i ← ⊥`;
//! 3. broadcast `v_i`; if `≥ 2f+1` received values are some `v ≠ ⊥`,
//!    **decide** `v`; else if `≥ f+1` are `v ≠ ⊥`, adopt `v_i ← v`; else
//!    flip a fair local **coin**; in all cases start the next round. A
//!    process that decided in round `r` enters `r + 1` with its value
//!    pinned to the decision but *withholds* its step-1 broadcast until
//!    some other member shows, by any message naming a round above `r`,
//!    that it needs the round ([`PostDecision`]); woken, it runs `r + 1`
//!    and halts at its end. When everybody decides in the same round
//!    nobody ever asks, and the instance goes quiet after one round
//!    (DESIGN.md §4b).
//!
//! Received values are only *accepted* once they are congruent with some
//! `n − f` subset of the previous step's accepted values ([`validation`]);
//! messages that cannot yet be justified are parked. This neutralizes
//! processes that do not follow the protocol — the mechanism the paper
//! credits for its Byzantine immunity results — while the reliable
//! broadcast under each step prevents equivocation inside it.

pub mod lean;
pub mod validation;

use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use lean::{LeanConsensus, LeanMessage};
use ritas_crypto::{DeterministicCoin, RoundCoin};
use ritas_metrics::SpanAnnotation;
use std::collections::BTreeMap;
use validation::{majority, next_round_valid, step2_valid, step3_valid, strict_majority, Tally};

/// A protocol value: `Some(bit)` or `None` for the undefined value ⊥.
pub type Val = Option<bool>;

/// How far ahead of our current round we accept (and buffer) messages.
/// Correct processes are normally within one round of each other; the
/// bound only limits memory a Byzantine process can make us allocate.
/// Atomic broadcast bounds its rounds and slots by the same constant.
pub(crate) const MAX_ROUND_AHEAD: u32 = 64;

/// Which binary consensus a stack's agreements run — and with it which
/// coin they flip.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Profile {
    /// Bracha's consensus, every step value reliably broadcast, a local
    /// coin per process: the paper's stack, which Table 1 and Figures 4–7
    /// reproduce.
    #[default]
    Paper,
    /// BV-broadcast and `AUX` as plain fan-outs on the common coin dealt
    /// with the keys ([`lean`]): what the node runtime and the service
    /// tier run.
    Lean,
}

impl core::fmt::Display for Profile {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(match self {
            Profile::Paper => "paper",
            Profile::Lean => "lean",
        })
    }
}

impl std::str::FromStr for Profile {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "paper" => Ok(Profile::Paper),
            "lean" => Ok(Profile::Lean),
            other => Err(format!(
                "unknown profile {other:?} (expected paper or lean)"
            )),
        }
    }
}

/// The coins one binary consensus instance may flip; its [`Profile`]
/// takes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Coins {
    /// Seeds this process's own local coin ([`Profile::Paper`]).
    pub local: u64,
    /// Names the instance to the dealt common coin ([`Profile::Lean`]):
    /// every process derives the same nonce for the same instance.
    pub nonce: u64,
}

impl Coins {
    /// The coins of agreement round `round` of a layer that runs one
    /// agreement per round (vector consensus, atomic broadcast).
    pub fn round(self, round: u32) -> Coins {
        let of = |seed: u64| {
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u64::from(round))
        };
        Coins {
            local: of(self.local),
            nonce: of(self.nonce),
        }
    }
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

/// A message of Bracha's binary consensus: traffic of the reliable
/// broadcast of `origin`'s value for (`round`, `step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BcMessage {
    /// Round number (from 1).
    pub round: u32,
    /// Step within the round (1, 2 or 3).
    pub step: u8,
    /// The process whose step value this broadcast carries.
    pub origin: ProcessId,
    /// The reliable broadcast traffic.
    pub inner: RbMessage,
}

/// The tag byte before the reliable broadcast traffic: the frame layout
/// Table 1 and Figures 4–7 were measured with.
const BODY_RBC: u8 = 1;

impl WireMessage for BcMessage {
    fn encode(&self, w: &mut Writer) {
        w.u32(self.round).u8(self.step).u32(self.origin as u32);
        w.u8(BODY_RBC);
        self.inner.encode(w);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let round = r.u32("bc.round")?;
        let step = r.u8("bc.step")?;
        let origin = r.u32("bc.origin")? as usize;
        match r.u8("bc.body")? {
            BODY_RBC => {}
            tag => {
                return Err(WireError::InvalidTag {
                    what: "bc.body",
                    tag,
                })
            }
        }
        Ok(BcMessage {
            round,
            step,
            origin,
            inner: RbMessage::decode(r)?,
        })
    }
}

/// A binary consensus message of either profile, as it travels.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinMessage {
    /// Bracha's ([`Profile::Paper`]).
    Paper(BcMessage),
    /// The lean one's ([`Profile::Lean`]).
    Lean(LeanMessage),
}

impl WireMessage for BinMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            BinMessage::Paper(m) => m.encode(w),
            BinMessage::Lean(m) => m.encode(w),
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        // Both begin with the round; the next byte is a paper step (1–3)
        // or a lean kind.
        let mut peek = r.clone();
        peek.u32("bc.round")?;
        if (1..=3).contains(&peek.u8("bc.step")?) {
            Ok(BinMessage::Paper(BcMessage::decode(r)?))
        } else {
            Ok(BinMessage::Lean(LeanMessage::decode(r)?))
        }
    }
}

/// Step type of a binary consensus instance of either profile.
pub type BinStep = Step<BinMessage, bool>;

/// One binary consensus instance of either profile, as the layers above
/// hold it.
#[derive(Debug)]
pub enum BcInstance {
    /// Bracha's.
    Paper(BinaryConsensus),
    /// The lean one.
    Lean(LeanConsensus),
}

impl BcInstance {
    /// The instance `profile` runs: Bracha's flipping a local coin seeded
    /// by `coins.local`, or the lean one flipping the common coin
    /// `ctx`'s keys deal for `coins.nonce`.
    pub fn new(ctx: Ctx, profile: Profile, coins: Coins) -> Self {
        match profile {
            Profile::Paper => {
                let coin = Box::new(DeterministicCoin::new(coins.local));
                BcInstance::Paper(BinaryConsensus::new(ctx, coin))
            }
            Profile::Lean => {
                let coin = ctx.keys.coin(coins.nonce);
                BcInstance::Lean(LeanConsensus::new(ctx, coin))
            }
        }
    }

    /// Proposes a bit.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose(&mut self, value: bool) -> Result<BinStep, ProtocolError> {
        Ok(match self {
            BcInstance::Paper(bc) => bc.propose(value)?.map_messages(BinMessage::Paper),
            BcInstance::Lean(bc) => bc.propose(value)?.map_messages(BinMessage::Lean),
        })
    }

    /// Handles a protocol message from `from`; a message of the other
    /// profile is [`FaultKind::Malformed`].
    pub fn handle_message(&mut self, from: ProcessId, message: BinMessage) -> BinStep {
        match (self, message) {
            (BcInstance::Paper(bc), BinMessage::Paper(m)) => {
                bc.handle_message(from, m).map_messages(BinMessage::Paper)
            }
            (BcInstance::Lean(bc), BinMessage::Lean(m)) => {
                bc.handle_message(from, m).map_messages(BinMessage::Lean)
            }
            _ => Step::fault(from, FaultKind::Malformed),
        }
    }

    /// The round in which the decision was taken (1-based), once decided.
    pub fn decided_round(&self) -> Option<u32> {
        match self {
            BcInstance::Paper(bc) => bc.decided_round(),
            BcInstance::Lean(bc) => bc.decided_round(),
        }
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

/// Where an instance stands relative to its own decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PostDecision {
    /// Not decided yet: every finished round starts the next one.
    Undecided,
    /// Decided in round `r`, standing in `r + 1` with the step-1
    /// broadcast withheld: no other member has named a round above `r`.
    Quiet,
    /// Running round `r + 1` for a member that needs it.
    Courtesy,
    /// Round `r + 1` finished; no further round is initiated.
    Halted,
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

/// State of one instance of Bracha's binary consensus for process `me`.
///
/// The instance is generic-free: the coin is injected as a boxed
/// [`RoundCoin`] so that the stack and adversarial tests can plug
/// different sources (see `ritas_crypto::coin`): the local coin of
/// Ben-Or's scheme, the paper's, which [`BcInstance::new`] seeds, or a
/// forced [`ritas_crypto::FixedCoin`]. (The common coin belongs to the
/// [`lean`] consensus, whose decide rule needs it.)
///
/// # Example
///
/// Most users reach binary consensus through
/// [`crate::stack::Stack::bc_propose`] or
/// [`crate::node::Node::binary_consensus`]; the state machine itself is
/// constructed per instance:
///
/// ```
/// use ritas::bc::BinaryConsensus;
/// use ritas::testing::ctx;
/// use ritas_crypto::DeterministicCoin;
///
/// let coin = Box::new(DeterministicCoin::new(1));
/// let mut bc = BinaryConsensus::new(ctx(4, 0, 7), coin);
/// let step = bc.propose(true)?;
/// assert!(!step.messages.is_empty(), "round 1 step 1 broadcast");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct BinaryConsensus {
    ctx: Ctx,
    coin: Box<dyn RoundCoin + Send>,
    started: bool,
    /// Our value for the in-progress step broadcast.
    current: Val,
    round: u32,
    step: u8,
    decided: Option<bool>,
    decided_round: Option<u32>,
    post: PostDecision,
    /// Highest round named by a well-formed message from another member.
    peer_round: u32,
    rounds: BTreeMap<u32, RoundState>,
    /// Reliable-broadcast sub-instances keyed by (round, step, origin).
    rbc: BTreeMap<(u32, u8, ProcessId), ReliableBroadcast>,
}

impl core::fmt::Debug for BinaryConsensus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("BinaryConsensus")
            .field("me", &self.ctx.me)
            .field("round", &self.round)
            .field("step", &self.step)
            .field("decided", &self.decided)
            .field("post", &self.post)
            .finish_non_exhaustive()
    }
}

impl BinaryConsensus {
    /// Creates an instance flipping `coin`.
    pub fn new(ctx: Ctx, coin: Box<dyn RoundCoin + Send>) -> Self {
        BinaryConsensus {
            ctx,
            coin,
            started: false,
            current: None,
            round: 1,
            step: 1,
            decided: None,
            decided_round: None,
            post: PostDecision::Undecided,
            peer_round: 0,
            rounds: BTreeMap::new(),
            rbc: BTreeMap::new(),
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
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if message.round == 0 || !(1..=3).contains(&message.step) {
            return Step::fault(from, FaultKind::Malformed);
        }
        if message.round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            // Memory-bounding: refuse to buffer absurdly distant rounds.
            return Step::fault(from, FaultKind::Unjustified);
        }
        let (round, step, origin) = (message.round, message.step, message.origin);
        let mut sub = self
            .step_rbc(round, step, origin)
            .handle_message(from, message.inner);
        let delivered = std::mem::take(&mut sub.outputs);
        let mut out = wrap_rbc(round, step, origin, sub);
        for payload in delivered {
            match Self::decode_step_value(&payload, step) {
                Ok(v) => self.record_pending(round, step, origin, v),
                Err(_) => {
                    out.push_fault(origin, FaultKind::Malformed);
                }
            }
        }
        if from != self.ctx.me {
            self.peer_round = self.peer_round.max(round);
            if self.post == PostDecision::Quiet && round >= self.round {
                // Somebody is in the round after our decision: run it.
                self.post = PostDecision::Courtesy;
                self.ctx.metrics.bc_courtesy_rounds.inc();
                self.broadcast_current(&mut out);
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
            .or_insert_with(|| ReliableBroadcast::new(self.ctx.spanless(), Profile::Paper, origin))
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
        if !self.started || matches!(self.post, PostDecision::Quiet | PostDecision::Halted) {
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
                self.ctx.close();
                out.push_output(lead);
            }
            lead
        } else if lead_count >= threshold_adopt {
            lead
        } else {
            self.ctx.metrics.bc_coin_flips.inc();
            let bit = self.coin.flip_round(self.round);
            self.ctx
                .annotate(SpanAnnotation::CoinFlipped, u64::from(bit));
            bit
        };

        if self.post == PostDecision::Courtesy {
            self.post = PostDecision::Halted;
            return;
        }
        self.current = Some(next_value);
        self.round += 1;
        self.step = 1;
        self.ctx
            .annotate(SpanAnnotation::RoundEntered, u64::from(self.round));
        if self.decided.is_some() {
            // Just decided. A process that did not decide here is at most
            // one round behind and needs n − f values in the next round to
            // finish, ours among them — but only if such a process exists.
            // Its step-1 INIT (or any later frame of that round) reaches us
            // over the reliable channel, so wait for it; traffic that beat
            // our decision counts. All decided together: nobody asks.
            if self.peer_round < self.round {
                self.post = PostDecision::Quiet;
                return;
            }
            self.post = PostDecision::Courtesy;
        }
        self.broadcast_current(out);
    }

    /// Broadcasts our current value for (self.round, self.step).
    fn broadcast_current(&mut self, out: &mut BcStep) {
        let (round, step, origin) = (self.round, self.step, self.ctx.me);
        let payload = Bytes::copy_from_slice(&[encode_val(self.current)]);
        let sub = self
            .step_rbc(round, step, origin)
            .broadcast(payload)
            .expect("own step broadcast is unique per (round, step)");
        out.extend(wrap_rbc(round, step, origin, sub));
    }
}

fn wrap_rbc(round: u32, step: u8, origin: ProcessId, sub: Step<RbMessage, Bytes>) -> BcStep {
    sub.forward(|inner| BcMessage {
        round,
        step,
        origin,
        inner,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ctx, Net, Schedule};
    use ritas_crypto::{DeterministicCoin, FixedCoin};

    fn coin(seed: u64) -> Box<dyn RoundCoin + Send> {
        Box::new(DeterministicCoin::new(seed))
    }

    type BcNet = Net<BinaryConsensus>;

    fn bc_net(n: usize, seed: u64) -> BcNet {
        let insts = (0..n)
            .map(|me| BinaryConsensus::new(ctx(n, me, 1), coin(seed ^ me as u64)))
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

    /// The highest round any frame `bc` sent or received belongs to (each
    /// one opens the RBC instance of its step broadcast).
    fn highest_round_touched(bc: &BinaryConsensus) -> u32 {
        bc.rbc.keys().map(|&(round, _, _)| round).max().unwrap_or(0)
    }

    /// How many times `bc` was woken out of its quiet post-decision state.
    fn wakes(bc: &BinaryConsensus) -> u64 {
        bc.ctx.metrics.bc_courtesy_rounds.get()
    }

    /// Frames of one all-correct round: 3 steps × n broadcasts × (n INIT +
    /// n² ECHO + n² READY).
    fn round_frames(n: u64) -> u64 {
        3 * n * (n + 2 * n * n)
    }

    /// Everybody decided in round 1 and nobody sent a frame beyond it.
    fn assert_quiet_after_round_one(net: &BcNet) {
        let n = net.n();
        for p in 0..n {
            let bc = net.process(p);
            assert_eq!(bc.decided_round(), Some(1), "process {p}");
            assert_eq!(bc.post, PostDecision::Quiet, "process {p}");
            assert_eq!(highest_round_touched(bc), 1, "process {p}");
            assert_eq!(wakes(bc), 0, "process {p}");
        }
        assert_eq!(net.delivered_frames(), round_frames(n as u64));
    }

    fn rbc(round: u32, step: u8, origin: ProcessId, inner: RbMessage) -> BcMessage {
        BcMessage {
            round,
            step,
            origin,
            inner,
        }
    }

    fn one() -> Bytes {
        Bytes::from_static(&[1])
    }

    /// Feeds `bc` (process 0 of 4) the READYs of processes 1–3 for the
    /// round-1 values of processes 1–3, all `1`: enough for every step's
    /// quorum. Returns everything `bc` sent in response.
    fn feed_unanimous_round_one(bc: &mut BinaryConsensus) -> BcStep {
        let mut out = Step::none();
        for step in 1..=3 {
            for origin in 1..4 {
                for from in 1..4 {
                    out.extend(
                        bc.handle_message(from, rbc(1, step, origin, RbMessage::Ready(one()))),
                    );
                }
            }
        }
        out
    }

    #[test]
    fn message_codec_roundtrip() {
        for msg in [
            rbc(3, 2, 1, RbMessage::Init(one())),
            rbc(1, 3, 0, RbMessage::Ready(Bytes::from_static(&[2]))),
        ] {
            let bytes = msg.to_bytes();
            assert_eq!(BcMessage::from_bytes(&bytes).unwrap(), msg);
            let either = BinMessage::from_bytes(&bytes).unwrap();
            assert_eq!(either, BinMessage::Paper(msg));
        }
        // The body tag before the broadcast traffic is the only one there is.
        let mut bytes = rbc(1, 1, 0, RbMessage::Init(one())).to_bytes().to_vec();
        bytes[9] = 2;
        assert!(BcMessage::from_bytes(&bytes).is_err());
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
        let mut net = bc_net(4, 7);
        for p in 0..4 {
            propose(&mut net, p, true);
        }
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(true), "process {p}");
        }
        assert_quiet_after_round_one(&net);
    }

    #[test]
    fn unanimous_zero_decides_zero() {
        let mut net = bc_net(4, 8);
        for p in 0..4 {
            propose(&mut net, p, false);
        }
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(false));
        }
        assert_quiet_after_round_one(&net);
    }

    #[test]
    fn mixed_proposals_agree() {
        for (seed, schedule) in Schedule::sweep(0..10) {
            let mut net = bc_net(4, 100 + seed);
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
        let mut net = bc_net(4, 21);
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
            let mut net = bc_net(4, 200 + seed);
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
            let mut net = bc_net(4, 300 + seed);
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
    fn larger_group_unanimous() {
        let mut net = bc_net(7, 5);
        for p in 0..7 {
            propose(&mut net, p, true);
        }
        net.run();
        for p in 0..7 {
            assert_eq!(decision(&net, p), Some(true));
        }
        assert_quiet_after_round_one(&net);
    }

    #[test]
    fn double_propose_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
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
                    let coin = Box::new(FixedCoin(me % 2 == 0));
                    BinaryConsensus::new(ctx(4, me, 1), coin)
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
                .map(|me| BinaryConsensus::new(ctx(4, me, 1), Box::new(dealer.coin(1))))
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
            .map(|me| BinaryConsensus::new(ctx(4, me, 1), Box::new(dealer.coin(7))))
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
        // and gone quiet; then release its backlog. Round 1 was run in
        // full by the others, so the backlog alone carries the laggard to
        // the same round-1 decision and nobody is ever woken.
        let mut net = bc_net(4, 77);
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
        assert_quiet_after_round_one(&net);
    }

    #[test]
    fn decided_instance_withholds_the_next_round_until_asked() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
        let mut sent = bc.propose(true).unwrap();
        sent.extend(feed_unanimous_round_one(&mut bc));
        assert_eq!(sent.outputs, [true]);
        assert_eq!((bc.decided_round(), bc.round()), (Some(1), 2));
        assert!(sent.messages.iter().all(|m| m.message.round == 1));
        assert_eq!(bc.post, PostDecision::Quiet);

        // p1 did not decide in round 1: its round-2 step-1 INIT asks.
        let woken = bc.handle_message(1, rbc(2, 1, 1, RbMessage::Init(one())));
        let sent: Vec<_> = woken.messages.into_iter().map(|m| m.message).collect();
        assert_eq!(
            sent,
            [
                rbc(2, 1, 1, RbMessage::Echo(one())),
                rbc(2, 1, 0, RbMessage::Init(one())),
            ]
        );
        assert_eq!((bc.post, wakes(&bc)), (PostDecision::Courtesy, 1));
    }

    #[test]
    fn round_ahead_traffic_before_the_decision_means_no_deferral() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
        let mut sent = bc.propose(true).unwrap();
        let early = bc.handle_message(1, rbc(2, 1, 1, RbMessage::Init(one())));
        assert_eq!(early.messages.len(), 1, "the ECHO, nothing of our own");
        sent.extend(feed_unanimous_round_one(&mut bc));
        assert_eq!(sent.outputs, [true]);
        let own_round_two = rbc(2, 1, 0, RbMessage::Init(one()));
        assert!(sent.messages.iter().any(|m| m.message == own_round_two));
        assert_eq!((bc.post, wakes(&bc)), (PostDecision::Courtesy, 0));
    }

    #[test]
    fn a_malformed_or_own_frame_wakes_nobody() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
        let _ = bc.propose(true).unwrap();
        let _ = feed_unanimous_round_one(&mut bc);
        for (from, msg) in [
            (1, rbc(2, 4, 1, RbMessage::Init(one()))),
            (4, rbc(2, 1, 1, RbMessage::Init(one()))),
            (
                1,
                rbc(2 + MAX_ROUND_AHEAD + 1, 1, 1, RbMessage::Init(one())),
            ),
            (0, rbc(2, 1, 1, RbMessage::Echo(one()))),
        ] {
            let step = bc.handle_message(from, msg);
            assert!(step.messages.is_empty());
            assert_eq!(bc.post, PostDecision::Quiet);
        }
    }

    #[test]
    fn one_round_ahead_init_costs_exactly_the_old_second_round() {
        // The worst a Byzantine member can do: ask for the round nobody
        // needs. Every process then runs it and halts, as all did before.
        for n in [4, 7] {
            let mut net = bc_net(n, 9);
            for p in 0..n {
                propose(&mut net, p, true);
            }
            net.run();
            assert_quiet_after_round_one(&net);
            let asker = n - 1;
            for to in 0..asker {
                net.inject(asker, to, rbc(2, 1, asker, RbMessage::Init(one())));
            }
            net.run();
            for p in 0..n {
                let bc = net.process(p);
                assert_eq!(decision(&net, p), Some(true), "n {n} process {p}");
                assert_eq!(bc.post, PostDecision::Halted, "n {n} process {p}");
                assert_eq!((bc.round(), wakes(bc)), (2, 1), "n {n} process {p}");
            }
            let injected = asker as u64;
            assert_eq!(
                net.delivered_frames() - injected,
                2 * round_frames(n as u64)
            );
        }
    }

    /// One run of the split-proposal workload the wake rule is tuned on.
    /// Returns the net after it drained.
    fn split_run(n: usize, seed: u64, schedule: Schedule) -> BcNet {
        let mut net = bc_net(n, 5000 + seed);
        net.set_schedule(schedule);
        for p in 0..n {
            propose(&mut net, p, (p as u64 + seed).is_multiple_of(2));
        }
        net.run();
        net
    }

    /// Agreement and termination of a drained net; returns whether the
    /// run exercised the liveness half of the wake rule — processes
    /// decided in different rounds and a quiet decider was woken.
    fn check_split_run(net: &BcNet, what: &str) -> bool {
        let d = decision(net, 0).unwrap_or_else(|| panic!("{what}: p0 undecided"));
        let rounds: Vec<u32> = (0..net.n())
            .map(|p| {
                assert_eq!(decision(net, p), Some(d), "{what}: process {p}");
                net.process(p).decided_round().expect("decided")
            })
            .collect();
        let woken = (0..net.n()).any(|p| wakes(net.process(p)) > 0);
        woken && rounds.iter().any(|r| *r != rounds[0])
    }

    #[test]
    fn split_decisions_wake_quiet_deciders() {
        for n in [4, 7] {
            let mut exercised = 0;
            for (seed, schedule) in Schedule::sweep(0..300) {
                let net = split_run(n, seed, schedule);
                let what = format!("n {n} seed {seed} {schedule}");
                exercised += u32::from(check_split_run(&net, &what));
            }
            assert!(exercised > 0, "n {n}: no run woke a quiet decider");
        }
    }

    // Three runs of the sweep above in which a process that did not decide
    // with the others had to wake them, pinned by name: if a change to the
    // emission order moves them, pick three new hits from the sweep rather
    // than let the liveness half of the rule go untested.
    fn assert_wakes_a_quiet_decider(n: usize, seed: u64) {
        let net = split_run(n, seed, Schedule::Random);
        let what = format!("n {n} seed {seed}");
        assert!(check_split_run(&net, &what), "{what}: nobody was woken");
    }

    #[test]
    fn split_decision_n4_seed_10_wakes_a_quiet_decider() {
        assert_wakes_a_quiet_decider(4, 10);
    }

    #[test]
    fn split_decision_n4_seed_33_wakes_a_quiet_decider() {
        assert_wakes_a_quiet_decider(4, 33);
    }

    #[test]
    fn split_decision_n7_seed_1_wakes_a_quiet_decider() {
        assert_wakes_a_quiet_decider(7, 1);
    }

    #[test]
    fn far_future_round_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
        let step = bc.handle_message(1, rbc(1_000_000, 1, 1, RbMessage::Init(one())));
        assert_eq!(step.faults[0].kind, FaultKind::Unjustified);
    }

    #[test]
    fn malformed_step_rejected() {
        let mut bc = BinaryConsensus::new(ctx(4, 0, 1), coin(1));
        let step = bc.handle_message(1, rbc(1, 4, 1, RbMessage::Init(one())));
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }
}
