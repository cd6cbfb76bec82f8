//! Binary consensus without a reliable broadcast per step — the `lean`
//! profile ([`super::Profile::Lean`]).
//!
//! The signature-free family of Mostéfaoui, Moumen and Raynal as Crain
//! presents it (arXiv 2002.04393): per round one *BV-broadcast* of the
//! estimate and one `AUX`, both plain authenticated fan-outs, decisions
//! taken on a common coin. A round costs two message delays where
//! Bracha's ([`super::BinaryConsensus`]) costs nine, and a failure-free
//! instance `2n²` frames where Bracha's costs `3n·(n + 2n²)`.
//!
//! Per instance, round `r ≥ 1`, `est` starting as the proposal:
//!
//! 1. **BV-broadcast.** Broadcast `EST(r, est)`. On `EST(r, w)` from
//!    `f + 1` members (one of them correct), broadcast `EST(r, w)` if not
//!    already sent; on `EST(r, w)` from `2f + 1`, add `w` to
//!    `bin_values[r]` — every correct process eventually does.
//! 2. **AUX.** When `bin_values[r]` first becomes non-empty, broadcast
//!    `AUX(r, w)` once, `w` that first value. A second, different `AUX`
//!    of one member is an [`FaultKind::Equivocation`].
//! 3. **Close.** Once `n − f` members' `AUX` values all lie in
//!    `bin_values[r]`, with `vals` those values and `s = coin(r)`: if
//!    `vals = {v}`, `est ← v` and decide `v` when `v = s`; otherwise
//!    `est ← s`.
//! 4. **Coin.** `coin(1) = 1` and `coin(2) = 0`: fixed, hence common, so a
//!    unanimous 1 decides in round 1 and a unanimous 0 in round 2. From
//!    round 3 a [`SharedCoin`] bit, its secret dealt with the keys.
//! 5. **Halting.** A process that decides in round `r` finishes round `r`
//!    (its relays included) and enters no later round. The first
//!    well-formed message of another member naming a round above `r` makes
//!    it broadcast `TERM(r, v)` once, which stands in for its `EST(v)` and
//!    `AUX(v)` in every round after `r`; `f + 1` `TERM(v)` decide `v`.
//!    When everybody decides in the same round nobody asks, and an
//!    instance sends nothing after its decision.
//!
//! DESIGN.md §4b carries the safety argument and the liveness gap of a
//! coin every member can compute.

use super::MAX_ROUND_AHEAD;
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use ritas_crypto::{RoundCoin, SharedCoin};
use ritas_metrics::SpanAnnotation;
use std::collections::BTreeMap;

/// What a [`LeanMessage`] says.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeanKind {
    /// BV-broadcast of the value: the sender's estimate, or a relay.
    Est,
    /// The first value the sender BV-delivered in the round.
    Aux,
    /// The sender decided the value in the round and runs no later one.
    Term,
}

/// A message of the lean binary consensus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeanMessage {
    /// What it says.
    pub kind: LeanKind,
    /// The round it belongs to (for `TERM`, the sender's decision round).
    pub round: u32,
    /// The bit.
    pub value: bool,
}

// The kind byte sits where a paper frame has its step (1–3), so a frame
// of either profile decodes as what it is (`super::BinMessage`).
const KIND_EST: u8 = 4;
const KIND_AUX: u8 = 5;
const KIND_TERM: u8 = 6;

impl WireMessage for LeanMessage {
    fn encode(&self, w: &mut Writer) {
        let kind = match self.kind {
            LeanKind::Est => KIND_EST,
            LeanKind::Aux => KIND_AUX,
            LeanKind::Term => KIND_TERM,
        };
        w.u32(self.round).u8(kind).u8(u8::from(self.value));
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let round = r.u32("bc.round")?;
        let kind = match r.u8("bc.step")? {
            KIND_EST => LeanKind::Est,
            KIND_AUX => LeanKind::Aux,
            KIND_TERM => LeanKind::Term,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "bc.step",
                    tag,
                })
            }
        };
        let value = match r.u8("bc.value")? {
            0 => false,
            1 => true,
            tag => {
                return Err(WireError::InvalidTag {
                    what: "bc.value",
                    tag,
                })
            }
        };
        Ok(LeanMessage { kind, round, value })
    }
}

/// Step type of a lean instance.
pub type LeanStep = Step<LeanMessage, bool>;

/// The bit of `heard` that records a member's `EST(w)`.
fn est_bit(w: bool) -> u8 {
    1 << u8::from(w)
}

/// The bit of `heard` that records a member's `AUX(w)`.
fn aux_bit(w: bool) -> u8 {
    4 << u8::from(w)
}

const AUX_BITS: u8 = 0b1100;

/// One round's bookkeeping.
#[derive(Debug, Clone)]
struct Round {
    /// Per member: which `EST`s and which `AUX` arrived, as bits.
    heard: Vec<u8>,
    /// Members whose `EST(w)` arrived, per value.
    est: [usize; 2],
    /// Members whose `AUX` carried `w`, per value.
    aux: [usize; 2],
    /// Whether our `EST(w)` went out, per value.
    sent: [bool; 2],
    bin_values: [bool; 2],
    /// The value that made `bin_values` non-empty.
    first: Option<bool>,
    aux_sent: bool,
}

impl Round {
    fn new(n: usize) -> Self {
        Round {
            heard: vec![0; n],
            est: [0; 2],
            aux: [0; 2],
            sent: [false; 2],
            bin_values: [false; 2],
            first: None,
            aux_sent: false,
        }
    }

    /// Records `p`'s `EST(w)`; whether it is new.
    fn est(&mut self, p: ProcessId, w: bool) -> bool {
        let bit = est_bit(w);
        if self.heard[p] & bit != 0 {
            return false;
        }
        self.heard[p] |= bit;
        self.est[usize::from(w)] += 1;
        true
    }

    /// Records `p`'s `AUX(w)`; `false` if `p` already sent a different one.
    fn aux(&mut self, p: ProcessId, w: bool) -> bool {
        match self.heard[p] & AUX_BITS {
            0 => {
                self.heard[p] |= aux_bit(w);
                self.aux[usize::from(w)] += 1;
                true
            }
            had => had == aux_bit(w),
        }
    }

    /// Once `quorum` members' `AUX` values lie in `bin_values`, the set of
    /// those values: `Some(Some(v))` for `{v}`, `Some(None)` for both.
    fn vals(&self, quorum: usize) -> Option<Option<bool>> {
        let counted = |w: bool| {
            let i = usize::from(w);
            if self.bin_values[i] {
                self.aux[i]
            } else {
                0
            }
        };
        let (zeros, ones) = (counted(false), counted(true));
        if ones >= quorum {
            Some(Some(true))
        } else if zeros >= quorum {
            Some(Some(false))
        } else if zeros + ones >= quorum {
            Some(None)
        } else {
            None
        }
    }
}

/// State of one lean binary consensus instance for process `me`.
///
/// Its coin is common *by type*: the constructor takes a [`SharedCoin`],
/// so a local coin — with which the decide rule would be unsafe — cannot
/// be passed in.
///
/// # Example
///
/// ```
/// use ritas::bc::lean::LeanConsensus;
/// use ritas::testing::{ctx, Net};
/// use ritas_crypto::KeyTable;
///
/// let keys = KeyTable::dealer(4, 7);
/// let procs = (0..4)
///     .map(|me| LeanConsensus::new(ctx(4, me, 7), keys.view_of(me).coin(1)))
///     .collect();
/// let mut net = Net::connect(procs, 7);
/// for p in 0..4 {
///     let step = net.process_mut(p).propose(true)?;
///     net.absorb(p, step);
/// }
/// net.run();
/// assert_eq!(net.output(3), Some(&true));
/// assert_eq!(net.delivered_frames(), 2 * 4 * 4, "one EST and one AUX fan-out each");
/// # Ok::<(), ritas::ProtocolError>(())
/// ```
pub struct LeanConsensus {
    ctx: Ctx,
    coin: SharedCoin,
    started: bool,
    /// The estimate carried into the current round.
    est: bool,
    round: u32,
    decision: Option<bool>,
    decided_round: Option<u32>,
    /// The current round's close decided: no later round is entered.
    halted: bool,
    term_sent: bool,
    /// Highest round named by a well-formed message from another member.
    peer_round: u32,
    rounds: BTreeMap<u32, Round>,
    /// Per member, its `TERM` as (decision round, value).
    terms: Vec<Option<(u32, bool)>>,
}

impl core::fmt::Debug for LeanConsensus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LeanConsensus")
            .field("me", &self.ctx.me)
            .field("round", &self.round)
            .field("decision", &self.decision)
            .field("halted", &self.halted)
            .finish_non_exhaustive()
    }
}

impl LeanConsensus {
    /// Creates an instance flipping the common `coin` from round 3 on.
    pub fn new(ctx: Ctx, coin: SharedCoin) -> Self {
        let n = ctx.group.n();
        LeanConsensus {
            ctx,
            coin,
            started: false,
            est: false,
            round: 1,
            decision: None,
            decided_round: None,
            halted: false,
            term_sent: false,
            peer_round: 0,
            rounds: BTreeMap::new(),
            terms: vec![None; n],
        }
    }

    /// The decision, once taken.
    pub fn decision(&self) -> Option<bool> {
        self.decision
    }

    /// The round in which the decision was taken (1-based), once decided.
    pub fn decided_round(&self) -> Option<u32> {
        self.decided_round
    }

    /// Current round (1-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Proposes a bit and emits the round-1 `EST`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose(&mut self, value: bool) -> Result<LeanStep, ProtocolError> {
        if self.started {
            return Err(ProtocolError::AlreadyStarted);
        }
        self.started = true;
        self.est = value;
        self.ctx.metrics.bc_started.inc();
        self.ctx.annotate(SpanAnnotation::RoundEntered, 1);
        let mut out = Step::none();
        // TERMs that arrived first may already decide.
        for v in [false, true] {
            if self.terms_for(v) >= self.ctx.group.one_correct() {
                self.decide(v, &mut out);
            }
        }
        // Traffic that arrived first may already close round 1.
        self.advance(self.ctx.me, &mut out);
        Ok(out)
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: LeanMessage) -> LeanStep {
        let LeanMessage { kind, round, value } = message;
        let rejected = if !self.ctx.group.contains(from) {
            Some(FaultKind::NotEntitled)
        } else if round == 0 {
            Some(FaultKind::Malformed)
        } else if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            // Memory-bounding: refuse to keep absurdly distant rounds.
            Some(FaultKind::Unjustified)
        } else {
            None
        };
        if let Some(kind) = rejected {
            return Step::fault(from, kind);
        }
        let mut out = Step::none();
        if from != self.ctx.me {
            self.peer_round = self.peer_round.max(round);
        }
        if self.halted && round > self.round {
            // Somebody is past our decision: our TERM stands in for us.
            self.wake(&mut out);
            return out;
        }
        match kind {
            LeanKind::Est => {
                if self.round_mut(round).est(from, value) {
                    self.update(round, &mut out);
                }
            }
            LeanKind::Aux => {
                if !self.round_mut(round).aux(from, value) {
                    out.push_fault(from, FaultKind::Equivocation);
                }
            }
            LeanKind::Term => self.on_term(from, round, value, &mut out),
        }
        self.advance(from, &mut out);
        out
    }

    fn on_term(&mut self, from: ProcessId, round: u32, value: bool, out: &mut LeanStep) {
        match self.terms[from] {
            None => self.terms[from] = Some((round, value)),
            Some(had) if had == (round, value) => return,
            Some(_) => {
                out.push_fault(from, FaultKind::Equivocation);
                return;
            }
        }
        // It stands in for the sender in every round after its decision.
        let later: Vec<u32> = self.rounds.range(round + 1..).map(|(r, _)| *r).collect();
        for r in later {
            let st = self.round_mut(r);
            st.est(from, value);
            if !st.aux(from, value) {
                out.push_fault(from, FaultKind::Equivocation);
            }
            self.update(r, out);
        }
        if self.started && self.terms_for(value) >= self.ctx.group.one_correct() {
            self.decide(value, out);
        }
    }

    /// Members whose `TERM` carries `v`.
    fn terms_for(&self, v: bool) -> usize {
        self.terms.iter().flatten().filter(|t| t.1 == v).count()
    }

    /// Round `r`'s state, created with the `TERM`s that stand in there.
    fn round_mut(&mut self, r: u32) -> &mut Round {
        let (n, terms) = (self.ctx.group.n(), &self.terms);
        self.rounds.entry(r).or_insert_with(|| {
            let mut st = Round::new(n);
            for (p, term) in terms.iter().enumerate() {
                if let Some((decided, v)) = *term {
                    if decided < r {
                        st.est(p, v);
                        st.aux(p, v);
                    }
                }
            }
            st
        })
    }

    /// Sends what round `r`'s tallies call for — relays, and the `AUX`
    /// once `bin_values` is non-empty — if the round has been entered.
    fn update(&mut self, r: u32, out: &mut LeanStep) {
        if !self.started || r > self.round {
            return;
        }
        let (one_correct, majority) = (
            self.ctx.group.one_correct(),
            self.ctx.group.byzantine_majority(),
        );
        let st = self.round_mut(r);
        for w in [false, true] {
            let i = usize::from(w);
            if st.est[i] >= one_correct && !st.sent[i] {
                st.sent[i] = true;
                out.push_broadcast(est(r, w));
            }
            if st.est[i] >= majority && !st.bin_values[i] {
                st.bin_values[i] = true;
                st.first.get_or_insert(w);
            }
        }
        if let (Some(w), false) = (st.first, st.aux_sent) {
            st.aux_sent = true;
            out.push_broadcast(LeanMessage {
                kind: LeanKind::Aux,
                round: r,
                value: w,
            });
        }
    }

    /// Enters and closes rounds for as long as their quorums are in;
    /// `closer` is the member whose message set this off.
    fn advance(&mut self, closer: ProcessId, out: &mut LeanStep) {
        let quorum = self.ctx.group.quorum();
        while self.started && !self.halted {
            let (r, mine) = (self.round, self.est);
            let st = self.round_mut(r);
            if !st.sent[usize::from(mine)] {
                st.sent[usize::from(mine)] = true;
                out.push_broadcast(est(r, mine));
            }
            self.update(r, out);
            let Some(vals) = self.rounds[&r].vals(quorum) else {
                return;
            };
            self.ctx.annotate(
                SpanAnnotation::RoundQuorum,
                ritas_metrics::pack_round_quorum(r, closer as u32),
            );
            let s = self.coin_of(r);
            match vals {
                Some(v) => {
                    self.est = v;
                    if v == s {
                        self.decide(v, out);
                        self.halted = true;
                        if self.peer_round > r {
                            // Traffic that beat our decision asks already.
                            self.wake(out);
                        }
                        return;
                    }
                }
                None => {
                    self.est = s;
                    self.ctx.metrics.bc_coin_flips.inc();
                    self.ctx.annotate(SpanAnnotation::CoinFlipped, u64::from(s));
                }
            }
            self.round += 1;
            self.ctx
                .annotate(SpanAnnotation::RoundEntered, u64::from(self.round));
        }
    }

    /// `coin(r)`: fixed for the first two rounds, the common coin after.
    fn coin_of(&mut self, r: u32) -> bool {
        match r {
            1 => true,
            2 => false,
            _ => self.coin.flip_round(r),
        }
    }

    fn decide(&mut self, v: bool, out: &mut LeanStep) {
        if self.decision.is_some() {
            return;
        }
        self.decision = Some(v);
        self.decided_round = Some(self.round);
        self.ctx.metrics.bc_decided.inc();
        self.ctx.metrics.bc_rounds.record(u64::from(self.round));
        self.ctx.close();
        out.push_output(v);
    }

    /// Broadcasts our `TERM`, once.
    fn wake(&mut self, out: &mut LeanStep) {
        if self.term_sent {
            return;
        }
        let value = self.decision.expect("only a decided instance halts");
        self.term_sent = true;
        self.ctx.metrics.bc_courtesy_rounds.inc();
        out.push_broadcast(LeanMessage {
            kind: LeanKind::Term,
            round: self.round,
            value,
        });
    }
}

fn est(round: u32, value: bool) -> LeanMessage {
    LeanMessage {
        kind: LeanKind::Est,
        round,
        value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ctx, Net, Schedule};
    use ritas_crypto::KeyTable;

    type LeanNet = Net<LeanConsensus>;

    fn instance(n: usize, me: ProcessId, seed: u64) -> LeanConsensus {
        let coin = KeyTable::dealer(n, seed).view_of(me).coin(seed);
        LeanConsensus::new(ctx(n, me, seed), coin)
    }

    fn lean_net(n: usize, seed: u64) -> LeanNet {
        Net::connect((0..n).map(|me| instance(n, me, seed)).collect(), seed)
    }

    fn propose(net: &mut LeanNet, p: ProcessId, v: bool) {
        let step = net.process_mut(p).propose(v).unwrap();
        net.absorb(p, step);
    }

    fn msg(kind: LeanKind, round: u32, value: bool) -> LeanMessage {
        LeanMessage { kind, round, value }
    }

    /// Feeds `bc` (process 0 of 4) `kind(round, value)` from processes
    /// `from`; returns what it sent in response.
    fn feed(
        bc: &mut LeanConsensus,
        from: std::ops::Range<ProcessId>,
        kind: LeanKind,
        round: u32,
        value: bool,
    ) -> LeanStep {
        let mut out = Step::none();
        for p in from {
            out.extend(bc.handle_message(p, msg(kind, round, value)));
        }
        out
    }

    fn sent(step: &LeanStep) -> Vec<LeanMessage> {
        step.messages.iter().map(|m| m.message).collect()
    }

    #[test]
    fn message_codec_roundtrip() {
        for kind in [LeanKind::Est, LeanKind::Aux, LeanKind::Term] {
            for value in [false, true] {
                let m = msg(kind, 7, value);
                assert_eq!(LeanMessage::from_bytes(&m.to_bytes()).unwrap(), m);
            }
        }
        for bad in [[0, 0, 0, 1, 3, 1], [0, 0, 0, 1, 4, 2]] {
            assert!(LeanMessage::from_bytes(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn unanimous_one_decides_in_round_one_with_two_n_squared_frames() {
        for n in [4, 7] {
            let mut net = lean_net(n, 3);
            for p in 0..n {
                propose(&mut net, p, true);
            }
            net.run();
            for p in 0..n {
                let bc = net.process(p);
                assert_eq!((net.output(p), bc.decided_round()), (Some(&true), Some(1)));
                assert!(bc.halted && !bc.term_sent, "n {n} process {p}");
            }
            assert_eq!(net.delivered_frames(), 2 * (n * n) as u64, "n {n}");
        }
    }

    #[test]
    fn unanimous_zero_decides_in_round_two_with_four_n_squared_frames() {
        for n in [4, 7] {
            let mut net = lean_net(n, 4);
            for p in 0..n {
                propose(&mut net, p, false);
            }
            net.run();
            for p in 0..n {
                let bc = net.process(p);
                assert_eq!((net.output(p), bc.decided_round()), (Some(&false), Some(2)));
                assert!(!bc.term_sent, "n {n} process {p}");
            }
            assert_eq!(net.delivered_frames(), 4 * (n * n) as u64, "n {n}");
        }
    }

    /// Process `p`'s proposal in split run `seed`: seeded bits, so most
    /// runs split the group and a few are unanimous.
    fn split_proposal(seed: u64, p: ProcessId) -> bool {
        (seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (p * 3 % 61)) & 1 == 1
    }

    #[test]
    fn a_thousand_split_schedules_agree_validly_and_terminate() {
        for n in [4, 7] {
            let mut woken = 0;
            for seed in 0..1000u64 {
                let schedule = Schedule::ALL[seed as usize % 3];
                let mut net = lean_net(n, 5000 + seed);
                net.set_schedule(schedule);
                let proposals: Vec<bool> = (0..n).map(|p| split_proposal(seed, p)).collect();
                for (p, v) in proposals.iter().enumerate() {
                    propose(&mut net, p, *v);
                }
                net.run();
                let what = format!("n {n} seed {seed} {schedule}");
                let d = *net
                    .output(0)
                    .unwrap_or_else(|| panic!("{what}: p0 undecided"));
                for p in 0..n {
                    assert_eq!(net.output(p), Some(&d), "{what}: process {p}");
                    assert!(net.process(p).halted, "{what}: process {p} never halted");
                }
                assert!(proposals.contains(&d), "{what}: nobody proposed {d}");
                woken += (0..n).filter(|p| net.process(*p).term_sent).count();
            }
            assert!(woken > 0, "n {n}: no run needed a TERM");
        }
    }

    #[test]
    fn the_rest_decide_with_one_process_crashed() {
        for (seed, schedule) in Schedule::sweep(0..20) {
            let mut net = lean_net(4, 300 + seed);
            net.set_schedule(schedule);
            net.crash(2);
            for p in [0, 1, 3] {
                propose(&mut net, p, split_proposal(seed, p));
            }
            net.run();
            let d = net.output(0).copied().expect("decided despite the crash");
            assert_eq!(net.output(1), Some(&d), "seed {seed} {schedule}");
            assert_eq!(net.output(3), Some(&d), "seed {seed} {schedule}");
        }
    }

    #[test]
    fn f_byzantine_terms_decide_nobody() {
        // One TERM(0) is f of them: it decides no process on its own …
        let mut bc = instance(4, 0, 1);
        let _ = bc.propose(true).unwrap();
        let step = bc.handle_message(3, msg(LeanKind::Term, 1, false));
        assert!(step.outputs.is_empty() && bc.decision().is_none());
        // … and the correct processes, all proposing 1, decide 1 with it
        // standing in for the liar in every round after round 1.
        for (seed, schedule) in Schedule::sweep(0..10) {
            let mut net = lean_net(4, 40 + seed);
            net.set_schedule(schedule);
            net.crash(3);
            for to in 0..3 {
                net.inject(3, to, msg(LeanKind::Term, 1, false));
            }
            for p in 0..3 {
                propose(&mut net, p, true);
            }
            net.run();
            for p in 0..3 {
                assert_eq!(net.output(p), Some(&true), "seed {seed} {schedule} {p}");
            }
        }
    }

    #[test]
    fn an_aux_outside_bin_values_is_not_counted() {
        let mut bc = instance(4, 0, 1);
        let _ = bc.propose(true).unwrap();
        let _ = feed(&mut bc, 0..3, LeanKind::Est, 1, true);
        let aux = feed(&mut bc, 1..4, LeanKind::Aux, 1, false);
        // Three AUX(0), but 0 is not BV-delivered: nothing closes.
        assert!(aux.messages.is_empty() && aux.outputs.is_empty());
        assert_eq!((bc.round(), bc.decision()), (1, None));
        // Once 0 is BV-delivered the same three AUXes count: the round
        // closes on {0} and, coin(1) being 1, decides nothing.
        let step = feed(&mut bc, 1..4, LeanKind::Est, 1, false);
        assert_eq!(bc.round(), 2);
        assert_eq!(bc.decision(), None);
        assert!(sent(&step).contains(&msg(LeanKind::Est, 2, false)));
    }

    #[test]
    fn a_quiet_decider_woken_by_a_laggard_sends_exactly_one_term() {
        let mut bc = instance(4, 0, 1);
        let mut step = bc.propose(true).unwrap();
        step.extend(feed(&mut bc, 0..3, LeanKind::Est, 1, true));
        step.extend(feed(&mut bc, 0..3, LeanKind::Aux, 1, true));
        assert_eq!(step.outputs, [true]);
        assert!(bc.halted);
        // The rest of round 1 is finished quietly.
        let late = feed(&mut bc, 3..4, LeanKind::Est, 1, false);
        assert!(late.messages.is_empty());
        // A laggard that closed round 1 without deciding names round 2.
        let woken = bc.handle_message(3, msg(LeanKind::Est, 2, true));
        assert_eq!(sent(&woken), [msg(LeanKind::Term, 1, true)]);
        for (kind, from) in [(LeanKind::Aux, 3), (LeanKind::Est, 2), (LeanKind::Est, 1)] {
            let again = bc.handle_message(from, msg(kind, 2, true));
            assert!(again.is_empty(), "a second TERM or a round-2 frame");
        }
        assert_eq!(bc.ctx.metrics.bc_courtesy_rounds.get(), 1);
    }

    #[test]
    fn messages_out_of_bounds_are_faults() {
        let mut bc = instance(4, 0, 1);
        for (from, m, kind) in [
            (4, msg(LeanKind::Est, 1, true), FaultKind::NotEntitled),
            (1, msg(LeanKind::Aux, 0, true), FaultKind::Malformed),
            (
                1,
                msg(LeanKind::Est, 2 + MAX_ROUND_AHEAD, true),
                FaultKind::Unjustified,
            ),
        ] {
            assert_eq!(bc.handle_message(from, m).faults[0].kind, kind);
        }
        let _ = bc.handle_message(1, msg(LeanKind::Aux, 1, true));
        let twice = bc.handle_message(1, msg(LeanKind::Aux, 1, false));
        assert_eq!(twice.faults[0].kind, FaultKind::Equivocation);
        assert!(bc.handle_message(1, msg(LeanKind::Aux, 1, true)).is_empty());
    }

    #[test]
    fn a_frame_of_the_other_profile_is_malformed() {
        use crate::adversary::ProtocolMsg;
        use crate::bc::{BcInstance, BcMessage, BinMessage, Coins, Profile};
        use crate::rb::RbMessage;
        use crate::stack::InstanceKey;
        use crate::testing::Cluster;
        let paper = BinMessage::Paper(BcMessage {
            round: 1,
            step: 1,
            origin: 1,
            inner: RbMessage::Init(bytes::Bytes::from_static(&[1])),
        });
        let lean = BinMessage::Lean(est(1, true));
        for (profile, foreign) in [(Profile::Paper, lean), (Profile::Lean, paper)] {
            let coins = Coins { local: 1, nonce: 1 };
            let mut bc = BcInstance::new(ctx(4, 0, 1), profile, coins);
            let _ = bc.propose(true).unwrap();
            let step = bc.handle_message(1, foreign.clone());
            assert!(step.messages.is_empty(), "{profile}");
            assert_eq!(step.faults[0].kind, FaultKind::Malformed, "{profile}");
            // The same as a wire frame, through a stack of that profile.
            let mut cluster = Cluster::with_profile(4, 2, profile);
            let stack = cluster.stack_mut(0);
            let _ = stack.bc_propose(3, true).unwrap();
            let frame = ProtocolMsg::Bc(foreign).frame(InstanceKey::Bc { tag: 3 });
            let step = stack.handle_frame(1, frame);
            assert_eq!(step.faults[0].kind, FaultKind::Malformed, "{profile}");
        }
    }

    #[test]
    fn double_propose_rejected() {
        let mut bc = instance(4, 0, 1);
        let _ = bc.propose(true).unwrap();
        assert_eq!(bc.propose(true).unwrap_err(), ProtocolError::AlreadyStarted);
    }
}
