//! Vector consensus (paper §2.6, after Correia et al.).
//!
//! All correct processes decide the same vector `V` of size `n` such that,
//! for every correct process `p_i`, `V[i]` is either `p_i`'s proposal or
//! ⊥, and at least `f + 1` entries of `V` were proposed by correct
//! processes. Vector consensus is the asynchronous Byzantine counterpart
//! of interactive consistency.
//!
//! Protocol outline:
//!
//! 1. reliably broadcast the proposal; set round `r ← 0`;
//! 2. per round: wait until `n − f + r` proposals have been delivered;
//!    build the vector `W_i` from everything delivered so far (⊥ for
//!    missing entries) and propose `W_i` to a fresh multi-valued
//!    consensus instance (one per round);
//! 3. if that instance decides some `V ≠ ⊥`, decide `V`; otherwise
//!    increment `r` and repeat.
//!
//! As rounds advance each process waits for more proposals, so the views
//! `W_i` converge and the multi-valued consensus eventually accepts one of
//! them. The wait threshold is capped at `n` (all proposals); see
//! `DESIGN.md` for a discussion of the termination behaviour under
//! permanently silent processes.

use crate::bc::Coins;
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::mvc::{MultiValuedConsensus, MvcConfig, MvcMessage, MvcValue};
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::{Layer, SpanAnnotation};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The decided vector: entry `i` is `p_i`'s proposal or `None` (⊥).
pub type DecisionVector = Vec<Option<Bytes>>;

/// Messages of the vector consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VcMessage {
    /// Reliable broadcast traffic of `origin`'s proposal.
    Prop {
        /// Whose proposal broadcast this belongs to.
        origin: ProcessId,
        /// The broadcast traffic.
        inner: RbMessage,
    },
    /// Multi-valued consensus traffic for agreement round `round`.
    Round {
        /// The agreement round this instance belongs to.
        round: u32,
        /// The inner message.
        inner: MvcMessage,
    },
}

const TAG_PROP: u8 = 1;
const TAG_ROUND: u8 = 2;

impl WireMessage for VcMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            VcMessage::Prop { origin, inner } => {
                w.u8(TAG_PROP).u32(*origin as u32);
                inner.encode(w);
            }
            VcMessage::Round { round, inner } => {
                w.u8(TAG_ROUND).u32(*round);
                inner.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("vc.tag")? {
            TAG_PROP => Ok(VcMessage::Prop {
                origin: r.u32("vc.origin")? as usize,
                inner: RbMessage::decode(r)?,
            }),
            TAG_ROUND => Ok(VcMessage::Round {
                round: r.u32("vc.round")?,
                inner: MvcMessage::decode(r)?,
            }),
            t => Err(WireError::InvalidTag {
                what: "vc.tag",
                tag: t,
            }),
        }
    }
}

/// Encodes a `W_i` vector as a multi-valued consensus proposal.
fn encode_vector(v: &[Option<Bytes>]) -> Bytes {
    let mut w = Writer::new();
    w.u32(v.len() as u32);
    for entry in v {
        match entry {
            Some(b) => {
                w.u8(1).bytes(b);
            }
            None => {
                w.u8(0);
            }
        }
    }
    w.freeze()
}

/// Decodes a decided vector back from its MVC representation.
fn decode_vector(bytes: &Bytes, n: usize) -> Result<DecisionVector, WireError> {
    let mut r = Reader::shared(bytes);
    let len = r.u32("vc.vector.len")? as usize;
    if len != n {
        return Err(WireError::FieldTooLong {
            what: "vc.vector",
            len,
        });
    }
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        out.push(match r.u8("vc.vector.present")? {
            0 => None,
            1 => Some(r.bytes("vc.vector.entry")?),
            t => {
                return Err(WireError::InvalidTag {
                    what: "vc.vector.present",
                    tag: t,
                })
            }
        });
    }
    r.finish()?;
    Ok(out)
}

/// Step type of a vector consensus instance: outgoing messages plus, at
/// most once, the decided vector.
pub type VcStep = Step<VcMessage, DecisionVector>;

/// How far ahead of our current agreement round we instantiate MVC rounds.
const MAX_ROUND_AHEAD: u32 = 64;

/// State of one vector consensus instance for process `me`.
pub struct VectorConsensus {
    /// Child instances sit below this one's span at `prop:{p}` and
    /// `mvc:{r}`.
    ctx: Ctx,
    mvc_config: MvcConfig,
    coins: Coins,
    started: bool,
    /// Proposal reliable broadcasts, one per origin.
    prop_rbc: Vec<ReliableBroadcast>,
    /// Delivered proposals.
    proposals: Vec<Option<Bytes>>,
    /// Current agreement round.
    round: u32,
    /// Whether the current round's MVC proposal has been made.
    round_proposed: bool,
    /// MVC instances per round.
    rounds: BTreeMap<u32, MultiValuedConsensus>,
    decided: bool,
}

impl core::fmt::Debug for VectorConsensus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("VectorConsensus")
            .field("me", &self.ctx.me)
            .field("round", &self.round)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

impl VectorConsensus {
    /// Creates an instance whose rounds run multi-valued consensus as
    /// `mvc_config` says ([`MvcConfig::default`] is the paper's).
    ///
    /// Each round's binary consensus flips its own coins of `coins`
    /// ([`Coins::round`]).
    pub fn new(ctx: Ctx, coins: Coins, mvc_config: MvcConfig) -> Self {
        let n = ctx.group.n();
        let prop = |o| ctx.child(Layer::Rb, |f| write!(f, "prop:{o}"));
        VectorConsensus {
            mvc_config,
            coins,
            started: false,
            prop_rbc: (0..n)
                .map(|o| ReliableBroadcast::new(prop(o), mvc_config.profile, o))
                .collect(),
            proposals: vec![None; n],
            round: 0,
            round_proposed: false,
            rounds: BTreeMap::new(),
            decided: false,
            ctx,
        }
    }

    /// Starts the current round's agreement once enough proposals
    /// arrived. This is the only place a round starts: drivers call it
    /// after draining their inbound queue (single-threaded batching, as in
    /// the paper's implementation), so the round's `W_i` snapshot includes
    /// everything already received — which is what makes symmetric-LAN
    /// runs decide in the first round.
    pub fn poll(&mut self) -> VcStep {
        self.settle(true)
    }

    /// Whether this instance has decided.
    pub fn is_decided(&self) -> bool {
        self.decided
    }

    /// The agreement round currently in progress (0-based).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Proposes `value` and emits the proposal reliable broadcast.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose(&mut self, value: Bytes) -> Result<VcStep, ProtocolError> {
        if self.started {
            return Err(ProtocolError::AlreadyStarted);
        }
        self.started = true;
        self.ctx.metrics.vc_started.inc();
        let me = self.ctx.me;
        let sub = self.prop_rbc[me].broadcast(value)?;
        let mut out = wrap_prop(me, sub);
        out.extend(self.settle(false));
        Ok(out)
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: VcMessage) -> VcStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        let mut out = match message {
            VcMessage::Prop { origin, inner } => {
                if !self.ctx.group.contains(origin) {
                    return Step::fault(from, FaultKind::NotEntitled);
                }
                let mut sub = self.prop_rbc[origin].handle_message(from, inner);
                let delivered = std::mem::take(&mut sub.outputs);
                let out = wrap_prop(origin, sub);
                for payload in delivered {
                    if self.proposals[origin].is_none() {
                        self.proposals[origin] = Some(payload);
                    }
                }
                out
            }
            VcMessage::Round { round, inner } => {
                if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
                    return Step::fault(from, FaultKind::Unjustified);
                }
                let mvc = self.round_instance(round);
                let sub = mvc.handle_message(from, inner);
                wrap_round(round, sub)
            }
        };
        out.extend(self.settle(false));
        out
    }

    /// The MVC instance of `round`, created on first use.
    fn round_instance(&mut self, round: u32) -> &mut MultiValuedConsensus {
        self.rounds.entry(round).or_insert_with(|| {
            MultiValuedConsensus::new(
                self.ctx.child(Layer::Mvc, |f| write!(f, "mvc:{round}")),
                self.coins.round(round),
                self.mvc_config,
            )
        })
    }

    fn delivered_count(&self) -> usize {
        self.proposals.iter().filter(|p| p.is_some()).count()
    }

    /// Round-`r` wait threshold: `n − f + r`, capped at `n`.
    fn threshold(&self, round: u32) -> usize {
        (self.ctx.group.quorum() + round as usize).min(self.ctx.group.n())
    }

    fn settle(&mut self, start_rounds: bool) -> VcStep {
        let mut out = Step::none();
        loop {
            let mut progressed = false;
            // Start the current round's MVC when enough proposals arrived.
            if start_rounds
                && self.started
                && !self.decided
                && !self.round_proposed
                && self.delivered_count() >= self.threshold(self.round)
            {
                self.round_proposed = true;
                let round = self.round;
                self.ctx
                    .annotate(SpanAnnotation::RoundEntered, u64::from(round));
                let w = encode_vector(&self.proposals);
                let mvc = self.round_instance(round);
                let sub = mvc.propose(w).expect("round proposed once");
                out.extend(wrap_round(round, sub));
                progressed = true;
            }
            // Check the current round's MVC decision.
            if !self.decided && self.round_proposed {
                let round = self.round;
                let decision: Option<MvcValue> =
                    self.rounds.get(&round).and_then(|m| m.decision().cloned());
                match decision {
                    Some(Some(bytes)) => match decode_vector(&bytes, self.ctx.group.n()) {
                        Ok(v) => {
                            self.decided = true;
                            self.ctx.metrics.vc_decided.inc();
                            // Rounds are 0-based; record how many ran.
                            self.ctx.metrics.vc_rounds.record(u64::from(round) + 1);
                            self.ctx.close();
                            out.push_output(v);
                            progressed = true;
                        }
                        Err(_) => {
                            // A non-vector value can only be decided if it
                            // was proposed by a corrupt process and the MVC
                            // validity was defeated — treat as ⊥ and move
                            // to the next round.
                            self.round += 1;
                            self.round_proposed = false;
                            progressed = true;
                        }
                    },
                    Some(None) => {
                        self.round += 1;
                        self.round_proposed = false;
                        progressed = true;
                    }
                    None => {}
                }
            }
            if !progressed {
                break;
            }
        }
        out
    }
}

fn wrap_prop(origin: ProcessId, sub: Step<RbMessage, Bytes>) -> VcStep {
    sub.forward(|inner| VcMessage::Prop { origin, inner })
}

fn wrap_round(round: u32, sub: Step<MvcMessage, MvcValue>) -> VcStep {
    sub.forward(|inner| VcMessage::Round { round, inner })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{ctx, Net, Schedule};

    type VcNet = Net<VectorConsensus>;

    fn coins(local: u64) -> Coins {
        Coins { local, nonce: 3 }
    }

    fn vc_net(n: usize, seed: u64) -> VcNet {
        let insts = (0..n)
            .map(|me| {
                VectorConsensus::new(
                    ctx(n, me, seed),
                    coins(seed ^ me as u64),
                    MvcConfig::default(),
                )
            })
            .collect();
        Net::connect(insts, seed)
    }

    fn propose(net: &mut VcNet, p: ProcessId, v: &[u8]) {
        let step = net
            .process_mut(p)
            .propose(Bytes::copy_from_slice(v))
            .unwrap();
        net.absorb(p, step);
    }

    #[test]
    fn vector_codec_roundtrip() {
        let v: DecisionVector = vec![Some(Bytes::from_static(b"a")), None, Some(Bytes::new())];
        let enc = encode_vector(&v);
        assert_eq!(decode_vector(&enc, 3).unwrap(), v);
        assert!(decode_vector(&enc, 4).is_err());
    }

    #[test]
    fn message_codec_roundtrip() {
        let msgs = [
            VcMessage::Prop {
                origin: 1,
                inner: RbMessage::Ready(Bytes::from_static(b"p")),
            },
            VcMessage::Round {
                round: 2,
                inner: MvcMessage::Init {
                    origin: 0,
                    inner: RbMessage::Init(Bytes::from_static(b"w")),
                },
            },
        ];
        for m in msgs {
            assert_eq!(VcMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn all_processes_decide_same_vector() {
        for (seed, schedule) in Schedule::sweep(1..8) {
            let mut net = vc_net(4, seed);
            net.set_schedule(schedule);
            propose(&mut net, 0, b"p0");
            propose(&mut net, 1, b"p1");
            propose(&mut net, 2, b"p2");
            propose(&mut net, 3, b"p3");
            net.run();
            let d0 = net.output(0).cloned().expect("p0 decided");
            for p in 1..4 {
                assert_eq!(
                    net.output(p),
                    Some(&d0),
                    "seed {seed} {schedule} process {p}"
                );
            }
            // Vector validity: each entry is the real proposal or ⊥, and
            // at least f+1 = 2 entries are present.
            let present = d0.iter().flatten().count();
            assert!(present >= 2, "too few entries: {d0:?}");
            for p in 0..4 {
                let vc = net.process(p);
                let rounds = vc.ctx.metrics.vc_rounds.snapshot();
                assert_eq!((rounds.count, rounds.sum), (1, u64::from(vc.round) + 1));
            }
            for (i, e) in d0.iter().enumerate() {
                if let Some(v) = e {
                    assert_eq!(v.as_ref(), format!("p{i}").as_bytes());
                }
            }
        }
    }

    #[test]
    fn decides_with_one_crashed_process() {
        for schedule in Schedule::ALL {
            let mut net = vc_net(4, 3);
            net.set_schedule(schedule);
            net.crash(2);
            propose(&mut net, 0, b"p0");
            propose(&mut net, 1, b"p1");
            propose(&mut net, 3, b"p3");
            net.run();
            let d0 = net.output(0).cloned().expect("decided");
            for p in [1, 3] {
                assert_eq!(net.output(p), Some(&d0), "{schedule}");
            }
            // The crashed process's entry must be ⊥ (it never proposed).
            assert!(d0[2].is_none());
            assert!(d0.iter().flatten().count() >= 2);
        }
    }

    #[test]
    fn double_propose_rejected() {
        let mut vc = VectorConsensus::new(ctx(4, 0, 0), coins(1), MvcConfig::default());
        let _ = vc.propose(Bytes::from_static(b"v")).unwrap();
        assert_eq!(
            vc.propose(Bytes::from_static(b"w")).unwrap_err(),
            ProtocolError::AlreadyStarted
        );
    }

    #[test]
    fn far_future_round_rejected() {
        let mut vc = VectorConsensus::new(ctx(4, 0, 0), coins(1), MvcConfig::default());
        let step = vc.handle_message(
            1,
            VcMessage::Round {
                round: 1000,
                inner: MvcMessage::Init {
                    origin: 1,
                    inner: RbMessage::Init(Bytes::from_static(b"x")),
                },
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Unjustified);
    }

    #[test]
    fn larger_group_decides() {
        let mut net = vc_net(7, 11);
        for p in 0..7 {
            propose(&mut net, p, format!("val{p}").as_bytes());
        }
        net.run();
        let d0 = net.output(0).cloned().expect("decided");
        for p in 1..7 {
            assert_eq!(net.output(p), Some(&d0));
        }
        assert!(d0.iter().flatten().count() >= 3); // f+1 = 3 for n = 7
    }
}
