//! Multi-valued consensus (paper §2.5, after Correia et al.).
//!
//! Lifts binary consensus to values of arbitrary length: every process
//! proposes some `v ∈ 𝒱`; the decision is one of the proposed values or
//! the default value ⊥. The implementation follows the RITAS-optimized
//! variant: the `VECT` messages travel by *echo broadcast* instead of
//! reliable broadcast (cheaper; configurable back to reliable broadcast
//! via [`VectTransport`] for the ablation bench), and vector validation is
//! the simplified membership check described in the paper.
//!
//! Protocol outline:
//!
//! 1. reliably broadcast `(INIT, v_i)`; wait for `n − f` `INIT`s, storing
//!    the received values in the vector `V_i`;
//! 2. if some value `v` occurs `≥ n − 2f` times in `V_i`, echo-broadcast
//!    `(VECT, v, V_i)` — `V_i` *justifies* `v`; otherwise echo-broadcast
//!    `(VECT, ⊥)`;
//! 3. wait for `n − f` **valid** `VECT`s. A `VECT` from `p_j` is valid if
//!    `v_j = ⊥`, or if `≥ n − 2f` indices `k` satisfy
//!    `V_i[k] = V_j[k] = v_j` (checked against *my own* received `INIT`s,
//!    which keep arriving and can validate a parked `VECT` later);
//! 4. propose `1` to binary consensus iff no two valid `VECT`s carry
//!    different non-⊥ values **and** `≥ n − 2f` valid `VECT`s carry the
//!    same value; otherwise propose `0`;
//! 5. binary consensus `0` → decide ⊥; `1` → wait for `≥ n − 2f` valid
//!    `VECT`s with the same value `v` and decide `v`.
//!
//! The Byzantine faultload of the paper's evaluation (§4.2) — a process
//! that "always proposes the default value in both INIT and VECT
//! messages" and proposes `0` at the binary consensus layer — is available
//! as [`MultiValuedConsensus::propose_byzantine_bottom`], so the
//! evaluation harness attacks through the real code path.

use crate::bc::{BcInstance, BinMessage, Coins, Profile};
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::eb::{EbMessage, EchoBroadcast};
use crate::error::ProtocolError;
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::{Layer, SpanAnnotation};
use std::fmt::Write as _;

/// Transport used for the `VECT` messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VectTransport {
    /// Matrix echo broadcast — the paper's optimization (default).
    #[default]
    Echo,
    /// Reliable broadcast — the original Correia et al. protocol; costs
    /// one more communication step but gives `VECT`s full totality.
    Reliable,
}

/// A proposal value: `Some(bytes)`, or `None` for the default value ⊥
/// (only ever sent by the Byzantine faultload; correct processes propose
/// real values).
pub type MvcValue = Option<Bytes>;

pub(crate) fn encode_value(w: &mut Writer, v: &MvcValue) {
    match v {
        Some(b) => {
            w.u8(1).bytes(b);
        }
        None => {
            w.u8(0);
        }
    }
}

pub(crate) fn decode_value(r: &mut Reader<'_>) -> Result<MvcValue, WireError> {
    match r.u8("mvc.value.tag")? {
        0 => Ok(None),
        1 => Ok(Some(r.bytes("mvc.value")?)),
        t => Err(WireError::InvalidTag {
            what: "mvc.value.tag",
            tag: t,
        }),
    }
}

/// The payload carried inside a `VECT` broadcast: the echoed value plus
/// the justification vector (the sender's view of the `INIT` values).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectPayload {
    /// The value the sender claims occurred `≥ n−2f` times (`None` = ⊥).
    pub value: MvcValue,
    /// The sender's `INIT` vector; `None` entries were not received.
    /// Empty when `value` is ⊥ (⊥ needs no justification).
    pub justification: Vec<MvcValue>,
}

/// Decoder bound for justification vectors.
const MAX_JUSTIFICATION: usize = 4096;

impl WireMessage for VectPayload {
    fn encode(&self, w: &mut Writer) {
        encode_value(w, &self.value);
        w.u32(self.justification.len() as u32);
        for v in &self.justification {
            encode_value(w, v);
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let value = decode_value(r)?;
        let len = r.u32("mvc.vect.len")? as usize;
        if len > MAX_JUSTIFICATION {
            return Err(WireError::FieldTooLong {
                what: "mvc.vect",
                len,
            });
        }
        let mut justification = Vec::with_capacity(len);
        for _ in 0..len {
            justification.push(decode_value(r)?);
        }
        Ok(VectPayload {
            value,
            justification,
        })
    }
}

/// Body of a `VECT` transmission, matching the configured transport.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VectBody {
    /// Echo broadcast traffic.
    Echo(EbMessage),
    /// Reliable broadcast traffic.
    Reliable(RbMessage),
}

/// Messages of the multi-valued consensus.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MvcMessage {
    /// Reliable broadcast traffic of `origin`'s `INIT`.
    Init {
        /// Whose `INIT` broadcast this belongs to.
        origin: ProcessId,
        /// The broadcast traffic.
        inner: RbMessage,
    },
    /// `VECT` broadcast traffic of `origin`.
    Vect {
        /// Whose `VECT` broadcast this belongs to.
        origin: ProcessId,
        /// The broadcast traffic.
        inner: VectBody,
    },
    /// Binary consensus traffic.
    Bin(BinMessage),
}

const TAG_INIT: u8 = 1;
const TAG_VECT_ECHO: u8 = 2;
const TAG_VECT_RB: u8 = 3;
const TAG_BIN: u8 = 4;

impl WireMessage for MvcMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            MvcMessage::Init { origin, inner } => {
                w.u8(TAG_INIT).u32(*origin as u32);
                inner.encode(w);
            }
            MvcMessage::Vect { origin, inner } => match inner {
                VectBody::Echo(m) => {
                    w.u8(TAG_VECT_ECHO).u32(*origin as u32);
                    m.encode(w);
                }
                VectBody::Reliable(m) => {
                    w.u8(TAG_VECT_RB).u32(*origin as u32);
                    m.encode(w);
                }
            },
            MvcMessage::Bin(m) => {
                w.u8(TAG_BIN);
                m.encode(w);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("mvc.tag")? {
            TAG_INIT => Ok(MvcMessage::Init {
                origin: r.u32("mvc.origin")? as usize,
                inner: RbMessage::decode(r)?,
            }),
            TAG_VECT_ECHO => Ok(MvcMessage::Vect {
                origin: r.u32("mvc.origin")? as usize,
                inner: VectBody::Echo(EbMessage::decode(r)?),
            }),
            TAG_VECT_RB => Ok(MvcMessage::Vect {
                origin: r.u32("mvc.origin")? as usize,
                inner: VectBody::Reliable(RbMessage::decode(r)?),
            }),
            TAG_BIN => Ok(MvcMessage::Bin(BinMessage::decode(r)?)),
            t => Err(WireError::InvalidTag {
                what: "mvc.tag",
                tag: t,
            }),
        }
    }
}

/// Step type of a multi-valued consensus instance: outgoing messages plus,
/// at most once, the decision (`None` = the default value ⊥).
pub type MvcStep = Step<MvcMessage, MvcValue>;

/// One process's `VECT` broadcast instance (echo or reliable).
#[derive(Debug)]
enum VectInstance {
    Echo(EchoBroadcast),
    Reliable(ReliableBroadcast),
}

/// Configuration for a [`MultiValuedConsensus`] instance.
#[derive(Debug, Clone, Copy, Default)]
pub struct MvcConfig {
    /// Transport for `VECT` messages.
    pub vect_transport: VectTransport,
    /// Which binary consensus decides the instance.
    pub profile: Profile,
}

/// State of one multi-valued consensus instance for process `me`.
pub struct MultiValuedConsensus {
    /// Child instances sit below this one's span at `init:{p}`,
    /// `vect:{p}` and `bc`.
    ctx: Ctx,
    config: MvcConfig,
    started: bool,
    /// Byzantine faultload flag (paper §4.2): send ⊥ everywhere, 0 to BC.
    byzantine_bottom: bool,
    /// INIT reliable broadcasts, one per origin.
    init_rbc: Vec<ReliableBroadcast>,
    /// Delivered INIT values (our vector `V_i`). Outer `Option`:
    /// delivered or not; inner [`MvcValue`]: the value (⊥ possible).
    init_values: Vec<Option<MvcValue>>,
    /// VECT broadcast instances, one per origin.
    vect_inst: Vec<Option<VectInstance>>,
    /// Delivered-but-unvalidated VECT payloads per origin.
    vect_pending: Vec<Option<VectPayload>>,
    /// Validated VECT values per origin.
    vect_valid: Vec<Option<MvcValue>>,
    /// Origins already reported for a justification that contradicts a
    /// reliably-broadcast `INIT` (one report per origin).
    vect_suspected: Vec<bool>,
    sent_vect: bool,
    /// Snapshot flag: the BC proposal has been computed and submitted.
    bc_proposed: bool,
    bc: BcInstance,
    bc_decision: Option<bool>,
    decided: bool,
    decision: Option<MvcValue>,
}

impl core::fmt::Debug for MultiValuedConsensus {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("MultiValuedConsensus")
            .field("me", &self.ctx.me)
            .field("sent_vect", &self.sent_vect)
            .field("bc_proposed", &self.bc_proposed)
            .field("decided", &self.decided)
            .finish_non_exhaustive()
    }
}

impl MultiValuedConsensus {
    /// Creates an instance whose binary consensus flips one of `coins`
    /// ([`MvcConfig::default`] is the paper's configuration).
    pub fn new(ctx: Ctx, coins: Coins, config: MvcConfig) -> Self {
        let n = ctx.group.n();
        let init = |o| ctx.child(Layer::Rb, |f| write!(f, "init:{o}"));
        let init_rbc = (0..n)
            .map(|o| ReliableBroadcast::new(init(o), config.profile, o))
            .collect();
        let bc = ctx.child(Layer::Bc, |f| f.write_str("bc"));
        MultiValuedConsensus {
            config,
            started: false,
            byzantine_bottom: false,
            init_rbc,
            init_values: vec![None; n],
            vect_inst: (0..n).map(|_| None).collect(),
            vect_pending: vec![None; n],
            vect_valid: vec![None; n],
            vect_suspected: vec![false; n],
            sent_vect: false,
            bc_proposed: false,
            bc: BcInstance::new(bc, config.profile, coins),
            bc_decision: None,
            decided: false,
            decision: None,
            ctx,
        }
    }

    /// The decision, once taken (`Some(None)` = decided ⊥).
    pub fn decision(&self) -> Option<&MvcValue> {
        if self.decided {
            self.decision.as_ref()
        } else {
            None
        }
    }

    /// Whether this instance has decided.
    pub fn is_decided(&self) -> bool {
        self.decided
    }

    /// Number of rounds the underlying binary consensus ran (statistics).
    pub fn bc_rounds(&self) -> Option<u32> {
        self.bc.decided_round()
    }

    /// Proposes `value` and emits the `INIT` reliable broadcast.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose(&mut self, value: Bytes) -> Result<MvcStep, ProtocolError> {
        self.propose_value(Some(value))
    }

    /// Runs the Byzantine faultload of the paper's evaluation: propose the
    /// default value ⊥ in `INIT` and `VECT`, and `0` at the binary
    /// consensus layer, "trying to force correct processes to decide on
    /// the default value" (§4.2).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn propose_byzantine_bottom(&mut self) -> Result<MvcStep, ProtocolError> {
        self.byzantine_bottom = true;
        self.propose_value(None)
    }

    fn propose_value(&mut self, value: MvcValue) -> Result<MvcStep, ProtocolError> {
        if self.started {
            return Err(ProtocolError::AlreadyStarted);
        }
        self.started = true;
        self.ctx.metrics.mvc_started.inc();
        let me = self.ctx.me;
        let mut payload = Writer::new();
        encode_value(&mut payload, &value);
        let sub = self.init_rbc[me].broadcast(payload.freeze())?;
        let mut out = wrap_init(me, sub);
        out.extend(self.settle());
        Ok(out)
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: MvcMessage) -> MvcStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        let mut out = match message {
            MvcMessage::Init { origin, inner } => {
                if !self.ctx.group.contains(origin) {
                    return Step::fault(from, FaultKind::NotEntitled);
                }
                let mut sub = self.init_rbc[origin].handle_message(from, inner);
                let delivered = std::mem::take(&mut sub.outputs);
                let mut out = wrap_init(origin, sub);
                for payload in delivered {
                    match VectOrInit::decode_init(&payload) {
                        Ok(v) => self.on_init_delivered(origin, v),
                        Err(_) => out.push_fault(origin, FaultKind::Malformed),
                    }
                }
                out
            }
            MvcMessage::Vect { origin, inner } => self.on_vect_message(from, origin, inner),
            MvcMessage::Bin(m) => {
                let mut sub = self.bc.handle_message(from, m);
                let decisions = std::mem::take(&mut sub.outputs);
                let out = wrap_bin(sub);
                for d in decisions {
                    self.on_bc_decision(d);
                }
                out
            }
        };
        out.extend(self.settle());
        out
    }

    fn vect_instance(&mut self, origin: ProcessId) -> &mut VectInstance {
        self.vect_inst[origin].get_or_insert_with(|| {
            let vect = |layer| self.ctx.child(layer, |f| write!(f, "vect:{origin}"));
            match self.config.vect_transport {
                VectTransport::Echo => {
                    VectInstance::Echo(EchoBroadcast::new(vect(Layer::Eb), origin))
                }
                VectTransport::Reliable => VectInstance::Reliable(ReliableBroadcast::new(
                    vect(Layer::Rb),
                    self.config.profile,
                    origin,
                )),
            }
        })
    }

    fn on_vect_message(&mut self, from: ProcessId, origin: ProcessId, body: VectBody) -> MvcStep {
        if !self.ctx.group.contains(origin) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        let echo = matches!(self.config.vect_transport, VectTransport::Echo);
        if echo != matches!(body, VectBody::Echo(_)) {
            return Step::fault(from, FaultKind::Malformed);
        }
        let (delivered, mut out) = match (self.vect_instance(origin), body) {
            (VectInstance::Echo(eb), VectBody::Echo(m)) => {
                let mut sub = eb.handle_message(from, m);
                (
                    std::mem::take(&mut sub.outputs),
                    wrap_vect_echo(origin, sub),
                )
            }
            (VectInstance::Reliable(rb), VectBody::Reliable(m)) => {
                let mut sub = rb.handle_message(from, m);
                (std::mem::take(&mut sub.outputs), wrap_vect_rb(origin, sub))
            }
            _ => unreachable!("the instance is of the configured transport"),
        };
        for payload in delivered {
            match VectPayload::from_shared(&payload) {
                Ok(p) => self.on_vect_delivered(origin, p),
                Err(_) => out.push_fault(origin, FaultKind::Malformed),
            }
        }
        out
    }

    fn on_init_delivered(&mut self, origin: ProcessId, value: MvcValue) {
        if self.init_values[origin].is_none() {
            self.init_values[origin] = Some(value);
        }
    }

    fn on_vect_delivered(&mut self, origin: ProcessId, payload: VectPayload) {
        if self.vect_pending[origin].is_none() && self.vect_valid[origin].is_none() {
            self.vect_pending[origin] = Some(payload);
        }
    }

    fn on_bc_decision(&mut self, d: bool) {
        if self.bc_decision.is_none() {
            self.bc_decision = Some(d);
        }
    }

    fn init_count(&self) -> usize {
        self.init_values.iter().filter(|v| v.is_some()).count()
    }

    /// Runs all deferred transitions to a fixpoint.
    fn settle(&mut self) -> MvcStep {
        let mut out = Step::none();
        loop {
            let mut progressed = false;
            progressed |= self.validate_vects(&mut out);
            if let Some(step) = self.maybe_send_vect() {
                out.extend(step);
                progressed = true;
            }
            if let Some(step) = self.maybe_propose_bc() {
                out.extend(step);
                progressed = true;
            }
            if self.maybe_decide(&mut out) {
                progressed = true;
            }
            if !progressed {
                break;
            }
        }
        out
    }

    /// Moves justifiable pending `VECT`s to the validated set.
    ///
    /// Also cross-checks each pending justification against the `INIT`s
    /// we delivered directly: `INIT`s travel by reliable broadcast, so
    /// any two correct processes deliver the same value per origin — a
    /// justification entry that *contradicts* ours (both non-⊥, different
    /// bytes) can only come from a lying `VECT` origin. That lie is what
    /// makes per-receiver conflicting vectors otherwise undetectable:
    /// the vector never validates and would just sit pending forever.
    /// Claiming ⊥ where we saw a value (or vice versa) is legitimate
    /// asynchrony and is not flagged.
    fn validate_vects(&mut self, out: &mut MvcStep) -> bool {
        let mut moved = false;
        for origin in 0..self.ctx.group.n() {
            let Some(p) = self.vect_pending[origin].as_ref() else {
                continue;
            };
            if !self.vect_suspected[origin] {
                let lied = (0..self.ctx.group.n()).any(|k| {
                    matches!(
                        (self.init_values.get(k), p.justification.get(k)),
                        (Some(Some(Some(mine))), Some(Some(theirs))) if mine != theirs
                    )
                });
                if lied {
                    self.vect_suspected[origin] = true;
                    out.push_fault(origin, FaultKind::Unjustified);
                }
            }
            let valid = match &p.value {
                None => true, // ⊥ needs no justification
                Some(v) => {
                    let matching = (0..self.ctx.group.n())
                        .filter(|&k| {
                            let mine = matches!(
                                self.init_values.get(k),
                                Some(Some(Some(b))) if b == v
                            );
                            let theirs = matches!(
                                p.justification.get(k),
                                Some(Some(b)) if b == v
                            );
                            mine && theirs
                        })
                        .count();
                    matching >= self.ctx.group.correct_in_quorum()
                }
            };
            if valid {
                let p = self.vect_pending[origin].take().expect("checked above");
                self.vect_valid[origin] = Some(p.value);
                moved = true;
            }
        }
        moved
    }

    /// After `n − f` `INIT`s: compose and broadcast our `VECT` (once).
    fn maybe_send_vect(&mut self) -> Option<MvcStep> {
        if self.sent_vect || !self.started || self.init_count() < self.ctx.group.quorum() {
            return None;
        }
        self.sent_vect = true;

        let value: MvcValue = if self.byzantine_bottom {
            None
        } else {
            self.most_common_init()
                .filter(|(_, c)| *c >= self.ctx.group.correct_in_quorum())
                .map(|(v, _)| v)
        };
        let payload = VectPayload {
            justification: if value.is_some() {
                self.init_values
                    .iter()
                    .map(|slot| slot.clone().flatten())
                    .collect()
            } else {
                Vec::new()
            },
            value,
        };
        let bytes = payload.to_bytes();
        let me = self.ctx.me;
        let sub = match self.vect_instance(me) {
            VectInstance::Echo(eb) => wrap_vect_echo(me, eb.broadcast(bytes).expect("one vect")),
            VectInstance::Reliable(rb) => wrap_vect_rb(me, rb.broadcast(bytes).expect("one vect")),
        };
        Some(sub)
    }

    /// The most frequent non-⊥ `INIT` value with its count (ties broken by
    /// smallest byte string, deterministically).
    fn most_common_init(&self) -> Option<(Bytes, usize)> {
        let mut best: Option<(Bytes, usize)> = None;
        for slot in self.init_values.iter().flatten().flatten() {
            let count = self
                .init_values
                .iter()
                .flatten()
                .flatten()
                .filter(|v| *v == slot)
                .count();
            match &best {
                Some((bv, bc)) if *bc > count || (*bc == count && bv <= slot) => {}
                _ => best = Some((slot.clone(), count)),
            }
        }
        best
    }

    /// After `n − f` valid `VECT`s: evaluate the condition and propose to
    /// binary consensus (once).
    fn maybe_propose_bc(&mut self) -> Option<MvcStep> {
        if self.bc_proposed || !self.started {
            return None;
        }
        let valid_count = self.vect_valid.iter().filter(|v| v.is_some()).count();
        if valid_count < self.ctx.group.quorum() {
            return None;
        }
        self.bc_proposed = true;
        self.ctx
            .annotate(SpanAnnotation::VectCollected, valid_count as u64);

        let proposal = if self.byzantine_bottom {
            false
        } else {
            let values: Vec<&Bytes> = self.vect_valid.iter().flatten().flatten().collect();
            let conflict = values.iter().any(|a| values.iter().any(|b| a != b));
            let supported = values.iter().any(|v| {
                values.iter().filter(|w| w == &v).count() >= self.ctx.group.correct_in_quorum()
            });
            !conflict && supported
        };
        let mut sub = self.bc.propose(proposal).expect("bc proposed once");
        let decisions = std::mem::take(&mut sub.outputs);
        let out = wrap_bin(sub);
        for d in decisions {
            self.on_bc_decision(d);
        }
        Some(out)
    }

    /// Applies the decision rule once binary consensus has decided.
    fn maybe_decide(&mut self, out: &mut MvcStep) -> bool {
        if self.decided {
            return false;
        }
        match self.bc_decision {
            Some(false) => {
                self.decided = true;
                self.decision = Some(None);
                self.ctx.metrics.mvc_decided_bottom.inc();
                self.ctx.close();
                out.push_output(None);
                true
            }
            Some(true) => {
                // Wait for n−2f valid VECTs with the same value v.
                let threshold = self.ctx.group.correct_in_quorum();
                let mut best: Option<(Bytes, usize)> = None;
                for v in self.vect_valid.iter().flatten().flatten() {
                    let count = self
                        .vect_valid
                        .iter()
                        .flatten()
                        .flatten()
                        .filter(|w| *w == v)
                        .count();
                    match &best {
                        Some((bv, bc)) if *bc > count || (*bc == count && bv <= v) => {}
                        _ => best = Some((v.clone(), count)),
                    }
                }
                if let Some((v, count)) = best {
                    if count >= threshold {
                        self.decided = true;
                        self.decision = Some(Some(v.clone()));
                        self.ctx.metrics.mvc_decided_value.inc();
                        self.ctx.close();
                        out.push_output(Some(v));
                        return true;
                    }
                }
                false
            }
            None => false,
        }
    }
}

/// `INIT` payload decoding helper.
struct VectOrInit;

impl VectOrInit {
    fn decode_init(payload: &Bytes) -> Result<MvcValue, WireError> {
        let mut r = Reader::shared(payload);
        let v = decode_value(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

fn wrap_init(origin: ProcessId, sub: Step<RbMessage, Bytes>) -> MvcStep {
    sub.forward(|inner| MvcMessage::Init { origin, inner })
}

fn wrap_vect_echo(origin: ProcessId, sub: Step<EbMessage, Bytes>) -> MvcStep {
    sub.forward(|inner| MvcMessage::Vect {
        origin,
        inner: VectBody::Echo(inner),
    })
}

fn wrap_vect_rb(origin: ProcessId, sub: Step<RbMessage, Bytes>) -> MvcStep {
    sub.forward(|inner| MvcMessage::Vect {
        origin,
        inner: VectBody::Reliable(inner),
    })
}

fn wrap_bin(sub: Step<BinMessage, bool>) -> MvcStep {
    sub.forward(MvcMessage::Bin)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::BcMessage;
    use crate::testing::{ctx, Net, Schedule};

    fn coins(seed: u64) -> Coins {
        Coins {
            local: seed,
            nonce: 1,
        }
    }

    type MvcNet = Net<MultiValuedConsensus>;

    fn mvc_net(n: usize, seed: u64, config: MvcConfig) -> MvcNet {
        let insts = (0..n)
            .map(|me| {
                let coins = coins(seed ^ (me as u64) << 8);
                MultiValuedConsensus::new(ctx(n, me, seed), coins, config)
            })
            .collect();
        Net::connect(insts, seed)
    }

    fn propose(net: &mut MvcNet, p: ProcessId, v: &[u8]) {
        let step = net
            .process_mut(p)
            .propose(Bytes::copy_from_slice(v))
            .unwrap();
        net.absorb(p, step);
    }

    fn propose_byzantine(net: &mut MvcNet, p: ProcessId) {
        let step = net.process_mut(p).propose_byzantine_bottom().unwrap();
        net.absorb(p, step);
    }

    fn decision(net: &MvcNet, p: ProcessId) -> Option<MvcValue> {
        net.output(p).cloned()
    }

    #[test]
    fn vect_payload_codec_roundtrip() {
        let p = VectPayload {
            value: Some(Bytes::from_static(b"v")),
            justification: vec![
                Some(Bytes::from_static(b"v")),
                None,
                Some(Bytes::from_static(b"w")),
            ],
        };
        assert_eq!(VectPayload::from_bytes(&p.to_bytes()).unwrap(), p);
        let bottom = VectPayload {
            value: None,
            justification: vec![],
        };
        assert_eq!(VectPayload::from_bytes(&bottom.to_bytes()).unwrap(), bottom);
    }

    #[test]
    fn message_codec_roundtrip() {
        let msgs = [
            MvcMessage::Init {
                origin: 2,
                inner: RbMessage::Init(Bytes::from_static(b"x")),
            },
            MvcMessage::Vect {
                origin: 0,
                inner: VectBody::Reliable(RbMessage::Echo(Bytes::from_static(b"y"))),
            },
            MvcMessage::Bin(BinMessage::Paper(BcMessage {
                round: 1,
                step: 1,
                origin: 3,
                inner: RbMessage::Init(Bytes::from_static(&[1])),
            })),
            MvcMessage::Bin(BinMessage::Lean(crate::bc::lean::LeanMessage {
                kind: crate::bc::lean::LeanKind::Aux,
                round: 2,
                value: true,
            })),
        ];
        for m in msgs {
            assert_eq!(MvcMessage::from_bytes(&m.to_bytes()).unwrap(), m);
        }
    }

    #[test]
    fn identical_proposals_decide_that_value() {
        for seed in [1, 2, 3] {
            let mut net = mvc_net(4, seed, MvcConfig::default());
            for p in 0..4 {
                propose(&mut net, p, b"agreed");
            }
            net.run();
            for p in 0..4 {
                assert_eq!(
                    decision(&net, p),
                    Some(Some(Bytes::from_static(b"agreed"))),
                    "seed {seed} process {p}"
                );
                assert_eq!(net.process(p).bc_rounds(), Some(1), "one-round BC expected");
            }
        }
    }

    #[test]
    fn identical_proposals_with_reliable_vect_transport() {
        let mut net = mvc_net(
            4,
            9,
            MvcConfig {
                vect_transport: VectTransport::Reliable,
                ..MvcConfig::default()
            },
        );
        for p in 0..4 {
            propose(&mut net, p, b"agreed");
        }
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(Some(Bytes::from_static(b"agreed"))));
        }
    }

    #[test]
    fn the_lean_profile_decides_alike() {
        let lean = MvcConfig {
            profile: Profile::Lean,
            ..MvcConfig::default()
        };
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = mvc_net(4, 60 + seed, lean);
            net.set_schedule(schedule);
            for p in 0..3 {
                propose(&mut net, p, b"good");
            }
            propose_byzantine(&mut net, 3);
            net.run();
            for p in 0..3 {
                let good = Some(Some(Bytes::from_static(b"good")));
                assert_eq!(decision(&net, p), good, "seed {seed} {schedule} {p}");
            }
        }
        let mut net = mvc_net(4, 5, lean);
        for (p, v) in [b"a", b"b", b"c", b"d"].iter().enumerate() {
            propose(&mut net, p, *v);
        }
        net.run();
        assert!((0..4).all(|p| decision(&net, p) == Some(None)));
    }

    #[test]
    fn divergent_proposals_decide_bottom_or_common() {
        // With four different proposals no value reaches n-2f = 2 INIT
        // occurrences, so every correct process echoes ⊥, proposes 0, and
        // the decision is ⊥.
        let mut net = mvc_net(4, 5, MvcConfig::default());
        propose(&mut net, 0, b"a");
        propose(&mut net, 1, b"b");
        propose(&mut net, 2, b"c");
        propose(&mut net, 3, b"d");
        net.run();
        for p in 0..4 {
            assert_eq!(decision(&net, p), Some(None), "process {p}");
            assert_eq!(net.process(p).ctx.metrics.mvc_decided_bottom.get(), 1);
        }
    }

    #[test]
    fn agreement_under_mixed_proposals() {
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = mvc_net(4, 40 + seed, MvcConfig::default());
            net.set_schedule(schedule);
            propose(&mut net, 0, b"x");
            propose(&mut net, 1, b"x");
            propose(&mut net, 2, b"y");
            propose(&mut net, 3, b"x");
            net.run();
            let d0 = decision(&net, 0).expect("decided");
            for p in 1..4 {
                assert_eq!(
                    decision(&net, p),
                    Some(d0.clone()),
                    "seed {seed} {schedule}"
                );
            }
            // Validity: the decision is a proposed value or ⊥, never "y"
            // alone... it must be x or ⊥ (y cannot gather n-2f support
            // from correct processes... actually y could not reach 2).
            if let Some(v) = d0 {
                assert_eq!(v, Bytes::from_static(b"x"));
            }
        }
    }

    #[test]
    fn crash_fault_terminates() {
        let mut net = mvc_net(4, 77, MvcConfig::default());
        net.crash(3);
        propose(&mut net, 0, b"v");
        propose(&mut net, 1, b"v");
        propose(&mut net, 2, b"v");
        net.run();
        for p in 0..3 {
            assert_eq!(decision(&net, p), Some(Some(Bytes::from_static(b"v"))));
        }
    }

    #[test]
    fn byzantine_bottom_cannot_force_default_decision() {
        // The paper's §4.2 Byzantine faultload: the attacker proposes ⊥ in
        // INIT and VECT and 0 at the BC layer; correct processes all
        // propose the same value and still decide it.
        for (seed, schedule) in Schedule::sweep(0..5) {
            let mut net = mvc_net(4, 500 + seed, MvcConfig::default());
            net.set_schedule(schedule);
            propose(&mut net, 0, b"good");
            propose(&mut net, 1, b"good");
            propose(&mut net, 2, b"good");
            propose_byzantine(&mut net, 3);
            net.run();
            for p in 0..3 {
                assert_eq!(
                    decision(&net, p),
                    Some(Some(Bytes::from_static(b"good"))),
                    "seed {seed} {schedule} process {p}"
                );
            }
        }
    }

    #[test]
    fn double_propose_rejected() {
        let mut mvc = MultiValuedConsensus::new(ctx(4, 0, 0), coins(1), MvcConfig::default());
        let _ = mvc.propose(Bytes::from_static(b"v")).unwrap();
        assert_eq!(
            mvc.propose(Bytes::from_static(b"w")).unwrap_err(),
            ProtocolError::AlreadyStarted
        );
    }

    #[test]
    fn larger_group_identical_proposals() {
        let mut net = mvc_net(7, 3, MvcConfig::default());
        for p in 0..7 {
            propose(&mut net, p, b"seven");
        }
        net.run();
        for p in 0..7 {
            assert_eq!(decision(&net, p), Some(Some(Bytes::from_static(b"seven"))));
        }
    }
}
