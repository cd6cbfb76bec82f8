//! The built-in Byzantine strategy library.
//!
//! Each strategy targets a specific validation rule of the paper (see
//! DESIGN.md for the full mapping). All are deterministic functions of
//! their construction seed and the sequence of `rewrite` calls, so any
//! run is replayable bit-for-bit from `(strategy, schedule, seed)`.

use super::{
    innermost_rb, is_eb_mat, is_rb_ready, seeded_rng, with_innermost_payload, FrameMutator,
    PayloadKind, ProtocolMsg, SendCtx, Strategy,
};
use crate::ab::AbMessage;
use crate::bc::lean::{LeanKind, LeanMessage};
use crate::bc::{decode_val, encode_val, BcMessage, BinMessage};
use crate::codec::WireMessage;
use crate::mvc::{MvcMessage, MvcValue, VectPayload};
use crate::rb::RbMessage;
use crate::stack::InstanceKey;
use crate::vc::VcMessage;
use bytes::Bytes;
use ritas_crypto::{Digest, Sha256, XorShift64};

/// Rewrites `bytes` into a *different but structurally valid* payload of
/// the same kind, salted by `salt` (so distinct salts yield distinct
/// lies). This is the semantic mutation primitive under equivocation:
/// receivers can only reject the result through the paper's validation
/// rules, never through decode errors.
fn mutate_payload(kind: PayloadKind, bytes: &mut Bytes, salt: u8) {
    match kind {
        PayloadKind::Raw | PayloadKind::Opaque => {
            let mut v: Vec<u8> = bytes.to_vec();
            if v.is_empty() {
                v.push(salt);
            } else {
                for b in &mut v {
                    *b ^= salt | 1;
                }
            }
            *bytes = Bytes::from(v);
        }
        PayloadKind::BcVal => {
            // One-byte encoded step value: flip 0 ↔ 1 and turn ⊥ into 0,
            // keeping the byte in the decoder's accepted range.
            let flipped = match bytes.first().map(|b| decode_val(*b)) {
                Some(Ok(Some(v))) => encode_val(Some(!v)),
                _ => encode_val(Some(false)),
            };
            *bytes = Bytes::from(vec![flipped]);
        }
        PayloadKind::MvcValue => {
            let mut w = crate::codec::Writer::new();
            crate::mvc::encode_value(&mut w, &Some(Bytes::from(vec![0xE0, salt])));
            *bytes = w.freeze();
        }
        PayloadKind::VectPayload => {
            // Keep the justification shape but lie about the value; if the
            // original does not decode, fabricate one from scratch.
            let mut p = VectPayload::from_bytes(bytes).unwrap_or_else(|_| VectPayload {
                value: None,
                justification: Vec::new(),
            });
            let lie: MvcValue = Some(Bytes::from(vec![0xE1, salt]));
            for j in &mut p.justification {
                *j = lie.clone();
            }
            p.value = lie;
            *bytes = p.to_bytes();
        }
    }
}

/// Equivocation (targets: RB one-value-per-sender, EB vector agreement,
/// BC step tallies, MVC `VECT` validation): the original payload goes to
/// the low half of the group and a mutated-but-well-formed variant to the
/// high half, for *every* broadcast payload along the chain.
#[derive(Debug)]
pub struct Equivocate {
    _private: (),
}

impl Equivocate {
    /// Creates the strategy (stateless; equivocation is positional).
    pub fn new() -> Self {
        Equivocate { _private: () }
    }
}

impl Default for Equivocate {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for Equivocate {
    fn name(&self) -> &'static str {
        "equivocate"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        if ctx.to >= ctx.n / 2 {
            // Salt by destination so the high half does not even agree
            // among itself — the strongest split.
            let salt = 0x10 | (ctx.to as u8 & 0x0F);
            with_innermost_payload(&mut msg, &mut |kind, bytes| {
                mutate_payload(kind, bytes, salt);
            });
        }
        vec![msg.frame(key)]
    }
}

/// Selective silence (targets: RB/EB liveness margins and the BC
/// round-closing threshold): withholds the delivery-driving legs — RB
/// `READY`, EB `MAT`, and the binary consensus frames that close a round
/// (Bracha's step 3, the lean `AUX`) — from a seeded subset of peers,
/// starving chosen quorums without ever sending an invalid byte.
#[derive(Debug)]
pub struct SelectiveSilence {
    muted_mask: u64,
}

impl SelectiveSilence {
    /// Creates the strategy; `seed` picks which peers are starved.
    pub fn new(seed: u64) -> Self {
        let mut rng = seeded_rng(seed ^ 0x51EC);
        // Mute roughly half the group, but never everyone (an entirely
        // mute process is just a crash, which the fault matrix covers).
        let mut muted_mask = rng.next_u64();
        if muted_mask.count_ones() > 32 {
            muted_mask = !muted_mask;
        }
        SelectiveSilence { muted_mask }
    }

    fn muted(&self, to: crate::ProcessId) -> bool {
        self.muted_mask >> (to % 64) & 1 == 1
    }
}

impl Strategy for SelectiveSilence {
    fn name(&self) -> &'static str {
        "silence"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        let closing = match &msg {
            ProtocolMsg::Bc(m) | ProtocolMsg::Mvc(MvcMessage::Bin(m)) => match m {
                BinMessage::Paper(bc) => bc.step == 3,
                BinMessage::Lean(lean) => lean.kind == LeanKind::Aux,
            },
            ProtocolMsg::Ab(AbMessage::Slot { inner, .. }) => inner.kind == LeanKind::Aux,
            _ => false,
        };
        let delivery_leg = closing || is_rb_ready(&mut msg) || is_eb_mat(&mut msg);
        if delivery_leg && self.muted(ctx.to) {
            return Vec::new();
        }
        vec![msg.frame(key)]
    }
}

/// Biased coin voting (targets: the BC validation rules `step2_valid` /
/// `step3_valid` / `next_round_valid`, the lean BV-broadcast thresholds
/// and coin unpredictability, §4.2): every binary consensus value the
/// process transmits — its own and the echoes/readies it relays for
/// others; every lean `EST`, `AUX` and `TERM` — is forced to 0, the
/// paper's "always propose 0" attacker made protocol-aware.
#[derive(Debug)]
pub struct BiasedCoin {
    _private: (),
}

impl BiasedCoin {
    /// Creates the strategy.
    pub fn new() -> Self {
        BiasedCoin { _private: () }
    }
}

impl Default for BiasedCoin {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for BiasedCoin {
    fn name(&self) -> &'static str {
        "biased-coin"
    }

    fn rewrite(&mut self, _ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        // Lean values travel bare, not as a broadcast payload.
        if let Some(BinRef::Lean(m)) = bin_of(&mut msg) {
            m.value = false;
        }
        with_innermost_payload(&mut msg, &mut |kind, bytes| {
            if kind == PayloadKind::BcVal {
                *bytes = Bytes::from(vec![encode_val(Some(false))]);
            }
        });
        vec![msg.frame(key)]
    }
}

/// Conflicting MVC vectors (targets: the `VECT` justification check —
/// a value is only acceptable if the claimed `INIT` vector both matches
/// the receiver's own deliveries in `n−2f` places and actually justifies
/// the value): sends each peer a *different* fabricated value backed by a
/// fully populated, internally consistent justification vector, and
/// splits its `INIT` the same way so every layer of the conflicting-views
/// attack is exercised (the `INIT` leg rides reliable broadcast, where
/// the echo exchange exposes the split to every correct process).
#[derive(Debug)]
pub struct ConflictingVectors {
    _private: (),
}

impl ConflictingVectors {
    /// Creates the strategy.
    pub fn new() -> Self {
        ConflictingVectors { _private: () }
    }
}

impl Default for ConflictingVectors {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for ConflictingVectors {
    fn name(&self) -> &'static str {
        "conflicting-vectors"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        let fake: MvcValue = Some(Bytes::from(vec![0xCF, ctx.to as u8]));
        with_innermost_payload(&mut msg, &mut |kind, bytes| match kind {
            PayloadKind::VectPayload => {
                let lie = VectPayload {
                    value: fake.clone(),
                    justification: vec![fake.clone(); ctx.n],
                };
                *bytes = lie.to_bytes();
            }
            PayloadKind::MvcValue => {
                let mut w = crate::codec::Writer::new();
                crate::mvc::encode_value(&mut w, &fake);
                *bytes = w.freeze();
            }
            _ => {}
        });
        vec![msg.frame(key)]
    }
}

/// Stale-instance replay (targets: per-instance routing, RB/EB duplicate
/// suppression, and the BC round-window check `MAX_ROUND_AHEAD`): records
/// every frame it sends and periodically re-injects an old one alongside
/// the current message, resurrecting finished instances and past rounds.
#[derive(Debug)]
pub struct StaleReplay {
    rng: XorShift64,
    history: Vec<Bytes>,
    calls: u64,
}

/// Replay buffer depth; old enough to reach back across instances.
const REPLAY_HISTORY: usize = 256;

impl StaleReplay {
    /// Creates the strategy; `seed` drives which stale frame returns.
    pub fn new(seed: u64) -> Self {
        StaleReplay {
            rng: seeded_rng(seed ^ 0x57A1E),
            history: Vec::new(),
            calls: 0,
        }
    }
}

impl Strategy for StaleReplay {
    fn name(&self) -> &'static str {
        "stale-replay"
    }

    fn rewrite(&mut self, _ctx: &SendCtx, key: InstanceKey, msg: ProtocolMsg) -> Vec<Bytes> {
        let frame = msg.frame(key);
        self.calls += 1;
        let mut out = vec![frame.clone()];
        // Every fourth send, resurrect a seeded pick from the history.
        if self.calls.is_multiple_of(4) && !self.history.is_empty() {
            let idx = (self.rng.next_u64() as usize) % self.history.len();
            out.push(self.history[idx].clone());
        }
        if self.history.len() == REPLAY_HISTORY {
            let evict = (self.rng.next_u64() as usize) % REPLAY_HISTORY;
            self.history[evict] = frame;
        } else {
            self.history.push(frame);
        }
        out
    }
}

/// Seeded random mutation (targets: decoder hardening end-to-end): the
/// protocol-level twin of the cluster's wire-level `corrupt()` — drops,
/// duplicates, bit-flips, truncates or replaces frames at random, but
/// *after* per-destination expansion, so even `Target::All` sends differ
/// per peer.
#[derive(Debug)]
pub struct RandomMutation {
    mutator: FrameMutator,
}

impl RandomMutation {
    /// Creates the strategy with its mutation seed.
    pub fn new(seed: u64) -> Self {
        RandomMutation {
            mutator: FrameMutator::new(seed),
        }
    }
}

impl Strategy for RandomMutation {
    fn name(&self) -> &'static str {
        "random-mutation"
    }

    fn rewrite(&mut self, _ctx: &SendCtx, key: InstanceKey, msg: ProtocolMsg) -> Vec<Bytes> {
        self.mutator.mutate(msg.frame(key))
    }
}

/// A binary consensus message of either profile, borrowed where it sits.
enum BinRef<'a> {
    Paper(&'a mut BcMessage),
    Lean(&'a mut LeanMessage),
}

/// The binary consensus message `msg` is or carries, wherever it sits in
/// the chain (standalone, under MVC, under VC or AB agreement rounds, in
/// an AB ordering slot).
fn bin_of(msg: &mut ProtocolMsg) -> Option<BinRef<'_>> {
    match msg {
        ProtocolMsg::Bc(m)
        | ProtocolMsg::Mvc(MvcMessage::Bin(m))
        | ProtocolMsg::Vc(VcMessage::Round {
            inner: MvcMessage::Bin(m),
            ..
        })
        | ProtocolMsg::Ab(AbMessage::Agree {
            inner: MvcMessage::Bin(m),
            ..
        }) => Some(match m {
            BinMessage::Paper(bc) => BinRef::Paper(bc),
            BinMessage::Lean(lean) => BinRef::Lean(lean),
        }),
        ProtocolMsg::Ab(AbMessage::Slot { inner, .. }) => Some(BinRef::Lean(inner)),
        _ => None,
    }
}

/// Round-ahead (targets: the post-decision wake rule of binary consensus,
/// DESIGN.md §4b — a decided process speaks after its decision only once
/// another member names a later round: Bracha's runs the next round, the
/// lean one sends its `TERM`): the seed picks one of two ways of abusing
/// that rule, both with well-formed frames only.
///
/// * **Partial wake:** behind every frame that closes round `r` at a
///   process of the low half of the group (a step-3 `READY`, a lean
///   `AUX`) travels a round-`r + 1` opening of the attacker's own (a
///   step-1 `INIT`, an `EST`), so some deciders are asked — before or
///   just after they decide — for a round nobody needs, while the others
///   hear of it only from those.
/// * **Never helps:** the attacker takes part in round 1 and withholds
///   every frame of a later round (and its `TERM`), so a correct process
///   that needs the round after a decision has to wake the deciders, and
///   finish, without it.
#[derive(Debug)]
pub struct RoundAhead {
    never_helps: bool,
}

impl RoundAhead {
    /// Creates the strategy; `seed` picks the mode.
    pub fn new(seed: u64) -> Self {
        RoundAhead {
            never_helps: seed & 1 == 1,
        }
    }
}

impl Strategy for RoundAhead {
    fn name(&self) -> &'static str {
        "round-ahead"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        let honest = msg.frame(key);
        let Some(bin) = bin_of(&mut msg) else {
            return vec![honest];
        };
        if self.never_helps {
            let later = match bin {
                BinRef::Paper(bc) => bc.round > 1,
                BinRef::Lean(m) => m.round > 1 || m.kind == LeanKind::Term,
            };
            return if later { Vec::new() } else { vec![honest] };
        }
        // The last leg of a round: the frames whose arrival lets the
        // receiver finish it, so the ask lands around its decision.
        let closes_round = match &bin {
            BinRef::Paper(bc) => {
                bc.step == 3 && !matches!(bc.inner, RbMessage::Init(_) | RbMessage::Echo(_))
            }
            BinRef::Lean(m) => m.kind == LeanKind::Aux,
        };
        if !closes_round || ctx.to >= ctx.n / 2 {
            return vec![honest];
        }
        match bin {
            BinRef::Paper(bc) => {
                bc.round += 1;
                bc.step = 1;
                bc.origin = ctx.me;
                bc.inner = RbMessage::Init(Bytes::from_static(&[0]));
            }
            BinRef::Lean(m) => {
                *m = LeanMessage {
                    kind: LeanKind::Est,
                    round: m.round + 1,
                    value: false,
                };
            }
        }
        vec![honest, msg.frame(key)]
    }
}

/// BV-split (targets: the rule the lean binary consensus rests on —
/// relay an `EST` after `f + 1`, BV-deliver after `2f + 1`, count an
/// `AUX` only for a BV-delivered value — and the `TERM` stand-in): every
/// lean `EST` says 0 to the low half of the group and 1 to the high half,
/// every `AUX` carries the value the attacker did not BV-deliver first
/// (typically never BV-delivered at all), and its `TERM` the value it did
/// not decide. Bracha's frames, and everything else, travel unchanged.
#[derive(Debug)]
pub struct BvSplit {
    _private: (),
}

impl BvSplit {
    /// Creates the strategy (stateless; the split is positional).
    pub fn new() -> Self {
        BvSplit { _private: () }
    }
}

impl Default for BvSplit {
    fn default() -> Self {
        Self::new()
    }
}

impl Strategy for BvSplit {
    fn name(&self) -> &'static str {
        "bv-split"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        if let Some(BinRef::Lean(m)) = bin_of(&mut msg) {
            m.value = match m.kind {
                LeanKind::Est => ctx.to >= ctx.n / 2,
                LeanKind::Aux | LeanKind::Term => !m.value,
            };
        }
        vec![msg.frame(key)]
    }
}

/// `READY` forgery (targets: the `lean` reliable broadcast's delivery
/// rule — `2f + 1` `READY(h)` *and* an accepted payload that hashes to
/// `h` — its digest-slot equivocation check and the digest codec): each
/// destination hears one of three lies, the seed rotating who hears which.
///
/// * **Unbacked digest:** every digest `READY` names `h'`, the honest
///   digest with each bit flipped — a digest no correct process holds a
///   payload for.
/// * **Digest of another payload:** every `ECHO(m)` travels behind a
///   `READY` for the digest of a different well-formed `m'`. Sent first,
///   it takes the attacker's `READY` slot, and its honest `READY` later
///   is an equivocation.
/// * **Wrong length:** every digest `READY` arrives with a 31-byte body,
///   which must fail decoding.
///
/// Bracha's payload `READY`s travel unchanged; a `paper` stack fed the
/// injected digest `READY` reports it as malformed.
#[derive(Debug)]
pub struct ReadyForge {
    seed: u64,
}

impl ReadyForge {
    /// Creates the strategy; `seed` rotates which peer hears which lie.
    pub fn new(seed: u64) -> Self {
        ReadyForge { seed }
    }
}

impl Strategy for ReadyForge {
    fn name(&self) -> &'static str {
        "ready-forge"
    }

    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, mut msg: ProtocolMsg) -> Vec<Bytes> {
        let honest = msg.frame(key);
        let Some((kind, rb)) = innermost_rb(&mut msg) else {
            return vec![honest];
        };
        match ((ctx.to as u64).wrapping_add(self.seed) % 3, &mut *rb) {
            (0, RbMessage::ReadyDigest(h)) => {
                h.iter_mut().for_each(|b| *b = !*b);
                vec![msg.frame(key)]
            }
            (1, RbMessage::Echo(m)) => {
                let mut other = m.clone();
                mutate_payload(kind, &mut other, 0x3F);
                *rb = RbMessage::ReadyDigest(Sha256::digest(&other));
                vec![msg.frame(key), honest]
            }
            (2, RbMessage::ReadyDigest(_)) => {
                // The RB message ends every frame that carries one, so
                // the digest is the last 32 bytes behind its length.
                let mut short = honest.to_vec();
                let len_at = short.len() - 36;
                short[len_at..len_at + 4].copy_from_slice(&31u32.to_be_bytes());
                short.pop();
                vec![Bytes::from(short)]
            }
            _ => vec![honest],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::decode_frame;

    fn ctx(to: crate::ProcessId) -> SendCtx {
        SendCtx { me: 3, to, n: 4 }
    }

    fn rb_frame(
        stage: fn(Bytes) -> RbMessage,
        payload: &'static [u8],
    ) -> (InstanceKey, ProtocolMsg) {
        let key = InstanceKey::Rb { sender: 3, seq: 1 };
        (key, ProtocolMsg::Rb(stage(Bytes::from_static(payload))))
    }

    #[test]
    fn equivocate_splits_the_group() {
        let mut s = Equivocate::new();
        let (key, msg) = rb_frame(RbMessage::Init, b"truth");
        let low = s.rewrite(&ctx(0), key, msg.clone());
        let high = s.rewrite(&ctx(3), key, msg.clone());
        assert_eq!(low, vec![msg.frame(key)], "low half sees the truth");
        assert_ne!(high[0], low[0], "high half sees a lie");
        // The lie still decodes: semantic, not structural, corruption.
        assert!(decode_frame(&high[0]).is_some());
    }

    #[test]
    fn silence_withholds_ready_only_from_muted_peers() {
        let mut s = SelectiveSilence::new(7);
        let muted: Vec<bool> = (0..4).map(|p| s.muted(p)).collect();
        assert!(muted.iter().any(|m| *m), "seed 7 mutes someone");
        let (key, ready) = rb_frame(RbMessage::Ready, b"p");
        let (_, init) = rb_frame(RbMessage::Init, b"p");
        for (to, muted) in muted.iter().enumerate() {
            let out = s.rewrite(&ctx(to), key, ready.clone());
            assert_eq!(out.is_empty(), *muted, "peer {to}");
            // Non-delivery legs always pass.
            assert_eq!(s.rewrite(&ctx(to), key, init.clone()).len(), 1);
        }
    }

    #[test]
    fn biased_coin_forces_step_values_to_zero() {
        let mut s = BiasedCoin::new();
        let key = InstanceKey::Bc { tag: 9 };
        let msg = ProtocolMsg::Bc(BinMessage::Paper(BcMessage {
            round: 1,
            step: 1,
            origin: 3,
            inner: RbMessage::Init(Bytes::from(vec![encode_val(Some(true))])),
        }));
        let out = s.rewrite(&ctx(1), key, msg);
        match decode_frame(&out[0]).unwrap().1 {
            ProtocolMsg::Bc(BinMessage::Paper(m)) => {
                assert_eq!(m.inner.payload().unwrap()[..], [encode_val(Some(false))]);
            }
            other => panic!("unexpected {other:?}"),
        }
        for kind in [LeanKind::Est, LeanKind::Aux, LeanKind::Term] {
            let lean = |value| LeanMessage {
                kind,
                round: 2,
                value,
            };
            let msg = ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Lean(lean(true))));
            let out = s.rewrite(&ctx(1), key, msg);
            let zero = ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Lean(lean(false))));
            assert_eq!(out, [zero.frame(key)], "{kind:?}");
            // The same inside an atomic broadcast ordering slot.
            let key = InstanceKey::Ab { session: 0 };
            let slot = |value| {
                ProtocolMsg::Ab(AbMessage::Slot {
                    slot: 5,
                    inner: lean(value),
                })
            };
            let out = s.rewrite(&ctx(1), key, slot(true));
            assert_eq!(out, [slot(false).frame(key)], "{kind:?} in a slot");
        }
    }

    #[test]
    fn bv_split_halves_the_estimate_and_lies_in_aux_and_term() {
        let key = InstanceKey::Bc { tag: 4 };
        let lean = |kind, value| {
            ProtocolMsg::Bc(BinMessage::Lean(LeanMessage {
                kind,
                round: 3,
                value,
            }))
        };
        let mut s = BvSplit::new();
        for (kind, sent, to, heard) in [
            (LeanKind::Est, true, 0, false),
            (LeanKind::Est, false, 3, true),
            (LeanKind::Aux, true, 1, false),
            (LeanKind::Term, false, 2, true),
        ] {
            let out = s.rewrite(&ctx(to), key, lean(kind, sent));
            assert_eq!(out, [lean(kind, heard).frame(key)], "{kind:?} to {to}");
        }
        let (key, rb) = rb_frame(RbMessage::Init, b"p");
        assert_eq!(s.rewrite(&ctx(3), key, rb.clone()), [rb.frame(key)]);
    }

    #[test]
    fn ready_forge_tells_each_peer_one_lie() {
        let key = InstanceKey::Ab { session: 1 };
        let ab = |inner| {
            ProtocolMsg::Ab(AbMessage::Msg {
                id: crate::ab::MsgId { sender: 0, rbid: 4 },
                inner,
            })
        };
        let h = Sha256::digest(b"m");
        let ready = ab(RbMessage::ReadyDigest(h));
        let echo = ab(RbMessage::Echo(Bytes::from_static(b"m")));
        let paper_ready = ab(RbMessage::Ready(Bytes::from_static(b"m")));
        let mut s = ReadyForge::new(0);
        // Peer 0: a digest nobody holds a payload for.
        let unbacked = ab(RbMessage::ReadyDigest(h.map(|b| !b)));
        assert_eq!(
            s.rewrite(&ctx(0), key, ready.clone()),
            [unbacked.frame(key)]
        );
        // Peer 1: the digest of another payload, ahead of the honest ECHO.
        let out = s.rewrite(&ctx(1), key, echo.clone());
        assert_eq!(out.len(), 2);
        assert_eq!(out[1], echo.frame(key));
        match decode_frame(&out[0]) {
            Some((_, ProtocolMsg::Ab(AbMessage::Msg { inner, .. }))) => {
                assert!(matches!(inner, RbMessage::ReadyDigest(d) if d != h));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Peer 2: a 31-byte digest, which no decoder accepts.
        let out = s.rewrite(&ctx(2), key, ready.clone());
        assert_eq!(out[0].len(), ready.frame(key).len() - 1);
        assert_eq!(decode_frame(&out[0]), None);
        // Everything else travels as it was, and the seed rotates the lies.
        for to in 0..3 {
            assert_eq!(
                s.rewrite(&ctx(to), key, paper_ready.clone()),
                [paper_ready.frame(key)]
            );
        }
        assert_eq!(s.rewrite(&ctx(0), key, echo.clone()), [echo.frame(key)]);
        assert_eq!(
            ReadyForge::new(1).rewrite(&ctx(0), key, echo.clone()).len(),
            2
        );
    }

    #[test]
    fn conflicting_vectors_forges_per_peer_justifications() {
        use crate::mvc::{MvcMessage, VectBody};
        let honest = VectPayload {
            value: Some(Bytes::from_static(b"v")),
            justification: vec![Some(Bytes::from_static(b"v")); 4],
        };
        let key = InstanceKey::Mvc { tag: 2 };
        let msg = ProtocolMsg::Mvc(MvcMessage::Vect {
            origin: 3,
            inner: VectBody::Reliable(RbMessage::Init(honest.to_bytes())),
        });
        let mut s = ConflictingVectors::new();
        let a = s.rewrite(&ctx(0), key, msg.clone());
        let b = s.rewrite(&ctx(1), key, msg);
        assert_ne!(a[0], b[0], "each peer hears a different vector");
        for out in [a, b] {
            let (_, m) = decode_frame(&out[0]).unwrap();
            match m {
                ProtocolMsg::Mvc(MvcMessage::Vect {
                    inner: VectBody::Reliable(rb),
                    ..
                }) => {
                    let p = VectPayload::from_bytes(rb.payload().unwrap()).unwrap();
                    assert_eq!(p.justification.len(), 4);
                    assert!(p.value.is_some());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    #[test]
    fn stale_replay_reinjects_history() {
        let mut s = StaleReplay::new(11);
        let (key, msg) = rb_frame(RbMessage::Init, b"old");
        let mut injected = 0;
        for _ in 0..16 {
            let out = s.rewrite(&ctx(0), key, msg.clone());
            injected += out.len().saturating_sub(1);
        }
        assert!(injected > 0, "replays old frames");
    }

    #[test]
    fn round_ahead_asks_half_the_group_or_goes_silent() {
        let key = InstanceKey::Mvc { tag: 2 };
        let frame_of = |round| {
            ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Paper(BcMessage {
                round,
                step: 3,
                origin: 1,
                inner: RbMessage::Ready(Bytes::from_static(&[1])),
            })))
        };
        let mut wake = RoundAhead::new(0);
        assert_eq!(wake.rewrite(&ctx(2), key, frame_of(1)).len(), 1);
        let out = wake.rewrite(&ctx(1), key, frame_of(1));
        assert_eq!(out[0], frame_of(1).frame(key), "the honest frame travels");
        let ahead = ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Paper(BcMessage {
            round: 2,
            step: 1,
            origin: 3,
            inner: RbMessage::Init(Bytes::from_static(&[0])),
        })));
        assert_eq!(decode_frame(&out[1]), Some((key, ahead)));
        // The lean arm: an AUX to the low half carries an EST of the next
        // round behind it; the never-helping mode drops rounds past 1 and
        // every TERM.
        let lean = |kind, round| {
            ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Lean(LeanMessage {
                kind,
                round,
                value: true,
            })))
        };
        let out = wake.rewrite(&ctx(0), key, lean(LeanKind::Aux, 1));
        let ask = ProtocolMsg::Mvc(MvcMessage::Bin(BinMessage::Lean(LeanMessage {
            kind: LeanKind::Est,
            round: 2,
            value: false,
        })));
        assert_eq!(out, [lean(LeanKind::Aux, 1).frame(key), ask.frame(key)]);
        assert!(RoundAhead::new(1)
            .rewrite(&ctx(0), key, lean(LeanKind::Term, 1))
            .is_empty());

        let mut mute = RoundAhead::new(1);
        assert_eq!(mute.rewrite(&ctx(1), key, frame_of(1)).len(), 1);
        assert!(mute.rewrite(&ctx(1), key, frame_of(2)).is_empty());
        // Traffic that carries no binary consensus passes in both modes.
        let (key, rb) = rb_frame(RbMessage::Init, b"p");
        for s in [&mut wake, &mut mute] {
            assert_eq!(s.rewrite(&ctx(0), key, rb.clone()), [rb.frame(key)]);
        }
    }

    #[test]
    fn random_mutation_is_deterministic_per_seed() {
        let (key, msg) = rb_frame(RbMessage::Echo, b"payload");
        let run = |seed| {
            let mut s = RandomMutation::new(seed);
            (0..32)
                .flat_map(|_| s.rewrite(&ctx(1), key, msg.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(42), run(42), "same seed, same frames");
        assert_ne!(run(42), run(43), "different seed, different frames");
    }
}
