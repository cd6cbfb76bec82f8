//! Protocol-aware Byzantine adversary framework.
//!
//! The paper's central claim is safety under *any* behaviour from up to
//! `f = ⌊(n−1)/3⌋` corrupt processes. The wire-level garbage injector
//! ([`RandomMutation`], installed like every strategy with
//! [`crate::testing::Cluster::set_strategy`]) only exercises frames that
//! honest validation trivially rejects; the others attack *inside* the
//! protocol encodings — equivocation, selective silence, biased coin
//! voting, conflicting `VECT` vectors, stale-instance replay — i.e. the
//! attacks the paper's validation rules (§2.4–§2.6) are designed to
//! neutralize.
//!
//! A [`Strategy`] intercepts every outbound frame of a corrupt process at
//! the [`crate::stack::Stack`] boundary, once per destination (so a single
//! broadcast can say different things to different peers — the essence of
//! equivocation). Frames are presented *decoded*, as a typed
//! [`ProtocolMsg`] mirroring the control-block chain, so strategies can
//! lie at exactly the layer they target and re-encode structurally valid
//! messages that only semantic validation can reject.
//!
//! [`rewrite_frame`] applies a strategy for both drivers: the test
//! cluster's wire, and the worker of a node built by
//! [`crate::testing::byzantine_cluster_with_hub`], state transfer included.
//!
//! The [`explorer`] module sweeps strategies across schedules and seeds,
//! checking the paper's safety predicates ([`crate::invariants`]) after
//! every delivery, and renders deterministic replay commands for any
//! violation it finds.

pub mod explorer;
mod strategies;

pub use strategies::{
    BiasedCoin, BvSplit, ConflictingVectors, Equivocate, RandomMutation, ReadyForge, RoundAhead,
    SelectiveSilence, StaleReplay,
};

use crate::ab::AbMessage;
use crate::bc::BinMessage;
use crate::codec::{Reader, WireMessage, Writer};
use crate::eb::EbMessage;
use crate::mvc::{MvcMessage, VectBody};
use crate::rb::RbMessage;
use crate::recovery::XferMessage;
use crate::stack::InstanceKey;
use crate::vc::VcMessage;
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::XorShift64;

/// A decoded protocol message, typed by the instance it belongs to — the
/// adversary's view of one outbound frame along the control-block chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProtocolMsg {
    /// Reliable broadcast traffic.
    Rb(RbMessage),
    /// Echo broadcast traffic.
    Eb(EbMessage),
    /// Binary consensus traffic.
    Bc(BinMessage),
    /// Multi-valued consensus traffic.
    Mvc(MvcMessage),
    /// Vector consensus traffic.
    Vc(VcMessage),
    /// Atomic broadcast traffic.
    Ab(AbMessage),
    /// State-transfer traffic.
    Xfer(XferMessage),
}

impl ProtocolMsg {
    fn encode_inner(&self, w: &mut Writer) {
        match self {
            ProtocolMsg::Rb(m) => m.encode(w),
            ProtocolMsg::Eb(m) => m.encode(w),
            ProtocolMsg::Bc(m) => m.encode(w),
            ProtocolMsg::Mvc(m) => m.encode(w),
            ProtocolMsg::Vc(m) => m.encode(w),
            ProtocolMsg::Ab(m) => m.encode(w),
            ProtocolMsg::Xfer(m) => m.encode(w),
        }
    }

    /// Re-encodes this message into a full wire frame for `key`.
    pub fn frame(&self, key: InstanceKey) -> Bytes {
        let mut w = Writer::new();
        key.encode(&mut w);
        self.encode_inner(&mut w);
        w.freeze()
    }
}

/// Decodes a stack wire frame into its instance key and typed message.
/// Returns `None` on any malformed input (an honest stack never produces
/// one; adversarial re-injections may).
pub fn decode_frame(frame: &[u8]) -> Option<(InstanceKey, ProtocolMsg)> {
    let mut r = Reader::new(frame);
    let key = InstanceKey::decode(&mut r).ok()?;
    let inner = r.raw(r.remaining(), "frame.body").ok()?;
    let msg = match key {
        InstanceKey::Rb { .. } => ProtocolMsg::Rb(RbMessage::from_bytes(inner).ok()?),
        InstanceKey::Eb { .. } => ProtocolMsg::Eb(EbMessage::from_bytes(inner).ok()?),
        InstanceKey::Bc { .. } => ProtocolMsg::Bc(BinMessage::from_bytes(inner).ok()?),
        InstanceKey::Mvc { .. } => ProtocolMsg::Mvc(MvcMessage::from_bytes(inner).ok()?),
        InstanceKey::Vc { .. } => ProtocolMsg::Vc(VcMessage::from_bytes(inner).ok()?),
        InstanceKey::Ab { .. } => ProtocolMsg::Ab(AbMessage::from_bytes(inner).ok()?),
        InstanceKey::Xfer => ProtocolMsg::Xfer(XferMessage::from_bytes(inner).ok()?),
    };
    Some((key, msg))
}

/// Runs one outbound `frame` of corrupt process `me` (group of `n`)
/// through `strategy`, once per destination in `dests`, in order, and
/// returns the `(destination, frame)` pairs that travel instead. The
/// frame is decoded once; one that does not decode travels unchanged.
pub fn rewrite_frame(
    strategy: &mut dyn Strategy,
    me: ProcessId,
    n: usize,
    frame: &Bytes,
    dests: std::ops::Range<ProcessId>,
) -> Vec<(ProcessId, Bytes)> {
    let Some((key, msg)) = decode_frame(frame) else {
        return dests.map(|to| (to, frame.clone())).collect();
    };
    dests
        .flat_map(|to| {
            let frames = strategy.rewrite(&SendCtx { me, to, n }, key, msg.clone());
            frames.into_iter().map(move |frame| (to, frame))
        })
        .collect()
}

/// What the innermost reliable/echo-broadcast payload of a message
/// *means* — so strategies can mutate it while keeping the encoding
/// structurally valid (semantic lies, not garbage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PayloadKind {
    /// Opaque application bytes (RB/EB payloads, VC proposals, AB
    /// message payloads).
    Raw,
    /// An encoded [`crate::mvc::MvcValue`] (MVC `INIT` payloads).
    MvcValue,
    /// An encoded [`crate::mvc::VectPayload`] (MVC `VECT` payloads).
    VectPayload,
    /// A one-byte encoded binary consensus step value.
    BcVal,
    /// An internal encoding this framework does not re-interpret (AB
    /// agreement vectors).
    Opaque,
}

/// The multi-valued consensus message `msg` is or carries, wherever it
/// sits in the chain (standalone, a vector consensus round, an atomic
/// broadcast agreement).
fn innermost_mvc(msg: &mut ProtocolMsg) -> Option<&mut MvcMessage> {
    match msg {
        ProtocolMsg::Mvc(m)
        | ProtocolMsg::Vc(VcMessage::Round { inner: m, .. })
        | ProtocolMsg::Ab(AbMessage::Agree { inner: m, .. }) => Some(m),
        _ => None,
    }
}

/// The innermost reliable-broadcast message of `msg`, chasing the
/// control-block chain, with the kind of payload it carries. `None` for
/// messages with no RB component (EB legs, lean binary consensus).
pub fn innermost_rb(msg: &mut ProtocolMsg) -> Option<(PayloadKind, &mut RbMessage)> {
    fn of_bc(m: &mut BinMessage) -> Option<(PayloadKind, &mut RbMessage)> {
        match m {
            BinMessage::Paper(bc) => Some((PayloadKind::BcVal, &mut bc.inner)),
            BinMessage::Lean(_) => None,
        }
    }
    match msg {
        ProtocolMsg::Rb(m)
        | ProtocolMsg::Vc(VcMessage::Prop { inner: m, .. })
        | ProtocolMsg::Ab(AbMessage::Msg { inner: m, .. }) => Some((PayloadKind::Raw, m)),
        ProtocolMsg::Ab(AbMessage::Vect { inner, .. }) => Some((PayloadKind::Opaque, inner)),
        ProtocolMsg::Bc(m) => of_bc(m),
        _ => match innermost_mvc(msg)? {
            MvcMessage::Init { inner, .. } => Some((PayloadKind::MvcValue, inner)),
            MvcMessage::Vect {
                inner: VectBody::Reliable(rb),
                ..
            } => Some((PayloadKind::VectPayload, rb)),
            MvcMessage::Vect { .. } => None,
            MvcMessage::Bin(bc) => of_bc(bc),
        },
    }
}

/// Whether `msg` is (or carries) a `READY` of either form — the RB
/// delivery-driving leg, the silence strategy's first target.
pub fn is_rb_ready(msg: &mut ProtocolMsg) -> bool {
    matches!(
        innermost_rb(msg),
        Some((_, RbMessage::Ready(_) | RbMessage::ReadyDigest(_)))
    )
}

/// Whether `msg` is (or carries) an echo-broadcast `MAT` column — the EB
/// delivery-driving leg, the silence strategy's other target.
pub fn is_eb_mat(msg: &mut ProtocolMsg) -> bool {
    match msg {
        ProtocolMsg::Eb(m) => matches!(m, EbMessage::Mat(_)),
        _ => matches!(
            innermost_mvc(msg),
            Some(MvcMessage::Vect {
                inner: VectBody::Echo(EbMessage::Mat(_)),
                ..
            })
        ),
    }
}

/// Grants a mutator access to the innermost broadcast payload of `msg`,
/// with its [`PayloadKind`]. Returns `false` when the message has no
/// mutable payload (EB `VECT`/`MAT`, digest `READY`s, lean binary
/// consensus values).
pub fn with_innermost_payload(
    msg: &mut ProtocolMsg,
    f: &mut dyn FnMut(PayloadKind, &mut Bytes),
) -> bool {
    if let Some((kind, rb)) = innermost_rb(msg) {
        return match rb {
            RbMessage::Init(p) | RbMessage::Echo(p) | RbMessage::Ready(p) => {
                f(kind, p);
                true
            }
            RbMessage::ReadyDigest(_) => false,
        };
    }
    let eb_init = match msg {
        ProtocolMsg::Eb(EbMessage::Init(p)) => Some((PayloadKind::Raw, p)),
        _ => match innermost_mvc(msg) {
            Some(MvcMessage::Vect {
                inner: VectBody::Echo(EbMessage::Init(p)),
                ..
            }) => Some((PayloadKind::VectPayload, p)),
            _ => None,
        },
    };
    match eb_init {
        Some((kind, p)) => {
            f(kind, p);
            true
        }
        None => false,
    }
}

/// Context handed to a strategy for one (message, destination) pair.
#[derive(Debug, Clone, Copy)]
pub struct SendCtx {
    /// The corrupt process the strategy speaks for.
    pub me: ProcessId,
    /// The peer this copy of the message is headed to.
    pub to: ProcessId,
    /// Group size.
    pub n: usize,
}

/// A Byzantine strategy: rewrites each outbound protocol message of a
/// corrupt process, per destination.
///
/// The framework calls [`Strategy::rewrite`] once for every (message,
/// destination) pair the honest stack wanted to send — a broadcast to `n`
/// peers yields `n` calls with the same `msg` — and transmits exactly the
/// frames returned: an empty vector withholds the message, multiple
/// entries inject extras. Strategies must be deterministic functions of
/// their construction seed and call sequence (the conformance harness
/// replays runs bit-for-bit).
pub trait Strategy: std::fmt::Debug + Send {
    /// Stable strategy name (used in replay commands).
    fn name(&self) -> &'static str;

    /// Rewrites one outbound message for one destination; returns the
    /// wire frames that actually travel.
    fn rewrite(&mut self, ctx: &SendCtx, key: InstanceKey, msg: ProtocolMsg) -> Vec<Bytes>;
}

/// The built-in strategy library, as a parseable identifier — the
/// `strategy` axis of the conformance matrix and of replay commands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StrategyKind {
    /// Different payloads to different halves of the group.
    Equivocate,
    /// Withhold `READY`/`MAT` (delivery-driving) legs from chosen peers.
    Silence,
    /// Force every binary consensus step value to 0.
    BiasedCoin,
    /// Per-peer conflicting MVC `VECT` values with fabricated
    /// justification vectors.
    ConflictingVectors,
    /// Replay frames from stale instances and finished rounds.
    StaleReplay,
    /// Seeded random frame mutation (drop/duplicate/bit-flip/garbage).
    RandomMutation,
    /// Ask half the group for the round after a binary consensus
    /// decision, or never take part in it (the seed picks).
    RoundAhead,
    /// Split the lean binary consensus's BV-broadcast between the two
    /// halves of the group, `AUX` a value never BV-delivered, `TERM` the
    /// value not decided.
    BvSplit,
    /// Forge the `lean` reliable broadcast's digest `READY`s: a digest
    /// nobody holds a payload for, the digest of a payload other than
    /// the one echoed, a body of the wrong length.
    ReadyForge,
}

impl StrategyKind {
    /// Every built-in strategy, in matrix order.
    pub const ALL: [StrategyKind; 9] = [
        StrategyKind::Equivocate,
        StrategyKind::Silence,
        StrategyKind::BiasedCoin,
        StrategyKind::ConflictingVectors,
        StrategyKind::StaleReplay,
        StrategyKind::RandomMutation,
        StrategyKind::RoundAhead,
        StrategyKind::BvSplit,
        StrategyKind::ReadyForge,
    ];

    /// Builds the strategy, seeded for deterministic replay.
    pub fn build(self, seed: u64) -> Box<dyn Strategy> {
        match self {
            StrategyKind::Equivocate => Box::new(Equivocate::new()),
            StrategyKind::Silence => Box::new(SelectiveSilence::new(seed)),
            StrategyKind::BiasedCoin => Box::new(BiasedCoin::new()),
            StrategyKind::ConflictingVectors => Box::new(ConflictingVectors::new()),
            StrategyKind::StaleReplay => Box::new(StaleReplay::new(seed)),
            StrategyKind::RandomMutation => Box::new(RandomMutation::new(seed)),
            StrategyKind::RoundAhead => Box::new(RoundAhead::new(seed)),
            StrategyKind::BvSplit => Box::new(BvSplit::new()),
            StrategyKind::ReadyForge => Box::new(ReadyForge::new(seed)),
        }
    }
}

impl core::fmt::Display for StrategyKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            StrategyKind::Equivocate => "equivocate",
            StrategyKind::Silence => "silence",
            StrategyKind::BiasedCoin => "biased-coin",
            StrategyKind::ConflictingVectors => "conflicting-vectors",
            StrategyKind::StaleReplay => "stale-replay",
            StrategyKind::RandomMutation => "random-mutation",
            StrategyKind::RoundAhead => "round-ahead",
            StrategyKind::BvSplit => "bv-split",
            StrategyKind::ReadyForge => "ready-forge",
        };
        f.write_str(s)
    }
}

impl std::str::FromStr for StrategyKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "equivocate" => Ok(StrategyKind::Equivocate),
            "silence" => Ok(StrategyKind::Silence),
            "biased-coin" => Ok(StrategyKind::BiasedCoin),
            "conflicting-vectors" => Ok(StrategyKind::ConflictingVectors),
            "stale-replay" => Ok(StrategyKind::StaleReplay),
            "random-mutation" => Ok(StrategyKind::RandomMutation),
            "round-ahead" => Ok(StrategyKind::RoundAhead),
            "bv-split" => Ok(StrategyKind::BvSplit),
            "ready-forge" => Ok(StrategyKind::ReadyForge),
            other => Err(format!(
                "unknown strategy {other:?} (expected one of: equivocate, silence, biased-coin, \
                 conflicting-vectors, stale-replay, random-mutation, round-ahead, bv-split, \
                 ready-forge)"
            )),
        }
    }
}

/// A seeded byte-level frame corrupter, usable on *any* framed byte
/// string — protocol frames here, and the service tier's client replies
/// in the conformance tests: drop, duplicate, bit-flip, truncate, or
/// replace with garbage, all replayable from the seed.
///
/// The test cluster's wire-level `corrupt()` applies it to whole sends,
/// [`RandomMutation`] to protocol frames after per-destination
/// expansion; the service tests apply it to REPLY frames to model a
/// replica that lies to its clients rather than to its peers.
#[derive(Debug, Clone)]
pub struct FrameMutator {
    rng: XorShift64,
}

impl FrameMutator {
    /// Creates a mutator with its seed.
    pub fn new(seed: u64) -> Self {
        FrameMutator {
            rng: seeded_rng(seed ^ 0xF1E1D),
        }
    }

    /// Rewrites one frame into zero, one or two frames at random.
    pub fn mutate(&mut self, frame: Bytes) -> Vec<Bytes> {
        match self.rng.next_u64() % 6 {
            0 => Vec::new(),                 // drop
            1 => vec![frame.clone(), frame], // duplicate
            2 => vec![self.flip_bit(frame)],
            3 => {
                // Truncate.
                let len = (self.rng.next_u64() as usize) % (frame.len() + 1);
                vec![frame.slice(0..len)]
            }
            4 => vec![self.garbage()],
            _ => vec![frame], // pass through
        }
    }

    /// Flips one seeded bit of `frame` — corruption that always keeps a
    /// same-length, decodable-looking frame (the hardest lie to filter
    /// structurally; only MACs or votes can reject it).
    pub fn flip_bit(&mut self, frame: Bytes) -> Bytes {
        let mut v = frame.to_vec();
        if !v.is_empty() {
            let pos = (self.rng.next_u64() as usize) % v.len();
            let bit = (self.rng.next_u64() % 8) as u8;
            v[pos] ^= 1 << bit;
        }
        Bytes::from(v)
    }

    /// A short frame of seeded garbage.
    pub fn garbage(&mut self) -> Bytes {
        let len = 1 + (self.rng.next_u64() as usize) % 24;
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(self.rng.next_u64() as u8);
        }
        Bytes::from(v)
    }
}

/// The generator behind strategies and the test cluster's scheduler
/// (both must be replayable), seeded `seed·φ | 1`.
pub(crate) fn seeded_rng(seed: u64) -> XorShift64 {
    XorShift64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_known_answers() {
        // Pinned from the pre-`XorShift64` strategy generator: every
        // adversary replay line and every `testing::Net` schedule depends
        // on this stream.
        let draws = |seed| {
            let mut rng = seeded_rng(seed);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            draws(1),
            [
                0x0d83_b3e2_9a21_487a,
                0x54c4_4c79_f1fe_9d67,
                0xa845_f342_007a_0e78,
                0x7d6e_0b87_8a79_4779,
                0x90d8_d6e5_a10d_d485,
                0x9de6_cf0f_6d5a_586e,
                0xd566_4048_40a2_ab9d,
                0x674b_fece_098c_4828,
                0x87d6_e3d2_afc2_00ac,
                0xd2f5_7ac5_18cb_b99d,
                0x002a_74b4_aeb8_2db2,
                0xbc85_8f30_d872_96d1,
                0x26d1_41d7_b47a_58a8,
                0xec02_0223_7faa_74fd,
                0x1340_4cd3_e565_dfa1,
                0x54b0_7c17_5848_b28d,
            ]
        );
        assert_eq!(
            draws(0xDEAD_BEEF),
            [
                0xdd54_ffbd_05f5_287c,
                0xb4e7_5a8a_48d2_3340,
                0x3fd7_9bbc_b157_6d2b,
                0xa638_da03_cf3f_dd46,
                0x33df_4218_5819_fe3f,
                0x08f3_259a_d633_d876,
                0x7964_673a_0d3c_3881,
                0xccd2_1fcc_9106_d428,
                0x0eff_c719_6c36_e1bc,
                0x3897_ce4c_01d8_6546,
                0xa1a1_d790_5a26_af50,
                0x8878_0781_dee2_ba99,
                0xca5e_6bbc_b68c_9e31,
                0xc152_e750_5c14_14f7,
                0xd143_65de_caac_74d7,
                0x42a6_ca77_433b_d4ec,
            ]
        );
    }

    #[test]
    fn frame_roundtrips_through_decode() {
        let key = InstanceKey::Rb { sender: 2, seq: 7 };
        let msg = ProtocolMsg::Rb(RbMessage::Echo(Bytes::from_static(b"x")));
        let frame = msg.frame(key);
        let (k2, m2) = decode_frame(&frame).expect("decodes");
        assert_eq!(k2, key);
        assert_eq!(m2, msg);
    }

    #[test]
    fn xfer_frames_decode_and_pass_every_strategy_but_random_mutation() {
        let chunk = XferMessage::ChunkResp {
            seq: 8,
            idx: 2,
            data: Bytes::from_static(b"chunk"),
            proof: vec![[3; 32]],
        };
        let frame = crate::stack::encode_xfer(&chunk.to_bytes());
        assert_eq!(
            ProtocolMsg::Xfer(chunk.clone()).frame(InstanceKey::Xfer),
            frame
        );
        assert_eq!(
            decode_frame(&frame),
            Some((InstanceKey::Xfer, ProtocolMsg::Xfer(chunk)))
        );
        for kind in StrategyKind::ALL {
            if kind == StrategyKind::RandomMutation {
                continue;
            }
            // Three peers: `stale-replay` re-injects on every fourth send.
            let out = rewrite_frame(kind.build(1).as_mut(), 3, 4, &frame, 0..3);
            let dests: Vec<ProcessId> = out.iter().map(|(to, _)| *to).collect();
            assert_eq!(dests, [0, 1, 2], "{kind}");
            assert!(out.iter().all(|(_, f)| *f == frame), "{kind}");
        }
    }

    #[test]
    fn decode_frame_rejects_garbage() {
        assert!(decode_frame(&[0xff, 0x01, 0x02]).is_none());
        assert!(decode_frame(&[]).is_none());
    }

    #[test]
    fn strategy_kind_parses_all_names() {
        for kind in StrategyKind::ALL {
            assert_eq!(kind.to_string().parse::<StrategyKind>().unwrap(), kind);
        }
        assert!("no-such-strategy".parse::<StrategyKind>().is_err());
    }

    #[test]
    fn innermost_rb_chases_the_chain() {
        for ready in [
            RbMessage::Ready(Bytes::from_static(b"p")),
            RbMessage::ReadyDigest([7; 32]),
        ] {
            let mut msg = ProtocolMsg::Ab(AbMessage::Msg {
                id: crate::ab::MsgId { sender: 0, rbid: 0 },
                inner: ready.clone(),
            });
            assert!(is_rb_ready(&mut msg));
            assert_eq!(
                innermost_rb(&mut msg),
                Some((PayloadKind::Raw, &mut ready.clone()))
            );
        }
        let mut eb = ProtocolMsg::Eb(EbMessage::Mat(vec![None]));
        assert_eq!(innermost_rb(&mut eb), None);
        assert!(!is_rb_ready(&mut eb));
        assert!(is_eb_mat(&mut eb));
        let mut digest = ProtocolMsg::Rb(RbMessage::ReadyDigest([7; 32]));
        assert!(!with_innermost_payload(&mut digest, &mut |_, _| {}));
    }

    #[test]
    fn payload_access_reaches_nested_layers() {
        let mut msg = ProtocolMsg::Vc(VcMessage::Prop {
            origin: 1,
            inner: RbMessage::Init(Bytes::from_static(b"v")),
        });
        let mut seen = None;
        assert!(with_innermost_payload(&mut msg, &mut |kind, bytes| {
            seen = Some((kind, bytes.clone()));
            *bytes = Bytes::from_static(b"w");
        }));
        assert_eq!(seen, Some((PayloadKind::Raw, Bytes::from_static(b"v"))));
        match msg {
            ProtocolMsg::Vc(VcMessage::Prop { inner, .. }) => {
                assert_eq!(inner.payload().unwrap()[..], b"w"[..]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
