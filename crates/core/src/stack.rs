//! The per-process protocol stack: instance management, demultiplexing
//! and out-of-context buffering (paper §3.2–§3.4).
//!
//! A [`Stack`] is the sans-io equivalent of the paper's `ritas_t` context:
//! it owns every protocol instance of one process, routes inbound wire
//! messages to the right instance (the paper's *control block chaining*
//! becomes a typed [`InstanceKey`] carried in every envelope), and buffers
//! *out-of-context* messages — correct messages that arrive before their
//! instance exists — replaying them on creation, exactly as §3.4
//! describes.
//!
//! Instance creation rules mirror the original implementation:
//!
//! * **broadcast instances** (`Rb`, `Eb`, `Ab`) auto-create on first
//!   contact — their designated sender is part of the key, so a receiver
//!   can always build the control block. Only atomic broadcast session 0
//!   exists: a frame for any other session is a fault and opens nothing;
//! * **consensus instances** (`Bc`, `Mvc`, `Vc`) are created by the local
//!   `propose` call; traffic arriving earlier is parked in the OOC table
//!   (bounded; see [`Stack::ooc_len`]).

use crate::ab::{AbConfig, AbDelivery, AbMessage, AtomicBroadcast, MsgId};
use crate::bc::{BcInstance, Coins, Profile};
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::config::Group;
use crate::ctx::Ctx;
use crate::eb::EchoBroadcast;
use crate::error::ProtocolError;
use crate::mvc::{MultiValuedConsensus, MvcStep, MvcValue};
use crate::rb::ReliableBroadcast;
use crate::step::{FaultKind, Process, Step};
use crate::vc::{DecisionVector, VectorConsensus};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::{Digest, ProcessKeys, Sha256};
use ritas_metrics::{Layer, Metrics};
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::Arc;

/// Bounds for the out-of-context table (§3.4), in instances with parked
/// frames and in parked frames. A Byzantine process must not be able to
/// make us buffer unbounded state — nor to take up the room a correct
/// one's early frames need, so each peer may open, and fill, an equal
/// share of the table (see [`Stack::ooc_dropped`]).
const MAX_OOC_INSTANCES: usize = 4096;
const MAX_OOC_FRAMES: usize = 65536;

/// Identifies a top-level protocol instance within a session.
///
/// This is the root of the paper's control-block-chaining identifier: the
/// nested instance ids of child protocols are encoded inside each
/// protocol's own message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum InstanceKey {
    /// A reliable broadcast by `sender`, its `seq`-th.
    Rb {
        /// Designated sender.
        sender: ProcessId,
        /// Sender-local sequence number.
        seq: u64,
    },
    /// An echo broadcast by `sender`, its `seq`-th.
    Eb {
        /// Designated sender.
        sender: ProcessId,
        /// Sender-local sequence number.
        seq: u64,
    },
    /// A binary consensus with an application-agreed tag.
    Bc {
        /// Application-level instance tag.
        tag: u64,
    },
    /// A multi-valued consensus with an application-agreed tag.
    Mvc {
        /// Application-level instance tag.
        tag: u64,
    },
    /// A vector consensus with an application-agreed tag.
    Vc {
        /// Application-level instance tag.
        tag: u64,
    },
    /// An atomic broadcast session.
    Ab {
        /// Session number (usually 0).
        session: u32,
    },
    /// A state-transfer frame (snapshot manifests, Merkle nodes, chunks,
    /// log fills; see [`crate::recovery`]). Not a protocol instance: the
    /// payload is handed to the application verbatim as
    /// [`Output::Xfer`] — the recovery driver in [`crate::rsm`] does its
    /// own request/response matching and `f+1` vote counting.
    Xfer,
}

/// Maps a protocol fault to the suspicion counter it increments.
fn suspicion_kind(kind: FaultKind) -> ritas_metrics::SuspicionKind {
    match kind {
        FaultKind::Malformed => ritas_metrics::SuspicionKind::Malformed,
        FaultKind::Equivocation => ritas_metrics::SuspicionKind::Equivocation,
        FaultKind::NotEntitled => ritas_metrics::SuspicionKind::NotEntitled,
        FaultKind::BadAuthenticator => ritas_metrics::SuspicionKind::BadAuthenticator,
        FaultKind::Unjustified => ritas_metrics::SuspicionKind::Unjustified,
    }
}

const KEY_RB: u8 = 1;
const KEY_EB: u8 = 2;
const KEY_BC: u8 = 3;
const KEY_MVC: u8 = 4;
const KEY_VC: u8 = 5;
const KEY_AB: u8 = 6;
const KEY_XFER: u8 = 7;

impl WireMessage for InstanceKey {
    fn encode(&self, w: &mut Writer) {
        match self {
            InstanceKey::Rb { sender, seq } => {
                w.u8(KEY_RB).u32(*sender as u32).u64(*seq);
            }
            InstanceKey::Eb { sender, seq } => {
                w.u8(KEY_EB).u32(*sender as u32).u64(*seq);
            }
            InstanceKey::Bc { tag } => {
                w.u8(KEY_BC).u64(*tag);
            }
            InstanceKey::Mvc { tag } => {
                w.u8(KEY_MVC).u64(*tag);
            }
            InstanceKey::Vc { tag } => {
                w.u8(KEY_VC).u64(*tag);
            }
            InstanceKey::Ab { session } => {
                w.u8(KEY_AB).u32(*session);
            }
            InstanceKey::Xfer => {
                w.u8(KEY_XFER);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("key.kind")? {
            KEY_RB => Ok(InstanceKey::Rb {
                sender: r.u32("key.sender")? as usize,
                seq: r.u64("key.seq")?,
            }),
            KEY_EB => Ok(InstanceKey::Eb {
                sender: r.u32("key.sender")? as usize,
                seq: r.u64("key.seq")?,
            }),
            KEY_BC => Ok(InstanceKey::Bc {
                tag: r.u64("key.tag")?,
            }),
            KEY_MVC => Ok(InstanceKey::Mvc {
                tag: r.u64("key.tag")?,
            }),
            KEY_VC => Ok(InstanceKey::Vc {
                tag: r.u64("key.tag")?,
            }),
            KEY_AB => Ok(InstanceKey::Ab {
                session: r.u32("key.session")?,
            }),
            KEY_XFER => Ok(InstanceKey::Xfer),
            t => Err(WireError::InvalidTag {
                what: "key.kind",
                tag: t,
            }),
        }
    }
}

/// An output delivered by the stack to the application.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// A reliable broadcast delivered.
    RbDelivered {
        /// The instance that delivered.
        key: InstanceKey,
        /// Its designated sender.
        sender: ProcessId,
        /// The payload.
        payload: Bytes,
    },
    /// An echo broadcast delivered.
    EbDelivered {
        /// The instance that delivered.
        key: InstanceKey,
        /// Its designated sender.
        sender: ProcessId,
        /// The payload.
        payload: Bytes,
    },
    /// A binary consensus decided.
    BcDecided {
        /// The instance that decided.
        key: InstanceKey,
        /// The decision.
        decision: bool,
    },
    /// A multi-valued consensus decided (`None` = the default value ⊥).
    MvcDecided {
        /// The instance that decided.
        key: InstanceKey,
        /// The decision.
        decision: MvcValue,
    },
    /// A vector consensus decided.
    VcDecided {
        /// The instance that decided.
        key: InstanceKey,
        /// The decided vector.
        vector: DecisionVector,
    },
    /// An atomic broadcast a-delivered a message.
    AbDelivered {
        /// The session that delivered.
        key: InstanceKey,
        /// The delivery (id + payload), in total order.
        delivery: AbDelivery,
    },
    /// A state-transfer frame arrived (payload is an encoded
    /// [`crate::recovery::XferMessage`]; decoding and authentication by
    /// `f+1` cross-checking are the recovery driver's job).
    Xfer {
        /// The peer that sent the frame.
        from: ProcessId,
        /// The opaque transfer payload.
        payload: Bytes,
    },
}

/// A stack-level step: raw wire frames to transmit plus application
/// outputs.
pub type StackStep = Step<Bytes, Output>;

enum Instance {
    Rb(ReliableBroadcast),
    Eb(EchoBroadcast),
    Bc(BcInstance),
    Mvc(Box<MultiValuedConsensus>),
    Vc(VectorConsensus),
    Ab(Box<AtomicBroadcast>),
}

/// A layer the stack hosts: its messages travel as wire frames under the
/// instance's key, its outputs surface as [`Output`]s.
trait Hosted: Process<Msg: WireMessage> {
    fn lift(&self, key: InstanceKey, out: Self::Out) -> Output;

    /// A step of this instance as a step of the stack.
    fn encode(&self, key: InstanceKey, sub: Step<Self::Msg, Self::Out>) -> StackStep {
        sub.map_messages(|m| encode_frame(key, &m))
            .map_outputs(|out| Some(self.lift(key, out)))
    }

    /// Handles `inner`, a message of this layer as it came off the wire.
    fn feed(&mut self, key: InstanceKey, from: ProcessId, inner: &Bytes) -> StackStep {
        match Self::Msg::from_shared(inner) {
            Ok(m) => {
                let sub = self.handle_message(from, m);
                self.encode(key, sub)
            }
            Err(_) => Step::fault(from, FaultKind::Malformed),
        }
    }
}

impl Hosted for ReliableBroadcast {
    fn lift(&self, key: InstanceKey, payload: Bytes) -> Output {
        Output::RbDelivered {
            key,
            sender: self.sender(),
            payload,
        }
    }
}

impl Hosted for EchoBroadcast {
    fn lift(&self, key: InstanceKey, payload: Bytes) -> Output {
        Output::EbDelivered {
            key,
            sender: self.sender(),
            payload,
        }
    }
}

impl Hosted for BcInstance {
    fn lift(&self, key: InstanceKey, decision: bool) -> Output {
        Output::BcDecided { key, decision }
    }
}

impl Hosted for MultiValuedConsensus {
    fn lift(&self, key: InstanceKey, decision: MvcValue) -> Output {
        Output::MvcDecided { key, decision }
    }
}

impl Hosted for VectorConsensus {
    fn lift(&self, key: InstanceKey, vector: DecisionVector) -> Output {
        Output::VcDecided { key, vector }
    }
}

impl Hosted for AtomicBroadcast {
    fn lift(&self, key: InstanceKey, delivery: AbDelivery) -> Output {
        Output::AbDelivered { key, delivery }
    }
}

/// Stack-wide configuration. The default is the paper's stack
/// ([`Profile::Paper`]); `SessionConfig::new` configures the lean one.
#[derive(Debug, Clone, Copy, Default)]
pub struct StackConfig {
    /// Configuration for atomic broadcast sessions. Its `mvc` part — the
    /// `VECT` transport and the [`Profile`] — is also that of the
    /// standalone consensus instances (`Bc`, `Mvc`, `Vc`): every binary
    /// consensus of the stack, standalone or inside an agreement, is of
    /// that one profile and flips that profile's coin.
    pub ab: AbConfig,
}

impl StackConfig {
    /// This configuration with every binary consensus of `profile`.
    pub fn with_profile(mut self, profile: Profile) -> Self {
        self.ab.mvc.profile = profile;
        self
    }
}

/// The per-process protocol stack (the `ritas_t` context of §3.1).
///
/// # Example
///
/// Stacks are sans-io; the [`crate::testing::Cluster`] drives four of
/// them to a binary consensus decision:
///
/// ```
/// use ritas::stack::Output;
/// use ritas::testing::Cluster;
///
/// let mut cluster = Cluster::new(4, 7);
/// for p in 0..4 {
///     let step = cluster.stack_mut(p).bc_propose(1, true)?;
///     cluster.absorb(p, step);
/// }
/// cluster.run();
/// assert!(cluster.outputs(0).iter().any(|o| matches!(
///     o,
///     Output::BcDecided { decision: true, .. }
/// )));
/// # Ok::<(), ritas::ProtocolError>(())
/// ```
pub struct Stack {
    /// The root context: every instance is born with a child of it.
    ctx: Ctx,
    config: StackConfig,
    coin_seed: u64,
    instances: HashMap<InstanceKey, Instance>,
    /// Out-of-context messages: (from, encoded inner message). The first
    /// frame of a queue is from the peer that opened it.
    ooc: HashMap<InstanceKey, VecDeque<(ProcessId, Bytes)>>,
    /// Per peer: OOC queues it opened and frames it has parked.
    ooc_held: Vec<(usize, usize)>,
    next_rb_seq: u64,
    next_eb_seq: u64,
    /// While `true`, inbound atomic-broadcast frames are parked in the
    /// OOC table instead of being fed to (or auto-creating) the session —
    /// the rejoin window between reattaching to the transport and
    /// [`Stack::ab_resume`]: the parked frames replay once the session
    /// exists at its resume cursor.
    ab_hold: bool,
    /// Total frames dropped because their sender's OOC share was full.
    ooc_dropped: u64,
    /// Messages currently parked across all OOC queues.
    ooc_buffered: usize,
}

impl core::fmt::Debug for Stack {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Stack")
            .field("me", &self.ctx.me)
            .field("instances", &self.instances.len())
            .field("ooc", &self.ooc.len())
            .finish_non_exhaustive()
    }
}

impl Stack {
    /// Creates the stack for process `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of group or the key view mismatches.
    pub fn new(group: Group, me: ProcessId, keys: ProcessKeys, coin_seed: u64) -> Self {
        Self::with_config(group, me, keys, coin_seed, StackConfig::default())
    }

    /// Creates the stack with explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if `me` is out of group or the key view mismatches.
    pub fn with_config(
        group: Group,
        me: ProcessId,
        keys: ProcessKeys,
        coin_seed: u64,
        config: StackConfig,
    ) -> Self {
        Stack {
            ctx: Ctx::new(group, me, Arc::new(keys)).root(),
            config,
            coin_seed,
            instances: HashMap::new(),
            ooc: HashMap::new(),
            ooc_held: vec![(0, 0); group.n()],
            next_rb_seq: 0,
            next_eb_seq: 0,
            ab_hold: false,
            ooc_dropped: 0,
            ooc_buffered: 0,
        }
    }

    /// Attaches the process-wide metric registry in place of the private
    /// one the stack was created with: every instance created from now on
    /// counts into it. This is the one place a registry is re-wired —
    /// instances receive theirs at creation and keep it.
    ///
    /// # Panics
    ///
    /// Panics if the stack already holds an instance.
    pub fn set_metrics(&mut self, metrics: Metrics) {
        assert!(
            self.instances.is_empty(),
            "set_metrics on a stack that holds instances"
        );
        self.ctx.metrics = metrics;
    }

    /// The metric registry shared by every instance of this stack.
    pub fn metrics(&self) -> &Metrics {
        &self.ctx.metrics
    }

    /// This process's id.
    pub fn id(&self) -> ProcessId {
        self.ctx.me
    }

    /// The group configuration.
    pub fn group(&self) -> Group {
        self.ctx.group
    }

    /// The profile every binary consensus of this stack runs, and with it
    /// how atomic broadcast orders ([`crate::ab`]).
    pub fn profile(&self) -> crate::bc::Profile {
        self.config.ab.mvc.profile
    }

    /// Number of live protocol instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Number of instances with buffered out-of-context messages.
    pub fn ooc_len(&self) -> usize {
        self.ooc.len()
    }

    /// Total frames dropped because the peer that sent them had used up
    /// its share (one n-th) of the OOC table.
    pub fn ooc_dropped(&self) -> u64 {
        self.ooc_dropped
    }

    /// The coins of the consensus instance (or the agreements of the
    /// session) under `key`: a local seed of this process's own, from
    /// `coin_seed`, and a common-coin nonce every process derives alike
    /// from the key alone.
    pub(crate) fn coins(&self, key: &InstanceKey) -> Coins {
        let (mul, salt) = match key {
            InstanceKey::Bc { tag } => (0x9E37_79B9_7F4A_7C15, 0x1000_0000_0000_0000 ^ *tag),
            InstanceKey::Mvc { tag } => (0x9E37_79B9_7F4A_7C15, 0x2000_0000_0000_0000 ^ *tag),
            InstanceKey::Vc { tag } => (0x517C_C1B7_2722_0A95, 0x5000_0000_0000_0000 ^ *tag),
            InstanceKey::Ab { session } => (
                0x517C_C1B7_2722_0A95,
                0x6000_0000_0000_0000 ^ u64::from(*session),
            ),
            _ => unreachable!("only consensus instances and sessions flip coins"),
        };
        let digest = Sha256::digest_concat(&[b"ritas-coin-nonce", &key.to_bytes()]);
        Coins {
            local: self.coin_seed.wrapping_mul(mul) ^ salt,
            nonce: u64::from_be_bytes(digest[..8].try_into().expect("a SHA-256 digest")),
        }
    }

    // ----- instance creation -----

    /// The context the instance under `key` is born with, its root span
    /// opened (children extend the path with `/`-separated segments; see
    /// `ritas_metrics::SpanRegistry`).
    fn ctx_for(&self, key: InstanceKey) -> Ctx {
        let root = &self.ctx;
        match key {
            InstanceKey::Rb { sender, seq } => {
                root.child(Layer::Rb, |f| write!(f, "rb:{sender}:{seq}"))
            }
            InstanceKey::Eb { sender, seq } => {
                root.child(Layer::Eb, |f| write!(f, "eb:{sender}:{seq}"))
            }
            InstanceKey::Bc { tag } => root.child(Layer::Bc, |f| write!(f, "bc:{tag}")),
            InstanceKey::Mvc { tag } => root.child(Layer::Mvc, |f| write!(f, "mvc:{tag}")),
            InstanceKey::Vc { tag } => root.child(Layer::Vc, |f| write!(f, "vc:{tag}")),
            InstanceKey::Ab { session } => root.session(Layer::Ab, |f| write!(f, "ab:{session}")),
            InstanceKey::Xfer => unreachable!("transfer frames have no instance"),
        }
    }

    /// [`Stack::ctx_for`] a consensus instance, which only the first
    /// proposal creates.
    fn ctx_for_proposal(&self, key: InstanceKey) -> Result<Ctx, ProtocolError> {
        if self.instances.contains_key(&key) {
            return Err(ProtocolError::AlreadyStarted);
        }
        Ok(self.ctx_for(key))
    }

    /// Enters a new instance — the one way one comes to exist. `first` is
    /// the step of the request that created it (nothing, when a peer's
    /// frame did); what was parked for it replays behind that.
    fn install<P: Hosted>(
        &mut self,
        key: InstanceKey,
        inst: P,
        wrap: fn(P) -> Instance,
        first: Step<P::Msg, P::Out>,
    ) -> StackStep {
        let mut out = inst.encode(key, first);
        self.instances.insert(key, wrap(inst));
        self.note_instances();
        out.extend(self.replay_ooc(key));
        out
    }

    /// Enters atomic broadcast session `key` — resumed at `cursor` first,
    /// on a rejoin (see [`crate::ab::AtomicBroadcast::resume`]).
    fn open_ab(&mut self, key: InstanceKey, cursor: Option<&crate::ab::AbCursor>) -> StackStep {
        assert_eq!(key, InstanceKey::Ab { session: 0 }, "only session 0 exists");
        let mut ab = match self.instances.remove(&key) {
            Some(Instance::Ab(ab)) => *ab,
            _ => AtomicBroadcast::new(self.ctx_for(key), self.coins(&key), self.config.ab),
        };
        if let Some(cursor) = cursor {
            ab.resume(cursor);
        }
        self.install(key, ab, |ab| Instance::Ab(Box::new(ab)), Step::none())
    }

    // ----- service requests (the ritas_XX_* functions of §3.1) -----

    /// Reliably broadcasts `payload`; returns the instance key so the
    /// caller can correlate deliveries.
    pub fn rb_broadcast(&mut self, payload: Bytes) -> (InstanceKey, StackStep) {
        let key = InstanceKey::Rb {
            sender: self.ctx.me,
            seq: self.next_rb_seq,
        };
        self.next_rb_seq += 1;
        let mut rb =
            ReliableBroadcast::new(self.ctx_for(key), self.config.ab.mvc.profile, self.ctx.me);
        let first = rb.broadcast(payload).expect("fresh instance");
        let step = self.install(key, rb, Instance::Rb, first);
        (key, self.reported(step))
    }

    /// Echo-broadcasts `payload`.
    pub fn eb_broadcast(&mut self, payload: Bytes) -> (InstanceKey, StackStep) {
        let key = InstanceKey::Eb {
            sender: self.ctx.me,
            seq: self.next_eb_seq,
        };
        self.next_eb_seq += 1;
        let mut eb = EchoBroadcast::new(self.ctx_for(key), self.ctx.me);
        let first = eb.broadcast(payload).expect("fresh instance");
        let step = self.install(key, eb, Instance::Eb, first);
        (key, self.reported(step))
    }

    /// Proposes a bit for binary consensus instance `tag`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] if `tag` was already proposed.
    pub fn bc_propose(&mut self, tag: u64, value: bool) -> Result<StackStep, ProtocolError> {
        let key = InstanceKey::Bc { tag };
        let ctx = self.ctx_for_proposal(key)?;
        let mut bc = BcInstance::new(ctx, self.config.ab.mvc.profile, self.coins(&key));
        let first = bc.propose(value)?;
        let step = self.install(key, bc, Instance::Bc, first);
        Ok(self.reported(step))
    }

    /// Proposes a value for multi-valued consensus instance `tag`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] if `tag` was already proposed.
    pub fn mvc_propose(&mut self, tag: u64, value: Bytes) -> Result<StackStep, ProtocolError> {
        self.mvc_start(tag, |mvc| mvc.propose(value))
    }

    /// Runs the paper's §4.2 Byzantine faultload on multi-valued
    /// consensus instance `tag`: propose ⊥ in INIT and VECT and 0 at the
    /// binary consensus layer (evaluation harness only).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] if `tag` was already proposed.
    pub fn mvc_propose_bottom(&mut self, tag: u64) -> Result<StackStep, ProtocolError> {
        self.mvc_start(tag, MultiValuedConsensus::propose_byzantine_bottom)
    }

    fn mvc_start(
        &mut self,
        tag: u64,
        propose: impl FnOnce(&mut MultiValuedConsensus) -> Result<MvcStep, ProtocolError>,
    ) -> Result<StackStep, ProtocolError> {
        let key = InstanceKey::Mvc { tag };
        let ctx = self.ctx_for_proposal(key)?;
        let mut mvc = MultiValuedConsensus::new(ctx, self.coins(&key), self.config.ab.mvc);
        let first = propose(&mut mvc)?;
        let step = self.install(key, mvc, |mvc| Instance::Mvc(Box::new(mvc)), first);
        Ok(self.reported(step))
    }

    /// Proposes a value for vector consensus instance `tag`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::AlreadyStarted`] if `tag` was already proposed.
    pub fn vc_propose(&mut self, tag: u64, value: Bytes) -> Result<StackStep, ProtocolError> {
        let key = InstanceKey::Vc { tag };
        let ctx = self.ctx_for_proposal(key)?;
        let mut vc = VectorConsensus::new(ctx, self.coins(&key), self.config.ab.mvc);
        let first = vc.propose(value)?;
        let step = self.install(key, vc, Instance::Vc, first);
        Ok(self.reported(step))
    }

    /// A-broadcasts `payload` on atomic broadcast session `session`
    /// (created on first use).
    ///
    /// # Panics
    ///
    /// Panics if `session` is not 0, the only session there is.
    pub fn ab_broadcast(&mut self, session: u32, payload: Bytes) -> (MsgId, StackStep) {
        let key = InstanceKey::Ab { session };
        let opened = (!self.instances.contains_key(&key)).then(|| self.open_ab(key, None));
        let Some(Instance::Ab(ab)) = self.instances.get_mut(&key) else {
            unreachable!("open_ab installs the session")
        };
        let (id, sub) = ab.broadcast(payload);
        let step = ab.encode(key, sub);
        let step = match opened {
            Some(mut out) => {
                out.extend(step);
                out
            }
            None => step,
        };
        (id, self.reported(step))
    }

    /// Starts agreement rounds (atomic broadcast sessions and vector
    /// consensus instances) — the only place a round starts; no
    /// [`Stack::handle_frame`] does. Drivers call this when their inbound
    /// queue has been drained, as the paper's one protocol thread does
    /// (§3), so one round orders everything that arrived in the meantime.
    pub fn poll_all(&mut self) -> StackStep {
        let mut out = Step::none();
        for (key, inst) in &mut self.instances {
            match inst {
                Instance::Ab(ab) => {
                    let sub = ab.poll();
                    out.extend(ab.encode(*key, sub));
                }
                Instance::Vc(vc) => {
                    let sub = vc.poll();
                    out.extend(vc.encode(*key, sub));
                }
                _ => {}
            }
        }
        self.reported(out)
    }

    /// Injects the driver clock into every atomic broadcast session (the
    /// age-based batch-flush trigger reads it; see
    /// [`crate::ab::BatchPolicy`]).
    pub fn set_now(&mut self, now_ns: u64) {
        for inst in self.instances.values_mut() {
            if let Instance::Ab(ab) = inst {
                ab.set_now(now_ns);
            }
        }
    }

    /// The earliest driver-clock instant at which some atomic broadcast
    /// session needs a [`Stack::tick`] to flush an aged batch, or `None`
    /// when no timer is armed.
    pub fn ab_next_deadline(&self) -> Option<u64> {
        self.instances
            .values()
            .filter_map(|inst| match inst {
                Instance::Ab(ab) => ab.next_flush_deadline(),
                _ => None,
            })
            .min()
    }

    /// Runs deferred batch flushes on every atomic broadcast session
    /// after [`Stack::set_now`] advanced the clock past
    /// [`Stack::ab_next_deadline`]. Starts no agreement round.
    pub fn tick(&mut self) -> StackStep {
        let mut out = Step::none();
        for (key, inst) in &mut self.instances {
            if let Instance::Ab(ab) = inst {
                let sub = ab.tick();
                out.extend(ab.encode(*key, sub));
            }
        }
        self.reported(out)
    }

    /// The round in which binary consensus instance `tag` decided
    /// (1-based), if it exists and has decided. Statistics for the
    /// randomization experiments.
    pub fn bc_decided_round(&self, tag: u64) -> Option<u32> {
        match self.instances.get(&InstanceKey::Bc { tag }) {
            Some(Instance::Bc(bc)) => bc.decided_round(),
            _ => None,
        }
    }

    /// The agreement round a vector consensus instance is in (0-based),
    /// if it exists. A value above 0 means earlier rounds decided ⊥ and
    /// were retried.
    pub fn vc_round(&self, tag: u64) -> Option<u32> {
        match self.instances.get(&InstanceKey::Vc { tag }) {
            Some(Instance::Vc(vc)) => Some(vc.round()),
            _ => None,
        }
    }

    // ----- the atomic-broadcast port -----

    /// Atomic broadcast session `session`, if it exists: the read side of
    /// the port (statistics, round, recovery hints, retained and missing
    /// batches; see [`AtomicBroadcast`]).
    pub fn ab(&self, session: u32) -> Option<&AtomicBroadcast> {
        match self.instances.get(&InstanceKey::Ab { session }) {
            Some(Instance::Ab(ab)) => Some(ab),
            _ => None,
        }
    }

    /// The write side of the port: runs `f` on session `session` and
    /// wraps the step it returns into wire frames. No-op if the session
    /// does not exist.
    pub fn with_ab(
        &mut self,
        session: u32,
        f: impl FnOnce(&mut AtomicBroadcast) -> Step<AbMessage, AbDelivery>,
    ) -> StackStep {
        let key = InstanceKey::Ab { session };
        let step = match self.instances.get_mut(&key) {
            Some(Instance::Ab(ab)) => {
                let sub = f(ab);
                ab.encode(key, sub)
            }
            _ => Step::none(),
        };
        self.reported(step)
    }

    // ----- recovery / state transfer -----

    /// Arms or disarms the rejoin hold: while armed, inbound
    /// atomic-broadcast frames are parked (OOC) instead of feeding the
    /// session, so a rejoiner can reattach to the transport before it
    /// knows its resume cursor. [`Stack::ab_resume`] disarms and replays.
    pub fn set_ab_hold(&mut self, hold: bool) {
        self.ab_hold = hold;
    }

    /// Creates atomic-broadcast session `session` at a rejoin cursor,
    /// disarms the hold, and replays every parked frame into it. See
    /// [`crate::ab::AtomicBroadcast::resume`].
    ///
    /// # Panics
    ///
    /// Panics if `session` is not 0, the only session there is.
    pub fn ab_resume(&mut self, session: u32, cursor: &crate::ab::AbCursor) -> StackStep {
        let key = InstanceKey::Ab { session };
        self.ab_hold = false;
        let step = self.open_ab(key, Some(cursor));
        self.reported(step)
    }

    /// Destroys an instance, purging its out-of-context messages (§3.4).
    pub fn destroy(&mut self, key: InstanceKey) {
        self.instances.remove(&key);
        self.take_ooc(key);
        self.note_instances();
    }

    fn note_instances(&self) {
        self.ctx
            .metrics
            .stack_instances
            .set(self.instances.len() as u64);
    }

    // ----- inbound path -----

    /// Handles one raw wire frame from `from`.
    ///
    /// Malformed frames are reported as faults; messages for instances
    /// that cannot be auto-created are parked in the OOC table.
    pub fn handle_frame(&mut self, from: ProcessId, frame: Bytes) -> StackStep {
        self.ctx.metrics.stack_frames_in.inc();
        let step = self.handle_frame_inner(from, frame);
        self.reported(step)
    }

    /// Counts the faults `step` carries against their senders
    /// (`faults_detected` and the suspicion table) and hands it on. Every
    /// public method that returns a step passes it through here exactly
    /// once, so a fault is recorded once whatever set it off — a peer's
    /// frame, or a local request replaying the frames parked for the
    /// instance it creates.
    fn reported(&self, step: StackStep) -> StackStep {
        if !step.faults.is_empty() {
            let metrics = &self.ctx.metrics;
            metrics.faults_detected.add(step.faults.len() as u64);
            for fault in &step.faults {
                metrics.suspect(fault.from as u32, suspicion_kind(fault.kind));
            }
        }
        step
    }

    fn handle_frame_inner(&mut self, from: ProcessId, frame: Bytes) -> StackStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        let mut r = Reader::shared(&frame);
        let key = match InstanceKey::decode(&mut r) {
            Ok(k) => k,
            Err(_) => return Step::fault(from, FaultKind::Malformed),
        };
        let inner = r.rest();
        self.dispatch(from, key, inner)
    }

    fn dispatch(&mut self, from: ProcessId, key: InstanceKey, inner: Bytes) -> StackStep {
        // Transfer frames bypass instance management entirely.
        if key == InstanceKey::Xfer {
            let mut out = Step::none();
            out.push_output(Output::Xfer {
                from,
                payload: inner,
            });
            return out;
        }
        // Only session 0 exists: a session per frame would be state
        // without bound, walked by every `poll_all`, `tick` and `set_now`.
        if matches!(key, InstanceKey::Ab { session } if session != 0) {
            return Step::fault(from, FaultKind::Malformed);
        }
        // Rejoin window: park AB traffic until the session is resumed.
        if self.ab_hold && matches!(key, InstanceKey::Ab { .. }) {
            self.park_ooc(key, from, inner);
            return Step::none();
        }
        // Auto-create broadcast instances on first contact.
        if !self.instances.contains_key(&key) {
            let mut out = match key {
                InstanceKey::Rb { sender, .. } if self.ctx.group.contains(sender) => {
                    let rb = ReliableBroadcast::new(
                        self.ctx_for(key),
                        self.config.ab.mvc.profile,
                        sender,
                    );
                    self.install(key, rb, Instance::Rb, Step::none())
                }
                InstanceKey::Eb { sender, .. } if self.ctx.group.contains(sender) => {
                    let eb = EchoBroadcast::new(self.ctx_for(key), sender);
                    self.install(key, eb, Instance::Eb, Step::none())
                }
                InstanceKey::Ab { .. } => self.open_ab(key, None),
                InstanceKey::Rb { .. } | InstanceKey::Eb { .. } => {
                    return Step::fault(from, FaultKind::Malformed);
                }
                // Consensus instances wait for the local propose call.
                InstanceKey::Bc { .. } | InstanceKey::Mvc { .. } | InstanceKey::Vc { .. } => {
                    self.park_ooc(key, from, inner);
                    return Step::none();
                }
                // Handled by the early return above.
                InstanceKey::Xfer => return Step::none(),
            };
            out.extend(self.feed_instance(from, key, &inner));
            return out;
        }
        self.feed_instance(from, key, &inner)
    }

    fn feed_instance(&mut self, from: ProcessId, key: InstanceKey, inner: &Bytes) -> StackStep {
        match self.instances.get_mut(&key) {
            Some(Instance::Rb(rb)) => rb.feed(key, from, inner),
            Some(Instance::Eb(eb)) => eb.feed(key, from, inner),
            Some(Instance::Bc(bc)) => bc.feed(key, from, inner),
            Some(Instance::Mvc(mvc)) => mvc.feed(key, from, inner),
            Some(Instance::Vc(vc)) => vc.feed(key, from, inner),
            Some(Instance::Ab(ab)) => ab.feed(key, from, inner),
            None => Step::none(),
        }
    }

    /// Parks a frame that came before its instance, within `from`'s share
    /// of the table: one n-th of its queues to open and one n-th of its
    /// frames to fill. What is over is dropped and counted, so a peer
    /// that floods the table evicts nobody's frames but its own.
    fn park_ooc(&mut self, key: InstanceKey, from: ProcessId, inner: Bytes) {
        let n = self.ctx.group.n();
        let metrics = &self.ctx.metrics;
        let opens = !self.ooc.contains_key(&key);
        let (opened, parked) = &mut self.ooc_held[from];
        if *parked >= MAX_OOC_FRAMES / n || (opens && *opened >= MAX_OOC_INSTANCES / n) {
            self.ooc_dropped += 1;
            return;
        }
        *opened += usize::from(opens);
        *parked += 1;
        self.ooc.entry(key).or_default().push_back((from, inner));
        self.ooc_buffered += 1;
        metrics.stack_ooc_buffered.set(self.ooc_buffered as u64);
    }

    /// Removes what is parked for `key`, giving each peer its share back.
    fn take_ooc(&mut self, key: InstanceKey) -> VecDeque<(ProcessId, Bytes)> {
        let Some(q) = self.ooc.remove(&key) else {
            return VecDeque::new();
        };
        if let Some((opener, _)) = q.front() {
            self.ooc_held[*opener].0 -= 1;
        }
        for (from, _) in &q {
            self.ooc_held[*from].1 -= 1;
        }
        self.ooc_buffered -= q.len();
        self.ctx
            .metrics
            .stack_ooc_buffered
            .set(self.ooc_buffered as u64);
        q
    }

    fn replay_ooc(&mut self, key: InstanceKey) -> StackStep {
        // Held frames wait for `ab_resume`, whatever created the session.
        if self.ab_hold && matches!(key, InstanceKey::Ab { .. }) {
            return Step::none();
        }
        let mut out = Step::none();
        for (from, inner) in self.take_ooc(key) {
            out.extend(self.feed_instance(from, key, &inner));
        }
        out
    }
}

impl Process for Stack {
    type Msg = Bytes;
    type Out = Output;

    fn handle_message(&mut self, from: ProcessId, frame: Bytes) -> Step<Bytes, Output> {
        self.handle_frame(from, frame)
    }

    fn poll(&mut self) -> Step<Bytes, Output> {
        self.poll_all()
    }
}

fn encode_frame<M: WireMessage>(key: InstanceKey, m: &M) -> Bytes {
    // Room for most frames up front: a frozen frame keeps its buffer, so
    // each growth step would otherwise be a reallocation and a copy.
    let mut w = Writer::with_capacity(128);
    key.encode(&mut w);
    m.encode(&mut w);
    w.freeze()
}

/// Encodes a state-transfer payload into a wire frame: the receiving
/// stack routes it to [`Output::Xfer`] verbatim.
pub fn encode_xfer(payload: &[u8]) -> Bytes {
    let mut w = Writer::new();
    InstanceKey::Xfer.encode(&mut w);
    w.raw(payload);
    w.freeze()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::Cluster;

    #[test]
    fn instance_key_codec_roundtrip() {
        for key in [
            InstanceKey::Rb { sender: 1, seq: 9 },
            InstanceKey::Eb { sender: 0, seq: 0 },
            InstanceKey::Bc { tag: 42 },
            InstanceKey::Mvc { tag: u64::MAX },
            InstanceKey::Vc { tag: 7 },
            InstanceKey::Ab { session: 3 },
            InstanceKey::Xfer,
        ] {
            assert_eq!(InstanceKey::from_bytes(&key.to_bytes()).unwrap(), key);
        }
    }

    #[test]
    #[should_panic(expected = "only session 0 exists")]
    fn only_ab_session_0_opens() {
        let mut cluster = Cluster::new(4, 20);
        let _ = cluster
            .stack_mut(0)
            .ab_broadcast(1, Bytes::from_static(b"x"));
    }

    #[test]
    fn xfer_frames_surface_verbatim() {
        let mut cluster = Cluster::new(4, 21);
        let frame = encode_xfer(b"opaque-transfer-payload");
        let step = cluster.stack_mut(0).handle_frame(2, frame);
        assert_eq!(
            step.outputs,
            vec![Output::Xfer {
                from: 2,
                payload: Bytes::from_static(b"opaque-transfer-payload"),
            }]
        );
        assert!(step.messages.is_empty());
        // No instance was created for it.
        assert_eq!(cluster.stack_mut(0).instance_count(), 0);
    }

    #[test]
    fn ab_hold_parks_frames_until_resume() {
        let mut cluster = Cluster::new(4, 22);
        // Peer 1 a-broadcasts; capture one of its AB frames.
        let (_, step) = cluster
            .stack_mut(1)
            .ab_broadcast(0, Bytes::from_static(b"held"));
        let frame = step.messages[0].message.clone();
        // Process 0 holds AB traffic: the frame parks, no session exists.
        cluster.stack_mut(0).set_ab_hold(true);
        let s = cluster.stack_mut(0).handle_frame(1, frame.clone());
        assert!(s.is_empty());
        assert_eq!(cluster.stack_mut(0).instance_count(), 0);
        assert!(cluster.stack_mut(0).ooc_len() > 0, "frame must be parked");
        // Resume replays the parked frame into a fresh session: the RBC
        // echo traffic it triggers proves the frame was processed.
        let cursor = crate::ab::AbCursor {
            round: 0,
            replay_to: 0,
            a_delivered: vec![0; 4],
            cmd_delivered: vec![0; 4],
            next_rbid: 0,
            next_batch: 0,
        };
        let s = cluster.stack_mut(0).ab_resume(0, &cursor);
        assert!(!s.messages.is_empty(), "replayed frame produced traffic");
        assert_eq!(cluster.stack_mut(0).ooc_len(), 0);
        assert!(cluster.stack_mut(0).ab(0).expect("resumed").recovering());
        use crate::recovery::milestones::AB_RESUMED;
        let resumed = (ritas_metrics::FlightKind::Recovery, AB_RESUMED, 0);
        let events = cluster.metrics(0).flight().events();
        assert!(events.iter().any(|e| (e.kind, e.a, e.b) == resumed));
    }

    #[test]
    fn rb_broadcast_via_stack() {
        let mut cluster = Cluster::new(4, 11);
        let (_key, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"m"));
        cluster.absorb(0, step);
        cluster.run();
        for p in 0..4 {
            let delivered: Vec<_> = cluster
                .outputs(p)
                .iter()
                .filter_map(|o| match o {
                    Output::RbDelivered {
                        sender, payload, ..
                    } => Some((*sender, payload.clone())),
                    _ => None,
                })
                .collect();
            assert_eq!(
                delivered,
                vec![(0, Bytes::from_static(b"m"))],
                "process {p}"
            );
        }
    }

    #[test]
    fn eb_broadcast_via_stack() {
        let mut cluster = Cluster::new(4, 12);
        let (_key, step) = cluster.stack_mut(2).eb_broadcast(Bytes::from_static(b"e"));
        cluster.absorb(2, step);
        cluster.run();
        for p in 0..4 {
            assert!(
                cluster.outputs(p).iter().any(|o| matches!(
                    o,
                    Output::EbDelivered { sender: 2, payload, .. } if payload.as_ref() == b"e"
                )),
                "process {p} missing delivery"
            );
        }
    }

    #[test]
    fn bc_via_stack_with_ooc_buffering() {
        let mut cluster = Cluster::new(4, 13);
        // Three processes propose immediately; the fourth receives all
        // their traffic out-of-context first, then proposes.
        for p in 0..3 {
            let step = cluster.stack_mut(p).bc_propose(5, true).unwrap();
            cluster.absorb(p, step);
        }
        cluster.run();
        assert!(cluster.stack_mut(3).ooc_len() > 0, "OOC must have buffered");
        let step = cluster.stack_mut(3).bc_propose(5, true).unwrap();
        cluster.absorb(3, step);
        cluster.run();
        for p in 0..4 {
            assert!(
                cluster
                    .outputs(p)
                    .iter()
                    .any(|o| matches!(o, Output::BcDecided { decision: true, .. })),
                "process {p} missing decision"
            );
        }
    }

    #[test]
    fn mvc_via_stack() {
        let mut cluster = Cluster::new(4, 14);
        for p in 0..4 {
            let step = cluster
                .stack_mut(p)
                .mvc_propose(1, Bytes::from_static(b"val"))
                .unwrap();
            cluster.absorb(p, step);
        }
        cluster.run();
        for p in 0..4 {
            assert!(cluster.outputs(p).iter().any(|o| matches!(
                o,
                Output::MvcDecided { decision: Some(v), .. } if v.as_ref() == b"val"
            )));
        }
    }

    #[test]
    fn vc_via_stack() {
        let mut cluster = Cluster::new(4, 15);
        for p in 0..4 {
            let step = cluster
                .stack_mut(p)
                .vc_propose(1, Bytes::copy_from_slice(format!("p{p}").as_bytes()))
                .unwrap();
            cluster.absorb(p, step);
        }
        cluster.run();
        for p in 0..4 {
            assert!(cluster
                .outputs(p)
                .iter()
                .any(|o| matches!(o, Output::VcDecided { .. })));
        }
    }

    #[test]
    fn ab_via_stack() {
        let mut cluster = Cluster::new(4, 16);
        let (_, step) = cluster
            .stack_mut(1)
            .ab_broadcast(0, Bytes::from_static(b"a1"));
        cluster.absorb(1, step);
        let (_, step) = cluster
            .stack_mut(2)
            .ab_broadcast(0, Bytes::from_static(b"a2"));
        cluster.absorb(2, step);
        cluster.run();
        let order0: Vec<MsgId> = cluster
            .outputs(0)
            .iter()
            .filter_map(|o| match o {
                Output::AbDelivered { delivery, .. } => Some(delivery.id),
                _ => None,
            })
            .collect();
        assert_eq!(order0.len(), 2);
        for p in 1..4 {
            let order: Vec<MsgId> = cluster
                .outputs(p)
                .iter()
                .filter_map(|o| match o {
                    Output::AbDelivered { delivery, .. } => Some(delivery.id),
                    _ => None,
                })
                .collect();
            assert_eq!(order, order0, "total order diverged at {p}");
        }
    }

    /// How many of `step`'s frames are AB_VECT (a round opening).
    fn vects(step: &StackStep) -> usize {
        step.messages
            .iter()
            .filter(|out| {
                matches!(
                    crate::adversary::decode_frame(&out.message),
                    Some((_, crate::adversary::ProtocolMsg::Ab(AbMessage::Vect { .. })))
                )
            })
            .count()
    }

    /// A stack the net never polls (the trait's default `poll` is empty),
    /// counting the AB_VECTs its frame handling emits.
    struct Unpolled {
        stack: Stack,
        vects: usize,
    }

    impl Process for Unpolled {
        type Msg = Bytes;
        type Out = Output;

        fn handle_message(&mut self, from: ProcessId, frame: Bytes) -> StackStep {
            let step = self.stack.handle_frame(from, frame);
            self.vects += vects(&step);
            step
        }
    }

    #[test]
    fn rounds_start_in_poll_all_never_in_handle_frame() {
        let group = crate::Group::new(4).unwrap();
        let table = ritas_crypto::KeyTable::dealer(4, 23);
        let stacks = (0..4)
            .map(|me| Unpolled {
                stack: Stack::new(group, me, table.view_of(me), 23 ^ me as u64),
                vects: 0,
            })
            .collect();
        let mut net = crate::testing::Net::connect(stacks, 23);
        net.set_schedule(crate::testing::Schedule::Lifo);
        for p in 0..4 {
            let stack = &mut net.process_mut(p).stack;
            let (_, mut step) = stack.ab_broadcast(0, Bytes::from_static(b"ab"));
            step.extend(stack.vc_propose(1, Bytes::from_static(b"vc")).unwrap());
            assert_eq!(vects(&step), 0);
            net.absorb(p, step);
        }
        // Dissemination runs to quiescence on handle_frame alone, but no
        // agreement round opens: no AB_VECT, no VC round, no delivery.
        net.run();
        for p in 0..4 {
            let Unpolled { stack, vects } = net.process(p);
            assert_eq!(*vects, 0, "AB_VECT without poll");
            assert!(stack.ab(0).unwrap().pending() > 0, "batches received");
            assert_eq!(stack.ab(0).unwrap().stats().delivered, 0);
            assert_eq!(stack.metrics().mvc_started.get(), 0, "a round opened");
        }
        // poll_all opens both: every stack emits its AB_VECT and proposes
        // the VC round's W_i to a fresh MVC.
        for p in 0..4 {
            let stack = &mut net.process_mut(p).stack;
            assert_eq!(vects(&stack.poll_all()), 1, "one AB_VECT broadcast");
            assert_eq!(stack.metrics().mvc_started.get(), 1, "the VC round");
        }
    }

    #[test]
    fn double_propose_rejected() {
        let mut cluster = Cluster::new(4, 17);
        let step = cluster.stack_mut(0).bc_propose(9, false).unwrap();
        cluster.absorb(0, step);
        assert_eq!(
            cluster.stack_mut(0).bc_propose(9, true).unwrap_err(),
            ProtocolError::AlreadyStarted
        );
    }

    #[test]
    fn destroy_purges_ooc() {
        let mut cluster = Cluster::new(4, 18);
        for p in 0..3 {
            let step = cluster.stack_mut(p).bc_propose(5, true).unwrap();
            cluster.absorb(p, step);
        }
        cluster.run();
        assert!(cluster.stack_mut(3).ooc_len() > 0);
        cluster.stack_mut(3).destroy(InstanceKey::Bc { tag: 5 });
        assert_eq!(cluster.stack_mut(3).ooc_len(), 0);
    }

    #[test]
    fn lean_cluster_agrees() {
        for seed in 0..8 {
            let mut cluster = Cluster::with_profile(4, seed, Profile::Lean);
            for p in 0..4 {
                let s = cluster.stack_mut(p).bc_propose(8, p % 2 == 1).unwrap();
                cluster.absorb(p, s);
            }
            cluster.run();
            let decisions: Vec<bool> = (0..4)
                .filter_map(|p| {
                    cluster.outputs(p).iter().find_map(|o| match o {
                        Output::BcDecided { decision, .. } => Some(*decision),
                        _ => None,
                    })
                })
                .collect();
            assert_eq!(decisions.len(), 4, "seed {seed}");
            assert!(decisions.iter().all(|d| *d == decisions[0]), "seed {seed}");
        }
    }

    #[test]
    fn every_stack_flips_the_same_coin_for_the_same_agreement_round() {
        // Each stack has its own coin seed; the common coin of a round is
        // a function of the session's key and the round alone.
        use ritas_crypto::RoundCoin;
        let cluster = Cluster::with_profile(4, 44, Profile::Lean);
        for key in [InstanceKey::Ab { session: 0 }, InstanceKey::Vc { tag: 3 }] {
            let flips = |p: usize, round: u32| {
                let stack = cluster.process(p);
                let coins = stack.coins(&key).round(round);
                let mut coin = stack.ctx.keys.coin(coins.nonce);
                (3..35).map(|r| coin.flip_round(r)).collect::<Vec<_>>()
            };
            for round in 0..8 {
                let first = flips(0, round);
                for p in 1..4 {
                    assert_eq!(flips(p, round), first, "{key:?} round {round} process {p}");
                }
                assert_ne!(flips(0, round + 1), first, "{key:?} round {round}");
            }
            assert_ne!(
                cluster.process(0).coins(&key).local,
                cluster.process(1).coins(&key).local
            );
        }
    }

    #[test]
    fn ooc_table_is_bounded() {
        // Flood a stack with traffic for thousands of distinct uncreated
        // consensus instances: the OOC table must cap, not balloon — at
        // the flooder's share of it, a quarter of 4 096 queues.
        let mut cluster = crate::testing::Cluster::new(4, 40);
        let frame = |tag| {
            let mut w = Writer::new();
            InstanceKey::Bc { tag }.encode(&mut w);
            w.u8(0xff); // body irrelevant, parked raw
            w.freeze()
        };
        for tag in 0..6000u64 {
            let _ = cluster.stack_mut(0).handle_frame(1, frame(tag));
        }
        assert_eq!(cluster.stack_mut(0).ooc_len(), 1024);
        let dropped = cluster.stack_mut(0).ooc_dropped();
        assert_eq!(dropped, 6000 - 1024, "drops after exceeding the cap");
        // The flood evicted nobody else: consensus 7000 starts at the
        // correct peers first, everything they send process 0 is early,
        // is parked in full and replays into the decision.
        cluster.crash(1);
        for p in [2, 3, 0] {
            assert!(cluster.outputs(0).is_empty());
            let step = cluster.stack_mut(p).bc_propose(7000, true).unwrap();
            cluster.absorb(p, step);
            cluster.run();
            assert_eq!(cluster.stack_mut(0).ooc_len(), 1024 + usize::from(p != 0));
        }
        assert!(matches!(
            cluster.outputs(0),
            [Output::BcDecided { decision: true, .. }]
        ));
        // Destroying what the flooder parked gives it its share back.
        for tag in 0..1024 {
            cluster.stack_mut(0).destroy(InstanceKey::Bc { tag });
        }
        let _ = cluster.stack_mut(0).handle_frame(1, frame(9000));
        assert_eq!(cluster.stack_mut(0).ooc_len(), 1);
        assert_eq!(cluster.stack_mut(0).ooc_dropped(), dropped);
    }

    #[test]
    fn the_rejoin_hold_parks_every_peers_share_of_frames() {
        // Under the hold every peer's atomic-broadcast frames go to one
        // queue: each may park its share of the frame bound there (what
        // the whole queue could hold before shares existed), and a peer
        // that sends more loses only its own excess.
        let share = MAX_OOC_FRAMES / 4;
        let mut cluster = Cluster::new(4, 42);
        let (_, step) = cluster
            .stack_mut(1)
            .ab_broadcast(0, Bytes::from_static(b"held"));
        let frame = step.messages[0].message.clone();
        let stack = cluster.stack_mut(0);
        stack.set_ab_hold(true);
        for from in 1..4 {
            for _ in 0..share {
                assert!(stack.handle_frame(from, frame.clone()).is_empty());
            }
        }
        assert_eq!((stack.ooc_len(), stack.ooc_dropped()), (1, 0));
        assert_eq!(stack.metrics().stack_ooc_buffered.get(), 3 * share as u64);
        let _ = stack.handle_frame(1, frame.clone());
        let _ = stack.handle_frame(0, frame);
        assert_eq!(stack.ooc_dropped(), 1, "peer 1's excess, not process 0's");
        stack.destroy(InstanceKey::Ab { session: 0 });
        assert_eq!(stack.metrics().stack_ooc_buffered.get(), 0);
    }

    #[test]
    fn malformed_frame_faulted() {
        let mut cluster = Cluster::new(4, 19);
        let step = cluster
            .stack_mut(0)
            .handle_frame(1, Bytes::from_static(&[0xff, 0xff]));
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }

    /// A fault that surfaces in the step of a local request reaches the
    /// registry too, once: peer 2's malformed BC frame parks before the
    /// instance exists and is attributed to peer 2 when the proposal
    /// replays it.
    #[test]
    fn parked_malformed_frame_is_attributed_when_the_proposal_replays_it() {
        use crate::step::Fault;
        use ritas_metrics::SuspicionKind;
        let mut cluster = Cluster::new(4, 43);
        let mut w = Writer::new();
        InstanceKey::Bc { tag: 5 }.encode(&mut w);
        w.u8(0xff);
        let stack = cluster.stack_mut(0);
        assert!(stack.handle_frame(2, w.freeze()).is_empty(), "parked");
        assert!(stack.metrics().suspicions().is_empty());
        let step = stack.bc_propose(5, true).unwrap();
        assert_eq!(
            step.faults,
            vec![Fault {
                from: 2,
                kind: FaultKind::Malformed
            }]
        );
        let m = stack.metrics();
        assert_eq!(m.faults_detected.get(), 1);
        let suspicions = m.suspicions();
        assert_eq!(suspicions.len(), 1);
        assert_eq!(suspicions[0].peer, 2);
        assert_eq!(suspicions[0].count(SuspicionKind::Malformed), 1);
    }

    #[test]
    fn frame_from_stranger_rejected() {
        let mut cluster = Cluster::new(4, 20);
        let step = cluster
            .stack_mut(0)
            .handle_frame(9, Bytes::from_static(&[1]));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }

    #[test]
    fn tracing_off_leaves_no_span() {
        let mut cluster = Cluster::new(4, 30);
        for p in 0..4 {
            cluster.metrics(p).set_tracing(false);
        }
        for k in 0..200u32 {
            let p = k as usize % 4;
            let payload = Bytes::copy_from_slice(&k.to_be_bytes());
            let (_, step) = cluster.stack_mut(p).ab_broadcast(0, payload);
            cluster.absorb(p, step);
            if k % 8 == 7 {
                cluster.run();
            }
        }
        // The standalone layers too: every one of them created by the
        // local request at some processes and by a peer's frame (or out
        // of the OOC table) at the others.
        for p in 0..4 {
            let stack = cluster.stack_mut(p);
            let mut step = stack.rb_broadcast(Bytes::from_static(b"rb")).1;
            step.extend(stack.eb_broadcast(Bytes::from_static(b"eb")).1);
            step.extend(stack.bc_propose(1, p % 2 == 0).unwrap());
            step.extend(stack.mvc_propose(2, Bytes::from_static(b"mvc")).unwrap());
            step.extend(stack.vc_propose(3, Bytes::from_static(b"vc")).unwrap());
            cluster.absorb(p, step);
            cluster.run();
        }
        for p in 0..4 {
            let count = |wanted: fn(&Output) -> bool| {
                cluster.outputs(p).iter().filter(|o| wanted(o)).count()
            };
            let delivered = count(|o| matches!(o, Output::AbDelivered { .. }));
            assert_eq!(delivered, 200, "process {p}");
            assert_eq!(count(|o| matches!(o, Output::RbDelivered { .. })), 4);
            assert_eq!(count(|o| matches!(o, Output::EbDelivered { .. })), 4);
            assert_eq!(count(|o| matches!(o, Output::BcDecided { .. })), 1);
            assert_eq!(count(|o| matches!(o, Output::MvcDecided { .. })), 1);
            assert_eq!(count(|o| matches!(o, Output::VcDecided { .. })), 1);
            assert!(cluster.metrics(p).spans().is_empty(), "a span at {p}");
            assert_eq!(cluster.metrics(p).span_orphan_closed.get(), 0);
        }
    }

    /// The perfbench segment pattern: one live session, tracing switched
    /// per segment. What the session creates while tracing is on is
    /// recorded, whenever the session itself was created.
    #[test]
    fn tracing_switched_on_after_session_creation_records_later_batches_and_rounds() {
        let mut cluster = Cluster::new(4, 32);
        let broadcast = |cluster: &mut Cluster, payload: &'static [u8]| {
            let (_, step) = cluster
                .stack_mut(0)
                .ab_broadcast(0, Bytes::from_static(payload));
            cluster.absorb(0, step);
            cluster.run();
        };
        for p in 0..4 {
            cluster.metrics(p).set_tracing(false);
        }
        broadcast(&mut cluster, b"dark");
        for p in 0..4 {
            assert!(cluster.metrics(p).spans().is_empty(), "a span at {p}");
            cluster.metrics(p).set_tracing(true);
        }
        broadcast(&mut cluster, b"lit");
        for p in 0..4 {
            let spans = cluster.metrics(p).spans();
            let vect = format!("ab:0/r:1/vect:{p}");
            for path in ["m:0:1", "b:0:1", "b:0:1/rb", "r:1", "r:1/mvc", "r:1/mvc/bc"]
                .map(|below| format!("ab:0/{below}"))
                .iter()
                .chain([&vect])
            {
                let span = spans.iter().find(|s| s.path == *path);
                assert!(span.is_some_and(|s| s.close.is_some()), "{path} at {p}");
            }
            // The session span itself was due while tracing was off, and
            // nothing of the first command's batch or round shows up.
            assert!(spans
                .iter()
                .all(|s| s.path != "ab:0" && !s.path.contains("b:0:0") && !s.path.contains("r:0")));
            assert_eq!(cluster.metrics(p).span_orphan_closed.get(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "set_metrics on a stack that holds instances")]
    fn set_metrics_is_refused_once_an_instance_exists() {
        let mut cluster = Cluster::new(4, 33);
        let _ = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"m"));
        cluster.stack_mut(0).set_metrics(Metrics::new());
    }

    #[test]
    fn set_metrics_on_a_fresh_stack_rewires_every_later_instance() {
        let mut cluster = Cluster::new(4, 34);
        let metrics = Metrics::new();
        let before = cluster.metrics(0).clone();
        cluster.stack_mut(0).set_metrics(metrics.clone());
        let (_, step) = cluster.stack_mut(0).rb_broadcast(Bytes::from_static(b"m"));
        cluster.absorb(0, step);
        let (_, step) = cluster.stack_mut(1).rb_broadcast(Bytes::from_static(b"m"));
        cluster.absorb(1, step);
        cluster.run();
        // Two broadcasts: 2 INITs, 8 ECHOs and 8 READYs reach process 0,
        // all counted by the stack and by instances it created itself
        // (its own broadcast) or on a peer's first frame (process 1's).
        assert_eq!(metrics.stack_frames_in.get(), 18);
        assert_eq!(metrics.stack_instances.get(), 2);
        assert_eq!(metrics.rb_init_recv.get(), 2);
        assert_eq!(metrics.rb_echo_recv.get(), 8);
        assert_eq!(metrics.rb_ready_recv.get(), 8);
        assert_eq!(metrics.rb_delivered.get(), 2);
        assert!(metrics.spans().iter().any(|s| s.path == "rb:1:0"));
        let old = before.snapshot();
        assert_eq!(old.counters["stack_frames_in"], 0);
        assert_eq!(old.counters["rb_init_recv"], 0);
        assert!(old.spans.is_empty());
    }

    #[test]
    fn tracing_on_records_the_spans_and_critical_path_it_always_did() {
        // One command a-broadcast by process 0 under the FIFO schedule,
        // the registries' clocks stepping 1 µs per delivered frame. The
        // expectation is what the code recorded before span paths were
        // built only while tracing is on.
        let mut cluster = Cluster::new(4, 31);
        cluster.set_schedule(crate::testing::Schedule::Fifo);
        let (_, step) = cluster
            .stack_mut(0)
            .ab_broadcast(0, Bytes::from_static(b"traced"));
        cluster.absorb(0, step);
        loop {
            let now = cluster.delivered_frames() * 1_000;
            for p in 0..4 {
                cluster.metrics(p).set_time(now);
            }
            if !cluster.step() {
                break;
            }
        }
        let spans = cluster.metrics(0).spans();
        let mut rows: Vec<(&str, u64, Option<u64>)> = spans
            .iter()
            .map(|s| (s.path.as_str(), s.open, s.close))
            .collect();
        rows.sort();
        let us = |t: u64| Some(t * 1_000);
        assert_eq!(
            rows,
            [
                ("ab:0", 0, None),
                ("ab:0/b:0:0", 0, us(796)),
                ("ab:0/b:0:0/rb", 0, us(28)),
                ("ab:0/m:0:0", 0, us(796)),
                ("ab:0/m:0:0/queue", 0, us(0)),
                ("ab:0/m:0:0/rb", 0, us(28)),
                ("ab:0/r:0", 28_000, us(796)),
                ("ab:0/r:0/mvc", 156_000, us(796)),
                ("ab:0/r:0/mvc/bc", 156_000, us(796)),
                ("ab:0/r:0/mvc/init:0", 156_000, us(268)),
                ("ab:0/r:0/mvc/init:1", 156_000, us(284)),
                ("ab:0/r:0/mvc/init:2", 156_000, us(300)),
                ("ab:0/r:0/mvc/init:3", 156_000, us(316)),
                ("ab:0/r:0/mvc/vect:0", 300_000, us(356)),
                ("ab:0/r:0/mvc/vect:1", 328_000, us(364)),
                ("ab:0/r:0/mvc/vect:2", 332_000, us(372)),
                ("ab:0/r:0/mvc/vect:3", 336_000, us(380)),
                ("ab:0/r:0/vect:0", 28_000, us(124)),
                ("ab:0/r:0/vect:1", 40_000, us(140)),
                ("ab:0/r:0/vect:2", 44_000, us(156)),
                ("ab:0/r:0/vect:3", 48_000, us(172)),
            ]
        );
        assert_eq!(
            ritas_metrics::critical_paths(&spans),
            [ritas_metrics::CriticalPath {
                path: "ab:0/m:0:0".to_string(),
                total_ns: 796_000,
                segments: vec![
                    ("queue", 0),
                    ("rb", 28_000),
                    ("wait", 0),
                    ("vect", 128_000),
                    ("mvc", 0),
                    ("bc", 640_000),
                    ("mvc-decide", 0),
                    ("conclude", 0),
                    ("deliver", 0),
                ],
            }]
        );
        assert_eq!(cluster.metrics(0).span_orphan_closed.get(), 0);
    }
}
