//! Reliable broadcast — Bracha's protocol (paper §2.2).
//!
//! Properties: (1) all correct processes deliver the same messages;
//! (2) if the sender is correct the message is delivered. The protocol is
//! the classic three-step `INIT → ECHO → READY` pattern:
//!
//! 1. the sender broadcasts `(INIT, m)`;
//! 2. on `INIT`, a process broadcasts `(ECHO, m)`;
//! 3. on `⌊(n+f)/2⌋+1` `ECHO`s *or* `f+1` `READY`s for the same `m`, a
//!    process broadcasts `(READY, m)` (once);
//! 4. on `2f+1` `READY`s for the same `m`, it delivers `m`.
//!
//! The stack's [`Profile`] decides what a `READY` carries. `paper` sends
//! `m` itself, as Bracha's protocol and the paper do. `lean` sends
//! `h = SHA-256(m)` ([`RbMessage::ReadyDigest`]) and delivers on `2f+1`
//! `READY(h)` once it also holds, from an accepted `INIT` or `ECHO`, a
//! payload that hashes to `h` — waiting for one if the quorum comes
//! first. At n = 4 that is 15 wire copies of `m` per broadcast instead of
//! 27. A correct process names `h` only after an echo quorum for `m` or
//! after `f+1` `READY(h)`, so behind any `READY(h)` quorum stand at least
//! `f+1` correct processes that echoed `m` to everyone; collision
//! resistance makes `h` name one payload (DESIGN.md §3).
//!
//! In the `INIT` and `ECHO` slots "the same `m`" is byte equality: an
//! instance keeps the distinct payloads it has accepted in one small table
//! (at most one entry per `INIT`, `ECHO` and `READY` slot, so ≤ 2n + 1)
//! and every slot holds an index into it. Comparing lengths and then bytes
//! costs less than one hash compression for any payload, and nothing here
//! is secret — payloads are what the protocol publishes — so the
//! comparison need not be constant-time. In `lean` a `READY` slot names
//! its entry by digest instead (a digest-only entry until an accepted
//! payload hashes to it), and each entry is hashed at most once, when its
//! digest is first needed: to send this process's own `READY`, or to
//! match a `READY(h)` received.
//!
//! One [`ReliableBroadcast`] value is the state of a single instance —
//! one broadcast by one designated sender. Higher protocols create one
//! instance per message they reliably broadcast (control block chaining,
//! §3.3).

use crate::bc::Profile;
use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::{Digest, Sha256};
use ritas_metrics::SpanAnnotation;

/// The SHA-256 of a payload, as a `lean` `READY` carries it. SHA-256 and
/// not SHA-1: a collision pair would let a Byzantine sender make correct
/// processes deliver different payloads under one digest.
pub type PayloadDigest = [u8; 32];

/// Messages of the reliable broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbMessage {
    /// The sender's initial transmission of `m`.
    Init(Bytes),
    /// A process echoing `m`.
    Echo(Bytes),
    /// A process asserting it will deliver `m` ([`Profile::Paper`]).
    Ready(Bytes),
    /// A process asserting it will deliver the payload with this digest
    /// ([`Profile::Lean`]).
    ReadyDigest(PayloadDigest),
}

impl RbMessage {
    /// The payload carried by the message; `None` for a digest `READY`.
    pub fn payload(&self) -> Option<&Bytes> {
        match self {
            RbMessage::Init(m) | RbMessage::Echo(m) | RbMessage::Ready(m) => Some(m),
            RbMessage::ReadyDigest(_) => None,
        }
    }
}

const TAG_INIT: u8 = 1;
const TAG_ECHO: u8 = 2;
const TAG_READY: u8 = 3;
const TAG_READY_DIGEST: u8 = 4;

impl WireMessage for RbMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            RbMessage::Init(m) => w.u8(TAG_INIT).bytes(m),
            RbMessage::Echo(m) => w.u8(TAG_ECHO).bytes(m),
            RbMessage::Ready(m) => w.u8(TAG_READY).bytes(m),
            RbMessage::ReadyDigest(h) => w.u8(TAG_READY_DIGEST).bytes(h),
        };
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("rb.tag")?;
        let m = r.bytes("rb.payload")?;
        match tag {
            TAG_INIT => Ok(RbMessage::Init(m)),
            TAG_ECHO => Ok(RbMessage::Echo(m)),
            TAG_READY => Ok(RbMessage::Ready(m)),
            TAG_READY_DIGEST => {
                m[..]
                    .try_into()
                    .map(RbMessage::ReadyDigest)
                    .map_err(|_| WireError::BadLength {
                        what: "rb.digest",
                        len: m.len(),
                    })
            }
            t => Err(WireError::InvalidTag {
                what: "rb.tag",
                tag: t,
            }),
        }
    }
}

/// The step type produced by a reliable broadcast instance: outgoing
/// [`RbMessage`]s plus, at most once, the delivered payload.
pub type RbStep = Step<RbMessage, Bytes>;

/// One entry of an instance's table: a distinct payload it accepted or
/// — `lean` only — a digest a `READY` named before any accepted `INIT`
/// or `ECHO` carried a payload that hashes to it.
#[derive(Debug, Clone)]
struct Entry {
    /// `None` while the entry is a digest only; the first accepted
    /// payload with that digest fills it.
    bytes: Option<Bytes>,
    /// The first process whose accepted `INIT`/`ECHO` carried it (the
    /// endpoint named when a split is reported; `None` while only
    /// `READY`s did).
    holder: Option<ProcessId>,
    /// Its SHA-256 (`lean`): named by a `READY`, or hashed on first use.
    digest: Option<PayloadDigest>,
}

/// State of one reliable broadcast instance.
///
/// # Example
///
/// Three correct processes plus one silent one (`n = 4`, `f = 1`): driving
/// the message flow by hand delivers the payload at a receiver.
///
/// ```
/// use ritas::bc::Profile;
/// use ritas::rb::{ReliableBroadcast, RbMessage};
/// use ritas::testing::ctx;
/// use bytes::Bytes;
///
/// let mut sender = ReliableBroadcast::new(ctx(4, 0, 7), Profile::Paper, 0);
/// let mut receiver = ReliableBroadcast::new(ctx(4, 1, 7), Profile::Paper, 0);
///
/// let m = Bytes::from_static(b"hello");
/// let init = sender.broadcast(m.clone())?;
/// // Receiver gets INIT, echoes; then enough ECHOs and READYs arrive.
/// let _ = receiver.handle_message(0, RbMessage::Init(m.clone()));
/// for p in 0..3 {
///     let _ = receiver.handle_message(p, RbMessage::Echo(m.clone()));
/// }
/// let mut delivered = None;
/// for p in 0..3 {
///     let step = receiver.handle_message(p, RbMessage::Ready(m.clone()));
///     delivered = step.outputs.into_iter().next().or(delivered);
/// }
/// assert_eq!(delivered.as_deref(), Some(&b"hello"[..]));
/// # drop(init);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ReliableBroadcast {
    ctx: Ctx,
    profile: Profile,
    sender: ProcessId,
    sent_init: bool,
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
    /// The distinct payloads (and, in `lean`, `READY` digests) accepted
    /// so far. One entry per slot below at most: ≤ 2n + 1.
    entries: Vec<Entry>,
    /// Index into `entries` of what each process echoed (one `ECHO`
    /// counted per process).
    echoes: Vec<Option<usize>>,
    /// Index of what each process `READY`ed.
    readies: Vec<Option<usize>>,
    /// Index of the sender's `INIT`, to flag equivocation.
    init: Option<usize>,
    /// Whether a value split (two distinct payloads among the INIT and
    /// the echoes) was already reported for this instance.
    split_reported: bool,
}

impl ReliableBroadcast {
    /// Creates the instance of `profile` for a broadcast by `sender`, as
    /// seen by the process of `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the group.
    pub fn new(ctx: Ctx, profile: Profile, sender: ProcessId) -> Self {
        assert!(ctx.group.contains(sender), "sender out of group");
        let n = ctx.group.n();
        ReliableBroadcast {
            ctx,
            profile,
            sender,
            sent_init: false,
            sent_echo: false,
            sent_ready: false,
            delivered: false,
            // A failure-free instance only ever holds one entry.
            entries: Vec::with_capacity(1),
            echoes: vec![None; n],
            readies: vec![None; n],
            init: None,
            split_reported: false,
        }
    }

    /// The designated sender of this instance.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// Whether this instance has delivered its payload.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Starts the broadcast (sender only): emits `(INIT, m)`.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotSender`] if `me` is not the designated sender;
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn broadcast(&mut self, payload: Bytes) -> Result<RbStep, ProtocolError> {
        if self.ctx.me != self.sender {
            return Err(ProtocolError::NotSender {
                me: self.ctx.me,
                sender: self.sender,
            });
        }
        if self.sent_init {
            return Err(ProtocolError::AlreadyStarted);
        }
        self.sent_init = true;
        Ok(Step::broadcast(RbMessage::Init(payload)))
    }

    /// The table index of `payload`, entered on first sight. `holder` is
    /// the process whose accepted `INIT`/`ECHO` carries it (`None` for a
    /// `READY`); the first one sticks. A new payload that hashes to a
    /// digest only a `READY` named so far fills that entry.
    fn intern(&mut self, payload: &Bytes, holder: Option<ProcessId>) -> usize {
        let i = match self
            .entries
            .iter()
            .position(|e| e.bytes.as_ref() == Some(payload))
        {
            Some(i) => i,
            None => {
                let digest = self
                    .entries
                    .iter()
                    .any(|e| e.bytes.is_none())
                    .then(|| Sha256::digest(payload));
                let named = digest.and_then(|h| {
                    self.entries
                        .iter()
                        .position(|e| e.bytes.is_none() && e.digest == Some(h))
                });
                match named {
                    Some(i) => {
                        self.entries[i].bytes = Some(payload.clone());
                        i
                    }
                    None => {
                        self.entries.push(Entry {
                            bytes: Some(payload.clone()),
                            holder: None,
                            digest,
                        });
                        self.entries.len() - 1
                    }
                }
            }
        };
        let first = &mut self.entries[i].holder;
        *first = first.or(holder);
        i
    }

    /// The table index of digest `h` (`lean`), hashing held payloads not
    /// hashed before until one matches, or a new digest-only entry.
    fn intern_digest(&mut self, h: PayloadDigest) -> usize {
        match (0..self.entries.len()).find(|&i| self.digest(i) == h) {
            Some(i) => i,
            None => {
                self.entries.push(Entry {
                    bytes: None,
                    holder: None,
                    digest: Some(h),
                });
                self.entries.len() - 1
            }
        }
    }

    /// The digest of entry `i`, hashed on first use.
    fn digest(&mut self, i: usize) -> PayloadDigest {
        let e = &mut self.entries[i];
        match (e.digest, &e.bytes) {
            (Some(h), _) => h,
            (None, Some(m)) => *e.digest.insert(Sha256::digest(m)),
            (None, None) => unreachable!("an entry holds a payload or a digest"),
        }
    }

    /// What a second message from `from` makes of a slot already filled:
    /// nothing if it repeats the first (`same`), equivocation if it
    /// differs — and a differing message is *not* stored.
    fn repeated(from: ProcessId, same: bool) -> RbStep {
        if same {
            Step::none()
        } else {
            Step::fault(from, FaultKind::Equivocation)
        }
    }

    fn count(slots: &[Option<usize>], i: usize) -> usize {
        slots.iter().filter(|s| **s == Some(i)).count()
    }

    /// Reports a value split — two distinct payloads among the `INIT` and
    /// the accepted echoes — once per instance. A correct sender induces
    /// a single payload at every correct process, so a split is hard
    /// evidence of misbehaviour even when every individual message is
    /// well-formed (the per-slot checks only catch a process
    /// contradicting *itself*). A receiver cannot tell a two-faced sender
    /// from a lying relay, so the fault names the smallest set certain to
    /// contain the culprit: the sender plus the first holder of each
    /// conflicting payload. Attribution is evidence of conflict, not proof
    /// of guilt — but in failure-free runs no split ever occurs.
    fn report_split(&mut self, step: &mut RbStep) {
        if self.split_reported {
            return;
        }
        let mut held = self
            .init
            .into_iter()
            .chain(self.echoes.iter().flatten().copied());
        let Some(a) = held.next() else {
            return;
        };
        let Some(b) = held.find(|i| *i != a) else {
            return;
        };
        self.split_reported = true;
        let mut suspects = vec![self.sender];
        for h in [a, b].into_iter().filter_map(|i| self.entries[i].holder) {
            if !suspects.contains(&h) {
                suspects.push(h);
            }
        }
        for s in suspects {
            step.push_fault(s, FaultKind::Equivocation);
        }
    }

    /// Handles a protocol message from `from`.
    ///
    /// Messages from corrupt processes (duplicate, equivocating,
    /// not-entitled) are ignored and reported as faults on the step; so
    /// is a `READY` of the other profile's form ([`FaultKind::Malformed`]).
    pub fn handle_message(&mut self, from: ProcessId, message: RbMessage) -> RbStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        match (message, self.profile) {
            (RbMessage::Init(m), _) => {
                self.ctx.metrics.rb_init_recv.inc();
                self.on_init(from, m)
            }
            (RbMessage::Echo(m), _) => {
                self.ctx.metrics.rb_echo_recv.inc();
                self.on_echo(from, m)
            }
            (RbMessage::Ready(m), Profile::Paper) => {
                self.ctx.metrics.rb_ready_recv.inc();
                if let Some(prev) = self.readies[from] {
                    return Self::repeated(from, self.entries[prev].bytes.as_ref() == Some(&m));
                }
                let i = self.intern(&m, None);
                self.on_ready(from, i, RbMessage::Ready(m))
            }
            (RbMessage::ReadyDigest(h), Profile::Lean) => {
                self.ctx.metrics.rb_ready_recv.inc();
                if let Some(prev) = self.readies[from] {
                    return Self::repeated(from, self.entries[prev].digest == Some(h));
                }
                let i = self.intern_digest(h);
                self.on_ready(from, i, RbMessage::ReadyDigest(h))
            }
            (RbMessage::Ready(_), Profile::Lean) | (RbMessage::ReadyDigest(_), Profile::Paper) => {
                Step::fault(from, FaultKind::Malformed)
            }
        }
    }

    fn on_init(&mut self, from: ProcessId, m: Bytes) -> RbStep {
        if from != self.sender {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if let Some(prev) = self.init {
            return Self::repeated(from, self.entries[prev].bytes.as_ref() == Some(&m));
        }
        let i = self.intern(&m, Some(from));
        self.init = Some(i);
        let mut step = Step::none();
        self.report_split(&mut step);
        self.deliver_if_ready(i, &mut step);
        if !self.sent_echo {
            self.sent_echo = true;
            step.push_broadcast(RbMessage::Echo(m));
        }
        step
    }

    fn on_echo(&mut self, from: ProcessId, m: Bytes) -> RbStep {
        if let Some(prev) = self.echoes[from] {
            return Self::repeated(from, self.entries[prev].bytes.as_ref() == Some(&m));
        }
        let i = self.intern(&m, Some(from));
        self.echoes[from] = Some(i);
        let mut step = Step::none();
        self.report_split(&mut step);
        if !self.sent_ready && Self::count(&self.echoes, i) >= self.ctx.group.echo_threshold() {
            self.sent_ready = true;
            // `from` closed the echo quorum — the last-arriving process
            // on this step of the critical path (cluster forensics).
            self.ctx.annotate(SpanAnnotation::QuorumMet, from as u64);
            step.push_broadcast(match self.profile {
                Profile::Paper => RbMessage::Ready(m),
                Profile::Lean => RbMessage::ReadyDigest(self.digest(i)),
            });
        }
        self.deliver_if_ready(i, &mut step);
        step
    }

    /// Enters `from`'s `READY` for entry `i`, sending `ready` on `f+1` and
    /// delivering on `2f+1` once entry `i` holds its payload.
    fn on_ready(&mut self, from: ProcessId, i: usize, ready: RbMessage) -> RbStep {
        self.readies[from] = Some(i);
        let mut step = Step::none();
        let count = Self::count(&self.readies, i);
        if !self.sent_ready && count >= self.ctx.group.one_correct() {
            self.sent_ready = true;
            step.push_broadcast(ready);
        }
        if count == self.ctx.group.byzantine_majority() {
            // `from` closed the 2f+1 READY quorum that gates delivery.
            self.ctx.annotate(SpanAnnotation::QuorumMet, from as u64);
        }
        self.deliver_if_ready(i, &mut step);
        step
    }

    /// Delivers entry `i` if `2f+1` `READY`s name it and it holds its
    /// payload (`lean` can have the quorum first and wait).
    fn deliver_if_ready(&mut self, i: usize, step: &mut RbStep) {
        if self.delivered || Self::count(&self.readies, i) < self.ctx.group.byzantine_majority() {
            return;
        }
        if let Some(m) = self.entries[i].bytes.clone() {
            self.delivered = true;
            self.ctx.metrics.rb_delivered.inc();
            self.ctx.close();
            step.push_output(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Group;
    use crate::testing::{broadcast_runs, ctx};

    fn payload(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn digest(s: &str) -> PayloadDigest {
        Sha256::digest(s.as_bytes())
    }

    /// A `lean` instance at process `me` of four, for a broadcast by 0.
    fn lean(me: ProcessId) -> ReliableBroadcast {
        ReliableBroadcast::new(ctx(4, me, 1), Profile::Lean, 0)
    }

    /// `sender` broadcasts `m` in a `profile` group of `n` (minus the
    /// `crashed`), under every schedule; returns each run's per-process
    /// delivery.
    fn broadcast_and_run(
        profile: Profile,
        n: usize,
        sender: ProcessId,
        crashed: &[ProcessId],
        m: &str,
    ) -> Vec<Vec<Option<Bytes>>> {
        let group = || {
            (0..n)
                .map(|me| ReliableBroadcast::new(ctx(n, me, 1), profile, sender))
                .collect()
        };
        broadcast_runs(group, crashed, sender, |rb| {
            rb.broadcast(payload(m)).unwrap()
        })
    }

    #[test]
    fn message_codec_roundtrip() {
        for msg in [
            RbMessage::Init(payload("a")),
            RbMessage::Echo(payload("")),
            RbMessage::Ready(payload("xyz")),
            RbMessage::ReadyDigest([0xA5; 32]),
        ] {
            assert_eq!(RbMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn digest_ready_of_any_other_length_is_a_wire_error() {
        for len in [0, 31, 33] {
            let mut w = Writer::new();
            w.u8(TAG_READY_DIGEST).bytes(&vec![7; len]);
            assert_eq!(
                RbMessage::from_bytes(&w.freeze()),
                Err(WireError::BadLength {
                    what: "rb.digest",
                    len
                })
            );
        }
    }

    #[test]
    fn codec_rejects_bad_tag() {
        let mut w = Writer::new();
        w.u8(9).bytes(b"m");
        assert!(matches!(
            RbMessage::from_bytes(&w.freeze()),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn all_correct_deliver_senders_payload() {
        for profile in [Profile::Paper, Profile::Lean] {
            for delivered in broadcast_and_run(profile, 4, 0, &[], "m") {
                assert_eq!(delivered, vec![Some(payload("m")); 4], "{profile}");
            }
        }
    }

    #[test]
    fn delivery_with_one_silent_process() {
        // Process 3 never participates (crash): the other three still
        // deliver (n=4, f=1: echo threshold 3, ready threshold 3).
        for profile in [Profile::Paper, Profile::Lean] {
            for delivered in broadcast_and_run(profile, 4, 0, &[3], "m") {
                assert_eq!(delivered[..3], vec![Some(payload("m")); 3], "{profile}");
                assert_eq!(delivered[3], None);
            }
        }
    }

    #[test]
    fn non_sender_cannot_broadcast() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        assert_eq!(
            rb.broadcast(payload("m")).unwrap_err(),
            ProtocolError::NotSender { me: 1, sender: 0 }
        );
    }

    #[test]
    fn double_broadcast_rejected() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), Profile::Paper, 0);
        let _ = rb.broadcast(payload("m")).unwrap();
        assert_eq!(
            rb.broadcast(payload("m")).unwrap_err(),
            ProtocolError::AlreadyStarted
        );
    }

    #[test]
    fn init_from_non_sender_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let step = rb.handle_message(2, RbMessage::Init(payload("evil")));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
        assert!(step.messages.is_empty());
    }

    #[test]
    fn equivocating_init_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let _ = rb.handle_message(0, RbMessage::Init(payload("a")));
        let step = rb.handle_message(0, RbMessage::Init(payload("b")));
        assert_eq!(step.faults[0].kind, FaultKind::Equivocation);
    }

    #[test]
    fn duplicate_init_ignored_silently() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let _ = rb.handle_message(0, RbMessage::Init(payload("a")));
        let step = rb.handle_message(0, RbMessage::Init(payload("a")));
        assert!(step.is_empty());
    }

    #[test]
    fn echo_counted_once_per_process() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        // Three echoes from the SAME process must not reach the threshold.
        for _ in 0..3 {
            let step = rb.handle_message(2, RbMessage::Echo(payload("m")));
            assert!(step.messages.is_empty());
        }
        // Echo threshold is 3 distinct processes for n=4.
        let _ = rb.handle_message(0, RbMessage::Echo(payload("m")));
        let step = rb.handle_message(3, RbMessage::Echo(payload("m")));
        assert!(matches!(step.messages[0].message, RbMessage::Ready(_)));
    }

    #[test]
    fn equivocating_echo_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let _ = rb.handle_message(2, RbMessage::Echo(payload("a")));
        let step = rb.handle_message(2, RbMessage::Echo(payload("b")));
        assert_eq!(step.faults[0].kind, FaultKind::Equivocation);
    }

    #[test]
    fn value_split_names_sender_and_conflict_endpoints_once() {
        // A sender that INITs "a" to some processes and "b" to others is
        // invisible to per-slot checks (each echoer is self-consistent),
        // but the conflicting echoes expose the split. The fault names
        // the sender plus the first holder of each conflicting digest,
        // exactly once per instance.
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let s0 = rb.handle_message(2, RbMessage::Echo(payload("a")));
        assert!(s0.faults.is_empty());
        let s1 = rb.handle_message(3, RbMessage::Echo(payload("b")));
        let suspects: Vec<ProcessId> = s1.faults.iter().map(|f| f.from).collect();
        assert_eq!(suspects, vec![0, 2, 3]);
        assert!(s1.faults.iter().all(|f| f.kind == FaultKind::Equivocation));
        // Further conflicting evidence does not re-report.
        let s2 = rb.handle_message(0, RbMessage::Echo(payload("c")));
        assert!(s2.faults.is_empty());
    }

    #[test]
    fn init_conflicting_with_echo_is_a_split() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let _ = rb.handle_message(2, RbMessage::Echo(payload("a")));
        let step = rb.handle_message(0, RbMessage::Init(payload("b")));
        // Suspects: sender 0 (holds "b" via its INIT) and echoer 2
        // (first holder of "a").
        let suspects: Vec<ProcessId> = step.faults.iter().map(|f| f.from).collect();
        assert_eq!(suspects, vec![0, 2]);
        assert!(step
            .faults
            .iter()
            .all(|f| f.kind == FaultKind::Equivocation));
        // The INIT still triggers our own echo despite the report.
        assert!(matches!(step.messages[0].message, RbMessage::Echo(_)));
    }

    #[test]
    fn ready_amplification_from_f_plus_1_readies() {
        // A process that saw no INIT/ECHO still sends READY after f+1
        // READYs, and delivers after 2f+1.
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let s1 = rb.handle_message(2, RbMessage::Ready(payload("m")));
        assert!(s1.messages.is_empty());
        let s2 = rb.handle_message(3, RbMessage::Ready(payload("m")));
        assert!(matches!(s2.messages[0].message, RbMessage::Ready(_)));
        assert!(s2.outputs.is_empty());
        let s3 = rb.handle_message(0, RbMessage::Ready(payload("m")));
        assert_eq!(s3.outputs, vec![payload("m")]);
        assert!(rb.is_delivered());
    }

    #[test]
    fn delivery_happens_once() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), Profile::Paper, 0);
        for p in 1..4 {
            let _ = rb.handle_message(p, RbMessage::Ready(payload("m")));
        }
        assert!(rb.is_delivered());
        // A fourth ready (own) must not deliver again.
        let step = rb.handle_message(0, RbMessage::Ready(payload("m")));
        assert!(step.outputs.is_empty());
    }

    #[test]
    fn mixed_payload_readies_do_not_deliver() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), Profile::Paper, 0);
        let _ = rb.handle_message(1, RbMessage::Ready(payload("a")));
        let _ = rb.handle_message(2, RbMessage::Ready(payload("b")));
        let step = rb.handle_message(3, RbMessage::Ready(payload("c")));
        assert!(step.outputs.is_empty());
        assert!(!rb.is_delivered());
    }

    #[test]
    fn out_of_group_sender_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), Profile::Paper, 0);
        let step = rb.handle_message(7, RbMessage::Echo(payload("m")));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }

    #[test]
    fn larger_group_delivers() {
        for profile in [Profile::Paper, Profile::Lean] {
            for delivered in broadcast_and_run(profile, 7, 3, &[], "wide") {
                assert_eq!(delivered, vec![Some(payload("wide")); 7], "{profile}");
            }
        }
    }

    #[test]
    fn lean_ready_quorum_waits_for_a_payload_that_hashes_to_it() {
        let mut rb = lean(1);
        // f + 1 READY(h) amplify (as a digest), 2f + 1 do not deliver
        // while no payload is held.
        let _ = rb.handle_message(2, RbMessage::ReadyDigest(digest("m")));
        let amplified = rb.handle_message(3, RbMessage::ReadyDigest(digest("m")));
        assert_eq!(
            amplified.messages[0].message,
            RbMessage::ReadyDigest(digest("m"))
        );
        let quorum = rb.handle_message(0, RbMessage::ReadyDigest(digest("m")));
        assert!(quorum.outputs.is_empty());
        assert!(!rb.is_delivered());
        // The first ECHO that carries m delivers it.
        let step = rb.handle_message(2, RbMessage::Echo(payload("m")));
        assert_eq!(step.outputs, vec![payload("m")]);
        assert!(rb.is_delivered());
        // So would the INIT have; nothing delivers twice.
        let step = rb.handle_message(0, RbMessage::Init(payload("m")));
        assert!(step.outputs.is_empty());
    }

    #[test]
    fn lean_never_delivers_a_payload_of_another_digest() {
        let mut rb = lean(1);
        for p in [0, 2, 3] {
            let _ = rb.handle_message(p, RbMessage::ReadyDigest(digest("m")));
        }
        let mut outputs = Vec::new();
        outputs.extend(rb.handle_message(0, RbMessage::Init(payload("x"))).outputs);
        for p in 0..4 {
            outputs.extend(rb.handle_message(p, RbMessage::Echo(payload("x"))).outputs);
        }
        assert!(outputs.is_empty());
        assert!(!rb.is_delivered());
        // "x" was hashed once, to be matched, and cached beside the
        // digest-only entry of "m".
        assert_eq!(rb.entries.len(), 2);
        assert_eq!(rb.entries[1].digest, Some(digest("x")));
    }

    #[test]
    fn lean_hashes_a_payload_only_when_it_needs_the_digest() {
        let mut rb = lean(1);
        let _ = rb.handle_message(0, RbMessage::Init(payload("m")));
        let _ = rb.handle_message(0, RbMessage::Echo(payload("m")));
        let _ = rb.handle_message(2, RbMessage::Echo(payload("m")));
        assert_eq!(rb.entries[0].digest, None, "no quorum yet, no hash");
        // The echo quorum: its own READY carries the digest.
        let step = rb.handle_message(3, RbMessage::Echo(payload("m")));
        assert_eq!(
            step.messages[0].message,
            RbMessage::ReadyDigest(digest("m"))
        );
        assert_eq!(rb.entries[0].digest, Some(digest("m")));
    }

    #[test]
    fn a_ready_of_the_other_profile_is_malformed() {
        let mut paper = ReliableBroadcast::new(ctx(4, 1, 1), Profile::Paper, 0);
        let mut lean = lean(1);
        for (rb, foreign, own) in [
            (
                &mut paper,
                RbMessage::ReadyDigest(digest("m")),
                RbMessage::Ready(payload("m")),
            ),
            (
                &mut lean,
                RbMessage::Ready(payload("m")),
                RbMessage::ReadyDigest(digest("m")),
            ),
        ] {
            let step = rb.handle_message(2, foreign);
            assert_eq!(step, Step::fault(2, FaultKind::Malformed));
            // The foreign READY filled no slot: the real one counts.
            let _ = rb.handle_message(3, own.clone());
            let step = rb.handle_message(2, own);
            assert!(step.faults.is_empty());
            assert!(!step.messages.is_empty(), "f + 1 READYs amplify");
        }
    }

    /// The bookkeeping this module had before payload identity became
    /// byte equality — payloads known by their SHA-256 digest, slots and
    /// first holders keyed by it — kept as the oracle the table-based
    /// instance is compared with.
    struct DigestKeyed {
        group: Group,
        sender: ProcessId,
        sent_echo: bool,
        sent_ready: bool,
        delivered: bool,
        echoes: Vec<Option<[u8; 32]>>,
        readies: Vec<Option<[u8; 32]>>,
        init_digest: Option<[u8; 32]>,
        split_reported: bool,
        first_holder: std::collections::HashMap<[u8; 32], ProcessId>,
    }

    impl DigestKeyed {
        fn new(group: Group, sender: ProcessId) -> Self {
            DigestKeyed {
                group,
                sender,
                sent_echo: false,
                sent_ready: false,
                delivered: false,
                echoes: vec![None; group.n()],
                readies: vec![None; group.n()],
                init_digest: None,
                split_reported: false,
                first_holder: std::collections::HashMap::new(),
            }
        }

        fn digest(m: &Bytes) -> [u8; 32] {
            use ritas_crypto::Digest;
            ritas_crypto::Sha256::digest(m)
        }

        fn count(slots: &[Option<[u8; 32]>], d: &[u8; 32]) -> usize {
            slots.iter().filter(|s| s.as_ref() == Some(d)).count()
        }

        fn report_split(&mut self, step: &mut RbStep) {
            if self.split_reported {
                return;
            }
            let mut seen: Vec<[u8; 32]> = Vec::new();
            for d in self.init_digest.iter().chain(self.echoes.iter().flatten()) {
                if !seen.contains(d) {
                    seen.push(*d);
                }
                if seen.len() == 2 {
                    break;
                }
            }
            let &[a, b] = seen.as_slice() else {
                return;
            };
            self.split_reported = true;
            let mut suspects = vec![self.sender];
            for d in [a, b] {
                if let Some(&h) = self.first_holder.get(&d) {
                    if !suspects.contains(&h) {
                        suspects.push(h);
                    }
                }
            }
            for s in suspects {
                step.push_fault(s, FaultKind::Equivocation);
            }
        }

        fn handle_message(&mut self, from: ProcessId, message: RbMessage) -> RbStep {
            if !self.group.contains(from) {
                return Step::fault(from, FaultKind::NotEntitled);
            }
            let Some(payload) = message.payload() else {
                unreachable!("the reference speaks paper only")
            };
            let d = Self::digest(payload);
            let slot = match &message {
                RbMessage::Init(_) if from != self.sender => {
                    return Step::fault(from, FaultKind::NotEntitled)
                }
                RbMessage::Init(_) => &mut self.init_digest,
                RbMessage::Echo(_) => &mut self.echoes[from],
                RbMessage::Ready(_) | RbMessage::ReadyDigest(_) => &mut self.readies[from],
            };
            match *slot {
                Some(prev) if prev != d => return Step::fault(from, FaultKind::Equivocation),
                Some(_) => return Step::none(),
                None => *slot = Some(d),
            }
            let mut step = Step::none();
            match message {
                RbMessage::Init(m) => {
                    self.first_holder.entry(d).or_insert(from);
                    self.report_split(&mut step);
                    if !self.sent_echo {
                        self.sent_echo = true;
                        step.push_broadcast(RbMessage::Echo(m));
                    }
                }
                RbMessage::Echo(m) => {
                    self.first_holder.entry(d).or_insert(from);
                    self.report_split(&mut step);
                    if !self.sent_ready
                        && Self::count(&self.echoes, &d) >= self.group.echo_threshold()
                    {
                        self.sent_ready = true;
                        step.push_broadcast(RbMessage::Ready(m));
                    }
                }
                RbMessage::Ready(m) => {
                    let count = Self::count(&self.readies, &d);
                    if !self.sent_ready && count >= self.group.one_correct() {
                        self.sent_ready = true;
                        step.push_broadcast(RbMessage::Ready(m.clone()));
                    }
                    if !self.delivered && count >= self.group.byzantine_majority() {
                        self.delivered = true;
                        step.push_output(m);
                    }
                }
                RbMessage::ReadyDigest(_) => unreachable!("the reference speaks paper only"),
            }
            step
        }
    }

    proptest::proptest! {
        /// Any message sequence — strangers, non-sender INITs, repeats,
        /// equivocations, splits, four payloads one of them empty — draws
        /// the same step, in the same order, from the payload table as
        /// from the digest-keyed bookkeeping it replaced. A `lean`
        /// instance fed the same script, each `READY(m)` as `READY(H(m))`,
        /// sends and reports the same, and delivers what the reference
        /// delivered once it holds that payload from an `INIT` or `ECHO`.
        #[test]
        fn steps_equal_the_digest_keyed_reference(
            seven in proptest::prelude::any::<bool>(),
            me in 0usize..4,
            sender in 0usize..4,
            script in proptest::collection::vec((0usize..8, 0u8..3, 0usize..4), 0..160),
        ) {
            let n = if seven { 7 } else { 4 };
            let g = Group::new(n).unwrap();
            let mut rb = ReliableBroadcast::new(ctx(n, me, 1), Profile::Paper, sender);
            let mut lean = ReliableBroadcast::new(ctx(n, me, 1), Profile::Lean, sender);
            let mut reference = DigestKeyed::new(g, sender);
            let as_lean = |m: RbMessage| match m {
                RbMessage::Ready(m) => RbMessage::ReadyDigest(Sha256::digest(&m)),
                other => other,
            };
            let mut delivered = None;
            for (i, (from, kind, which)) in script.into_iter().enumerate() {
                let from = from % (n + 1); // n itself: a stranger
                let m = payload(["a", "b", "c", ""][which]);
                let message = match kind {
                    0 => RbMessage::Init(m),
                    1 => RbMessage::Echo(m),
                    _ => RbMessage::Ready(m),
                };
                let got = rb.handle_message(from, message.clone());
                let want = reference.handle_message(from, message.clone());
                let lean_got = lean.handle_message(from, as_lean(message.clone()));
                proptest::prop_assert_eq!(&got, &want, "message {} = {:?} from {}", i, message, from);
                proptest::prop_assert!(rb.entries.len() <= 2 * n + 1);
                delivered = delivered.or(got.outputs.first().cloned());
                let sent: Vec<_> = got.messages.into_iter().map(|o| as_lean(o.message)).collect();
                let lean_sent: Vec<_> = lean_got.messages.into_iter().map(|o| o.message).collect();
                proptest::prop_assert_eq!(lean_sent, sent, "lean, message {}", i);
                proptest::prop_assert_eq!(&lean_got.faults, &got.faults, "lean, message {}", i);
                for out in &lean_got.outputs {
                    proptest::prop_assert_eq!(Some(out), delivered.as_ref(), "lean, message {}", i);
                }
                let held = lean.entries.iter().filter(|e| e.bytes.is_some()).count();
                proptest::prop_assert!(held <= n + 1 && lean.entries.len() - held <= n);
            }
            proptest::prop_assert_eq!(rb.is_delivered(), reference.delivered);
            let held = delivered.is_some_and(|m| lean.entries.iter().any(|e| e.bytes == Some(m.clone())));
            proptest::prop_assert_eq!(lean.is_delivered(), held);
        }
    }

    #[test]
    fn payload_table_is_bounded_by_the_slots() {
        // Every process echoes a payload of its own, readies another, then
        // contradicts both: one table entry per filled slot, none for the
        // contradictions, and no two slots ever agree.
        for n in [4, 7] {
            let mut rb = ReliableBroadcast::new(ctx(n, 1, 1), Profile::Paper, 0);
            let _ = rb.handle_message(0, RbMessage::Init(payload("init")));
            for p in 0..n {
                let echo = rb.handle_message(p, RbMessage::Echo(payload(&format!("e{p}"))));
                assert!(echo.outputs.is_empty());
                let ready = rb.handle_message(p, RbMessage::Ready(payload(&format!("r{p}"))));
                assert!(ready.messages.is_empty() && ready.outputs.is_empty());
            }
            assert_eq!(rb.entries.len(), 2 * n + 1);
            for p in 0..n {
                for second in [
                    RbMessage::Echo(payload(&format!("e{p}'"))),
                    RbMessage::Ready(payload(&format!("r{p}'"))),
                ] {
                    let step = rb.handle_message(p, second);
                    assert_eq!(step, Step::fault(p, FaultKind::Equivocation));
                }
            }
            let step = rb.handle_message(0, RbMessage::Init(payload("init'")));
            assert_eq!(step, Step::fault(0, FaultKind::Equivocation));
            assert_eq!(rb.entries.len(), 2 * n + 1, "a contradiction was stored");
            assert!(!rb.is_delivered());
        }
    }
}
