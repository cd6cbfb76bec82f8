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
//! "The same `m`" is byte equality, as in Bracha's protocol: an instance
//! keeps the distinct payloads it has accepted in one small table (at
//! most one per `INIT`, `ECHO` and `READY` slot, so ≤ 2n + 1) and every
//! slot holds an index into it. Comparing lengths and then bytes costs
//! less than one hash compression for any payload, and nothing here is
//! secret — payloads are what the protocol publishes — so the comparison
//! need not be constant-time.
//!
//! One [`ReliableBroadcast`] value is the state of a single instance —
//! one broadcast by one designated sender. Higher protocols create one
//! instance per message they reliably broadcast (control block chaining,
//! §3.3).

use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::SpanAnnotation;

/// Messages of the reliable broadcast protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RbMessage {
    /// The sender's initial transmission of `m`.
    Init(Bytes),
    /// A process echoing `m`.
    Echo(Bytes),
    /// A process asserting it will deliver `m`.
    Ready(Bytes),
}

impl RbMessage {
    /// The payload carried by the message.
    pub fn payload(&self) -> &Bytes {
        match self {
            RbMessage::Init(m) | RbMessage::Echo(m) | RbMessage::Ready(m) => m,
        }
    }
}

const TAG_INIT: u8 = 1;
const TAG_ECHO: u8 = 2;
const TAG_READY: u8 = 3;

impl WireMessage for RbMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            RbMessage::Init(m) => w.u8(TAG_INIT).bytes(m),
            RbMessage::Echo(m) => w.u8(TAG_ECHO).bytes(m),
            RbMessage::Ready(m) => w.u8(TAG_READY).bytes(m),
        };
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("rb.tag")?;
        let m = r.bytes("rb.payload")?;
        match tag {
            TAG_INIT => Ok(RbMessage::Init(m)),
            TAG_ECHO => Ok(RbMessage::Echo(m)),
            TAG_READY => Ok(RbMessage::Ready(m)),
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

/// State of one reliable broadcast instance.
///
/// # Example
///
/// Three correct processes plus one silent one (`n = 4`, `f = 1`): driving
/// the message flow by hand delivers the payload at a receiver.
///
/// ```
/// use ritas::rb::{ReliableBroadcast, RbMessage};
/// use ritas::testing::ctx;
/// use bytes::Bytes;
///
/// let mut sender = ReliableBroadcast::new(ctx(4, 0, 7), 0);
/// let mut receiver = ReliableBroadcast::new(ctx(4, 1, 7), 0);
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
    sender: ProcessId,
    sent_init: bool,
    sent_echo: bool,
    sent_ready: bool,
    delivered: bool,
    /// The distinct payloads accepted so far, each with the first
    /// process whose accepted `INIT`/`ECHO` carried it (the endpoint
    /// named when a split is reported; `None` while only `READY`s did).
    /// One entry per slot below at most: ≤ 2n + 1.
    payloads: Vec<(Bytes, Option<ProcessId>)>,
    /// Index into `payloads` of what each process echoed (one `ECHO`
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
    /// Creates the instance for a broadcast by `sender`, as seen by the
    /// process of `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the group.
    pub fn new(ctx: Ctx, sender: ProcessId) -> Self {
        assert!(ctx.group.contains(sender), "sender out of group");
        let n = ctx.group.n();
        ReliableBroadcast {
            ctx,
            sender,
            sent_init: false,
            sent_echo: false,
            sent_ready: false,
            delivered: false,
            payloads: Vec::new(),
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
    /// `READY`); the first one sticks.
    fn intern(&mut self, payload: &Bytes, holder: Option<ProcessId>) -> usize {
        match self.payloads.iter().position(|(p, _)| p == payload) {
            Some(i) => {
                let first = &mut self.payloads[i].1;
                *first = first.or(holder);
                i
            }
            None => {
                self.payloads.push((payload.clone(), holder));
                self.payloads.len() - 1
            }
        }
    }

    /// What a second message from `from` makes of a slot already holding
    /// `prev`: nothing if it repeats the first, equivocation if it differs
    /// — and a differing message is *not* stored.
    fn repeated(&self, prev: usize, from: ProcessId, m: &Bytes) -> RbStep {
        if self.payloads[prev].0 == *m {
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
        for h in [a, b].into_iter().filter_map(|i| self.payloads[i].1) {
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
    /// not-entitled) are ignored and reported as faults on the step.
    pub fn handle_message(&mut self, from: ProcessId, message: RbMessage) -> RbStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        match message {
            RbMessage::Init(m) => {
                self.ctx.metrics.rb_init_recv.inc();
                self.on_init(from, m)
            }
            RbMessage::Echo(m) => {
                self.ctx.metrics.rb_echo_recv.inc();
                self.on_echo(from, m)
            }
            RbMessage::Ready(m) => {
                self.ctx.metrics.rb_ready_recv.inc();
                self.on_ready(from, m)
            }
        }
    }

    fn on_init(&mut self, from: ProcessId, m: Bytes) -> RbStep {
        if from != self.sender {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if let Some(prev) = self.init {
            return self.repeated(prev, from, &m);
        }
        self.init = Some(self.intern(&m, Some(from)));
        let mut step = Step::none();
        self.report_split(&mut step);
        if !self.sent_echo {
            self.sent_echo = true;
            step.push_broadcast(RbMessage::Echo(m));
        }
        step
    }

    fn on_echo(&mut self, from: ProcessId, m: Bytes) -> RbStep {
        if let Some(prev) = self.echoes[from] {
            return self.repeated(prev, from, &m);
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
            step.push_broadcast(RbMessage::Ready(m));
        }
        step
    }

    fn on_ready(&mut self, from: ProcessId, m: Bytes) -> RbStep {
        if let Some(prev) = self.readies[from] {
            return self.repeated(prev, from, &m);
        }
        let i = self.intern(&m, None);
        self.readies[from] = Some(i);
        let mut step = Step::none();
        let count = Self::count(&self.readies, i);
        if !self.sent_ready && count >= self.ctx.group.one_correct() {
            self.sent_ready = true;
            step.push_broadcast(RbMessage::Ready(m.clone()));
        }
        if !self.delivered && count >= self.ctx.group.byzantine_majority() {
            self.delivered = true;
            self.ctx.metrics.rb_delivered.inc();
            // `from` closed the 2f+1 READY quorum that gates delivery.
            self.ctx.annotate(SpanAnnotation::QuorumMet, from as u64);
            self.ctx.close();
            step.push_output(m);
        }
        step
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

    /// `sender` broadcasts `m` in a group of `n` (minus the `crashed`),
    /// under every schedule; returns each run's per-process delivery.
    fn broadcast_and_run(
        n: usize,
        sender: ProcessId,
        crashed: &[ProcessId],
        m: &str,
    ) -> Vec<Vec<Option<Bytes>>> {
        let group = || {
            (0..n)
                .map(|me| ReliableBroadcast::new(ctx(n, me, 1), sender))
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
        ] {
            assert_eq!(RbMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
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
        for delivered in broadcast_and_run(4, 0, &[], "m") {
            assert_eq!(delivered, vec![Some(payload("m")); 4]);
        }
    }

    #[test]
    fn delivery_with_one_silent_process() {
        // Process 3 never participates (crash): the other three still
        // deliver (n=4, f=1: echo threshold 3, ready threshold 3).
        for delivered in broadcast_and_run(4, 0, &[3], "m") {
            assert_eq!(delivered[..3], vec![Some(payload("m")); 3]);
            assert_eq!(delivered[3], None);
        }
    }

    #[test]
    fn non_sender_cannot_broadcast() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
        assert_eq!(
            rb.broadcast(payload("m")).unwrap_err(),
            ProtocolError::NotSender { me: 1, sender: 0 }
        );
    }

    #[test]
    fn double_broadcast_rejected() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), 0);
        let _ = rb.broadcast(payload("m")).unwrap();
        assert_eq!(
            rb.broadcast(payload("m")).unwrap_err(),
            ProtocolError::AlreadyStarted
        );
    }

    #[test]
    fn init_from_non_sender_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
        let step = rb.handle_message(2, RbMessage::Init(payload("evil")));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
        assert!(step.messages.is_empty());
    }

    #[test]
    fn equivocating_init_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rb.handle_message(0, RbMessage::Init(payload("a")));
        let step = rb.handle_message(0, RbMessage::Init(payload("b")));
        assert_eq!(step.faults[0].kind, FaultKind::Equivocation);
    }

    #[test]
    fn duplicate_init_ignored_silently() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rb.handle_message(0, RbMessage::Init(payload("a")));
        let step = rb.handle_message(0, RbMessage::Init(payload("a")));
        assert!(step.is_empty());
    }

    #[test]
    fn echo_counted_once_per_process() {
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 1, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), 0);
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
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), 0);
        let _ = rb.handle_message(1, RbMessage::Ready(payload("a")));
        let _ = rb.handle_message(2, RbMessage::Ready(payload("b")));
        let step = rb.handle_message(3, RbMessage::Ready(payload("c")));
        assert!(step.outputs.is_empty());
        assert!(!rb.is_delivered());
    }

    #[test]
    fn out_of_group_sender_faulted() {
        let mut rb = ReliableBroadcast::new(ctx(4, 0, 1), 0);
        let step = rb.handle_message(7, RbMessage::Echo(payload("m")));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }

    #[test]
    fn larger_group_delivers() {
        for delivered in broadcast_and_run(7, 3, &[], "wide") {
            assert_eq!(delivered, vec![Some(payload("wide")); 7]);
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
            let d = Self::digest(message.payload());
            let slot = match &message {
                RbMessage::Init(_) if from != self.sender => {
                    return Step::fault(from, FaultKind::NotEntitled)
                }
                RbMessage::Init(_) => &mut self.init_digest,
                RbMessage::Echo(_) => &mut self.echoes[from],
                RbMessage::Ready(_) => &mut self.readies[from],
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
            }
            step
        }
    }

    proptest::proptest! {
        /// Any message sequence — strangers, non-sender INITs, repeats,
        /// equivocations, splits, four payloads one of them empty — draws
        /// the same step, in the same order, from the payload table as
        /// from the digest-keyed bookkeeping it replaced.
        #[test]
        fn steps_equal_the_digest_keyed_reference(
            seven in proptest::prelude::any::<bool>(),
            me in 0usize..4,
            sender in 0usize..4,
            script in proptest::collection::vec((0usize..8, 0u8..3, 0usize..4), 0..160),
        ) {
            let n = if seven { 7 } else { 4 };
            let g = Group::new(n).unwrap();
            let mut rb = ReliableBroadcast::new(ctx(n, me, 1), sender);
            let mut reference = DigestKeyed::new(g, sender);
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
                proptest::prop_assert_eq!(got, want, "message {} = {:?} from {}", i, message, from);
                proptest::prop_assert!(rb.payloads.len() <= 2 * n + 1);
            }
            proptest::prop_assert_eq!(rb.is_delivered(), reference.delivered);
        }
    }

    #[test]
    fn payload_table_is_bounded_by_the_slots() {
        // Every process echoes a payload of its own, readies another, then
        // contradicts both: one table entry per filled slot, none for the
        // contradictions, and no two slots ever agree.
        for n in [4, 7] {
            let mut rb = ReliableBroadcast::new(ctx(n, 1, 1), 0);
            let _ = rb.handle_message(0, RbMessage::Init(payload("init")));
            for p in 0..n {
                let echo = rb.handle_message(p, RbMessage::Echo(payload(&format!("e{p}"))));
                assert!(echo.outputs.is_empty());
                let ready = rb.handle_message(p, RbMessage::Ready(payload(&format!("r{p}"))));
                assert!(ready.messages.is_empty() && ready.outputs.is_empty());
            }
            assert_eq!(rb.payloads.len(), 2 * n + 1);
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
            assert_eq!(rb.payloads.len(), 2 * n + 1, "a contradiction was stored");
            assert!(!rb.is_delivered());
        }
    }
}
