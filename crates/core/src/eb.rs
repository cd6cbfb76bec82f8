//! Echo broadcast — the *matrix echo broadcast* (paper §2.3).
//!
//! A weaker, cheaper alternative to reliable broadcast based on Reiter's
//! echo multicast, with digital signatures replaced by vectors of
//! keyed hashes. If the sender is corrupt, not every correct process is
//! guaranteed to deliver — but every correct process that *does* deliver,
//! delivers the same message.
//!
//! Flow (three communication steps):
//!
//! 1. the sender broadcasts `(INIT, m)`;
//! 2. each process `p_i` builds the hash vector `V_i[j] = H(m ‖ s_ij)` and
//!    unicasts `(VECT, V_i)` back to the sender;
//! 3. the sender collects `n - f` vectors into a matrix `M` (row `j` is
//!    `V_j`) and unicasts to each `p_j` the column `j` of `M` as
//!    `(MAT, V'_j)`; `p_j` verifies the hashes it can check (entry `i`
//!    with `s_ij`) and delivers `m` if at least `⌊(n+f)/2⌋ + 1` are
//!    correct.
//!
//! The echo-quorum threshold `⌊(n+f)/2⌋ + 1` makes any two supporter sets
//! intersect in more than `f` processes, hence in a correct one — and a
//! correct process hashes only the single `m` it received in `INIT`. That
//! pins a corrupt sender to one message among delivering processes.
//!
//! A mere `f + 1` valid entries would NOT suffice: the receiver's *own*
//! row counts toward the threshold (it verifies trivially, since the
//! receiver hashed whatever `INIT` it was given), so a corrupt sender
//! could serve each equivocation victim a column containing its own
//! forged row plus the victim's honest row — `f + 1` supporters for two
//! different messages, splitting the correct deliverers. The adversarial
//! conformance suite (`tests/properties.rs`,
//! `eb_hash_vector_equivocation_cannot_split`) constructs exactly that
//! attack. Liveness is unharmed: with a correct sender all `n - f`
//! collected rows verify, and `n - f ≥ ⌊(n+f)/2⌋ + 1` whenever
//! `n > 3f`.

use crate::codec::{Reader, WireError, WireMessage, Writer};
use crate::ctx::Ctx;
use crate::error::ProtocolError;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::mac::{self, MacTag, TAG_LEN};
use ritas_metrics::SpanAnnotation;

/// Upper bound on vector entries accepted by the decoder (defense against
/// allocation attacks; far above any plausible group size).
const MAX_VECTOR_LEN: usize = 4096;

/// Messages of the matrix echo broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EbMessage {
    /// The sender's initial transmission of `m`.
    Init(Bytes),
    /// A receiver's hash vector `V_i`, unicast to the sender.
    Vect(Vec<MacTag>),
    /// One matrix column, unicast by the sender to its receiver; `None`
    /// marks rows of processes whose `VECT` was not collected.
    Mat(Vec<Option<MacTag>>),
}

const TAG_INIT: u8 = 1;
const TAG_VECT: u8 = 2;
const TAG_MAT: u8 = 3;

fn encode_tag_vec(w: &mut Writer, v: &[MacTag]) {
    w.u32(v.len() as u32);
    for t in v {
        w.raw(t.as_bytes());
    }
}

fn decode_tag_vec(r: &mut Reader<'_>) -> Result<Vec<MacTag>, WireError> {
    let len = r.u32("eb.vect.len")? as usize;
    if len > MAX_VECTOR_LEN {
        return Err(WireError::FieldTooLong {
            what: "eb.vect",
            len,
        });
    }
    (0..len)
        .map(|_| Ok(MacTag::from_bytes(r.array::<TAG_LEN>("eb.vect.tag")?)))
        .collect()
}

impl WireMessage for EbMessage {
    fn encode(&self, w: &mut Writer) {
        match self {
            EbMessage::Init(m) => {
                w.u8(TAG_INIT).bytes(m);
            }
            EbMessage::Vect(v) => {
                w.u8(TAG_VECT);
                encode_tag_vec(w, v);
            }
            EbMessage::Mat(col) => {
                w.u8(TAG_MAT).u32(col.len() as u32);
                for entry in col {
                    match entry {
                        Some(t) => {
                            w.u8(1).raw(t.as_bytes());
                        }
                        None => {
                            w.u8(0);
                        }
                    }
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8("eb.tag")? {
            TAG_INIT => Ok(EbMessage::Init(r.bytes("eb.payload")?)),
            TAG_VECT => Ok(EbMessage::Vect(decode_tag_vec(r)?)),
            TAG_MAT => {
                let len = r.u32("eb.mat.len")? as usize;
                if len > MAX_VECTOR_LEN {
                    return Err(WireError::FieldTooLong {
                        what: "eb.mat",
                        len,
                    });
                }
                let mut col = Vec::with_capacity(len);
                for _ in 0..len {
                    col.push(match r.u8("eb.mat.present")? {
                        0 => None,
                        1 => Some(MacTag::from_bytes(r.array::<TAG_LEN>("eb.mat.tag")?)),
                        t => {
                            return Err(WireError::InvalidTag {
                                what: "eb.mat.present",
                                tag: t,
                            })
                        }
                    });
                }
                Ok(EbMessage::Mat(col))
            }
            t => Err(WireError::InvalidTag {
                what: "eb.tag",
                tag: t,
            }),
        }
    }
}

/// Step type of an echo broadcast instance.
pub type EbStep = Step<EbMessage, Bytes>;

/// State of one matrix echo broadcast instance (one message, one
/// designated sender), as seen by process `me`.
///
/// The sender's own instance plays both roles: it loops its `INIT` back to
/// itself, contributes its own row, sends itself a column and delivers
/// like any receiver.
#[derive(Debug, Clone)]
pub struct EchoBroadcast {
    ctx: Ctx,
    sender: ProcessId,
    sent_init: bool,
    /// Whether the sender's `INIT` was accepted, and answered with our
    /// `VECT`; any later `INIT` is compared with the payload it left.
    sent_vect: bool,
    delivered: bool,
    /// The payload, once known.
    payload: Option<Bytes>,
    /// Sender role: collected rows of the matrix.
    rows: Vec<Option<Vec<MacTag>>>,
    /// Receiver role: a column that arrived before `INIT` (buffered).
    pending_column: Option<Vec<Option<MacTag>>>,
}

impl EchoBroadcast {
    /// Creates the instance for a broadcast by `sender`, as seen by the
    /// process of `ctx`.
    ///
    /// # Panics
    ///
    /// Panics if `sender` is outside the group.
    pub fn new(ctx: Ctx, sender: ProcessId) -> Self {
        assert!(ctx.group.contains(sender), "sender out of group");
        EchoBroadcast {
            rows: vec![None; ctx.group.n()],
            ctx,
            sender,
            sent_init: false,
            sent_vect: false,
            delivered: false,
            payload: None,
            pending_column: None,
        }
    }

    /// The designated sender of this instance.
    pub fn sender(&self) -> ProcessId {
        self.sender
    }

    /// Whether this instance has delivered.
    pub fn is_delivered(&self) -> bool {
        self.delivered
    }

    /// Starts the broadcast (sender only).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::NotSender`] when `me` is not the sender,
    /// [`ProtocolError::AlreadyStarted`] on a second call.
    pub fn broadcast(&mut self, payload: Bytes) -> Result<EbStep, ProtocolError> {
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
        // The sender knows the payload immediately; recording it here
        // (rather than waiting for the looped-back INIT) lets `on_vect`
        // screen incoming rows before they enter the matrix.
        self.payload = Some(payload.clone());
        Ok(Step::broadcast(EbMessage::Init(payload)))
    }

    /// Handles a protocol message from `from`.
    pub fn handle_message(&mut self, from: ProcessId, message: EbMessage) -> EbStep {
        if !self.ctx.group.contains(from) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        match message {
            EbMessage::Init(m) => {
                self.ctx.metrics.eb_init_recv.inc();
                self.on_init(from, m)
            }
            EbMessage::Vect(v) => {
                self.ctx.metrics.eb_vect_recv.inc();
                self.on_vect(from, v)
            }
            EbMessage::Mat(col) => self.on_mat(from, col),
        }
    }

    fn on_init(&mut self, from: ProcessId, m: Bytes) -> EbStep {
        if from != self.sender {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if self.sent_vect {
            // A second INIT: silent if it repeats the first, equivocation
            // if it differs. (The sender's own first INIT, looped back
            // after `broadcast()` stored the payload, is not a second.)
            return if self.payload.as_ref() == Some(&m) {
                Step::none()
            } else {
                Step::fault(from, FaultKind::Equivocation)
            };
        }
        self.sent_vect = true;
        let v = mac::hash_vector(&m, &self.ctx.keys);
        let mut step = Step::unicast(self.sender, EbMessage::Vect(v));
        self.payload = Some(m);
        // A column may have been waiting for the payload.
        if let Some(col) = self.pending_column.take() {
            step.extend(self.try_deliver(&col));
        }
        step
    }

    fn on_vect(&mut self, from: ProcessId, v: Vec<MacTag>) -> EbStep {
        if self.ctx.me != self.sender {
            // Receivers never get VECTs; treat as misbehaviour.
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if v.len() != self.ctx.group.n() {
            return Step::fault(from, FaultKind::Malformed);
        }
        if self.rows[from].is_some() {
            return Step::none(); // duplicate row
        }
        // Screen the row before it enters the matrix: the sender can
        // verify the one entry computed with a key it holds (its own
        // index). A row that fails here is provably not `H(m ‖ ·)` over
        // the broadcast payload and would only poison columns. A VECT
        // arriving before `broadcast()` can only come from a corrupt peer
        // (correct processes echo an INIT that does not exist yet).
        let Some(payload) = self.payload.as_ref() else {
            return Step::fault(from, FaultKind::NotEntitled);
        };
        if !mac::verify(payload, &self.ctx.keys.key_for(from), &v[self.ctx.me]) {
            return Step::fault(from, FaultKind::BadAuthenticator);
        }
        self.rows[from] = Some(v);
        let collected = self.rows.iter().filter(|r| r.is_some()).count();
        if collected < self.ctx.group.quorum() {
            return Step::none();
        }
        if collected == self.ctx.group.quorum() {
            // `from`'s row closed the n−f row quorum that releases the
            // matrix columns — the last arrival on this echo step.
            self.ctx.annotate(SpanAnnotation::QuorumMet, from as u64);
        }
        // Enough rows: emit column j to every process j. Rows that pass
        // the screen above can still carry invalid entries for OTHER
        // receivers (only corrupt processes can produce such rows), so a
        // first matrix built from the fastest `n - f` rows may fall short
        // of the echo quorum at some receiver. Each straggler row
        // therefore re-emits updated columns — at most `f` extra rounds —
        // until every correct row is in, at which point every column
        // carries at least `n - f ≥ ⌊(n+f)/2⌋ + 1` valid entries.
        let mut step = Step::none();
        for j in self.ctx.group.processes() {
            let column: Vec<Option<MacTag>> = self
                .rows
                .iter()
                .map(|row| row.as_ref().map(|r| r[j]))
                .collect();
            step.push_unicast(j, EbMessage::Mat(column));
        }
        step
    }

    fn on_mat(&mut self, from: ProcessId, col: Vec<Option<MacTag>>) -> EbStep {
        if from != self.sender {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if col.len() != self.ctx.group.n() {
            return Step::fault(from, FaultKind::Malformed);
        }
        if self.delivered {
            return Step::none();
        }
        if self.payload.is_some() {
            self.try_deliver(&col)
        } else {
            // INIT not here yet (asynchrony): hold the column.
            self.pending_column = Some(col);
            Step::none()
        }
    }

    fn try_deliver(&mut self, col: &[Option<MacTag>]) -> EbStep {
        let payload = self.payload.as_ref().expect("payload known").clone();
        let valid = mac::count_valid_column_entries(&payload, &self.ctx.keys, col);
        if valid >= self.ctx.group.echo_threshold() {
            self.delivered = true;
            self.ctx.metrics.eb_delivered.inc();
            self.ctx.close();
            Step::output(payload)
        } else {
            Step::fault(self.sender, FaultKind::BadAuthenticator)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{broadcast_runs, ctx};
    use ritas_crypto::KeyTable;

    fn setup(n: usize, sender: ProcessId) -> Vec<EchoBroadcast> {
        (0..n)
            .map(|me| EchoBroadcast::new(ctx(n, me, 42), sender))
            .collect()
    }

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
        broadcast_runs(
            || setup(n, sender),
            crashed,
            sender,
            |eb| eb.broadcast(payload(m)).unwrap(),
        )
    }

    #[test]
    fn codec_roundtrip_all_variants() {
        let tags = vec![MacTag([1u8; TAG_LEN]), MacTag([2u8; TAG_LEN])];
        for msg in [
            EbMessage::Init(payload("m")),
            EbMessage::Vect(tags.clone()),
            EbMessage::Mat(vec![Some(tags[0]), None, Some(tags[1])]),
        ] {
            assert_eq!(EbMessage::from_bytes(&msg.to_bytes()).unwrap(), msg);
        }
    }

    #[test]
    fn codec_rejects_huge_vector() {
        let mut w = Writer::new();
        w.u8(TAG_VECT).u32((MAX_VECTOR_LEN + 1) as u32);
        assert!(matches!(
            EbMessage::from_bytes(&w.freeze()),
            Err(WireError::FieldTooLong { .. })
        ));
    }

    #[test]
    fn codec_rejects_bad_present_flag() {
        let mut w = Writer::new();
        w.u8(TAG_MAT).u32(1).u8(7);
        assert!(matches!(
            EbMessage::from_bytes(&w.freeze()),
            Err(WireError::InvalidTag { .. })
        ));
    }

    #[test]
    fn all_processes_deliver_with_correct_sender() {
        for delivered in broadcast_and_run(4, 0, &[], "m") {
            assert_eq!(delivered, vec![Some(payload("m")); 4]);
        }
    }

    #[test]
    fn sender_delivers_its_own_message() {
        for delivered in broadcast_and_run(4, 2, &[], "own") {
            assert_eq!(delivered[2], Some(payload("own")));
        }
    }

    #[test]
    fn delivery_with_one_unresponsive_receiver() {
        // Process 3 never answers: the sender still gathers n-f = 3 rows.
        for delivered in broadcast_and_run(4, 0, &[3], "m") {
            assert_eq!(delivered[..3], vec![Some(payload("m")); 3]);
            assert_eq!(delivered[3], None);
        }
    }

    #[test]
    fn column_with_too_few_valid_hashes_is_rejected() {
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rx.handle_message(0, EbMessage::Init(payload("m")));
        // A column of garbage tags: 0 valid < ⌊(n+f)/2⌋+1 = 3.
        let col = vec![Some(MacTag([9u8; TAG_LEN])); 4];
        let step = rx.handle_message(0, EbMessage::Mat(col));
        assert!(step.outputs.is_empty());
        assert_eq!(step.faults[0].kind, FaultKind::BadAuthenticator);
        assert!(!rx.is_delivered());
    }

    #[test]
    fn column_at_exactly_echo_threshold_delivers() {
        let table = KeyTable::dealer(4, 1);
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rx.handle_message(0, EbMessage::Init(payload("m")));
        // Rows 0, 2, 3 computed honestly (tags H(m ‖ s_{i,1})): exactly
        // ⌊(n+f)/2⌋+1 = 3 valid entries, the delivery threshold.
        let honest = |i: usize| mac::authenticate(b"m", &table.view_of(i).key_for(1));
        let col = vec![Some(honest(0)), None, Some(honest(2)), Some(honest(3))];
        let step = rx.handle_message(0, EbMessage::Mat(col));
        assert_eq!(step.outputs, vec![payload("m")]);
        assert_eq!(rx.ctx.metrics.eb_delivered.get(), 1);
    }

    #[test]
    fn column_below_echo_threshold_is_rejected() {
        // f+1 = 2 valid entries used to deliver; that let an equivocating
        // sender split correct deliverers by counting the receiver's own
        // row (see the module docs). One short of the echo quorum must be
        // rejected.
        let table = KeyTable::dealer(4, 1);
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rx.handle_message(0, EbMessage::Init(payload("m")));
        let honest = |i: usize| mac::authenticate(b"m", &table.view_of(i).key_for(1));
        // Sender's row plus the receiver's own row: the classic split
        // column. 2 valid < 3.
        let col = vec![
            Some(honest(0)),
            Some(honest(1)),
            None,
            Some(MacTag([0u8; TAG_LEN])),
        ];
        let step = rx.handle_message(0, EbMessage::Mat(col));
        assert!(step.outputs.is_empty());
        assert_eq!(step.faults[0].kind, FaultKind::BadAuthenticator);
        assert!(!rx.is_delivered());
    }

    #[test]
    fn mat_before_init_is_buffered() {
        let table = KeyTable::dealer(4, 1);
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let honest = |i: usize| mac::authenticate(b"m", &table.view_of(i).key_for(1));
        // Column entries are indexed by ROW process.
        let col = vec![Some(honest(0)), None, Some(honest(2)), Some(honest(3))];
        let s1 = rx.handle_message(0, EbMessage::Mat(col));
        assert!(s1.outputs.is_empty());
        let s2 = rx.handle_message(0, EbMessage::Init(payload("m")));
        assert_eq!(s2.outputs, vec![payload("m")]);
    }

    #[test]
    fn init_equivocation_faulted() {
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let _ = rx.handle_message(0, EbMessage::Init(payload("a")));
        let step = rx.handle_message(0, EbMessage::Init(payload("b")));
        assert_eq!(step.faults[0].kind, FaultKind::Equivocation);
    }

    #[test]
    fn duplicate_init_ignored_silently() {
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let first = rx.handle_message(0, EbMessage::Init(payload("a")));
        assert!(matches!(first.messages[0].message, EbMessage::Vect(_)));
        let again = rx.handle_message(0, EbMessage::Init(payload("a")));
        assert!(
            again.is_empty(),
            "a repeated INIT sends and reports nothing"
        );
    }

    #[test]
    fn senders_looped_back_init_is_not_an_equivocation() {
        // `broadcast()` stores the payload before the sender's own INIT
        // comes back: that INIT is its first, answered with the sender's
        // own row; a repeat is silent, and only a *different* one is an
        // equivocation.
        let table = KeyTable::dealer(4, 1);
        let mut sender = EchoBroadcast::new(ctx(4, 0, 1), 0);
        let _ = sender.broadcast(payload("m")).unwrap();
        let looped = sender.handle_message(0, EbMessage::Init(payload("m")));
        assert!(looped.faults.is_empty());
        assert_eq!(
            looped.messages[0].message,
            EbMessage::Vect(mac::hash_vector(b"m", &table.view_of(0)))
        );
        let again = sender.handle_message(0, EbMessage::Init(payload("m")));
        assert!(again.is_empty());
        let other = sender.handle_message(0, EbMessage::Init(payload("x")));
        assert_eq!(other, Step::fault(0, FaultKind::Equivocation));
    }

    #[test]
    fn vect_to_non_sender_faulted() {
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let step = rx.handle_message(2, EbMessage::Vect(vec![MacTag([0; TAG_LEN]); 4]));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }

    #[test]
    fn wrong_length_vect_faulted() {
        let mut sender = EchoBroadcast::new(ctx(4, 0, 1), 0);
        let step = sender.handle_message(2, EbMessage::Vect(vec![MacTag([0; TAG_LEN]); 3]));
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }

    #[test]
    fn duplicate_vect_rows_ignored() {
        let table = KeyTable::dealer(4, 1);
        let mut sender = EchoBroadcast::new(ctx(4, 0, 1), 0);
        let _ = sender.broadcast(payload("m")).unwrap();
        let row = |i: usize| mac::hash_vector(b"m", &table.view_of(i));
        let s1 = sender.handle_message(1, EbMessage::Vect(row(1)));
        assert!(s1.is_empty());
        let s2 = sender.handle_message(1, EbMessage::Vect(row(1)));
        assert!(s2.is_empty());
        // Still needs a third distinct row before emitting the matrix.
        let s3 = sender.handle_message(2, EbMessage::Vect(row(2)));
        assert!(s3.is_empty());
        let s4 = sender.handle_message(3, EbMessage::Vect(row(3)));
        assert_eq!(s4.messages.len(), 4); // one column per process
    }

    #[test]
    fn sender_screens_rows_it_can_disprove() {
        // The sender holds the key for its own entry of every row; a row
        // whose sender-entry does not verify is provably bogus and must
        // not enter the matrix (it would only poison columns).
        let table = KeyTable::dealer(4, 1);
        let mut sender = EchoBroadcast::new(ctx(4, 0, 1), 0);
        let _ = sender.broadcast(payload("m")).unwrap();
        let step = sender.handle_message(1, EbMessage::Vect(vec![MacTag([1; TAG_LEN]); 4]));
        assert_eq!(step.faults[0].kind, FaultKind::BadAuthenticator);
        // The slot stays free: an honest retransmission is still accepted.
        let honest = mac::hash_vector(b"m", &table.view_of(1));
        let s2 = sender.handle_message(1, EbMessage::Vect(honest));
        assert!(s2.faults.is_empty());
    }

    #[test]
    fn straggler_row_reemits_columns_until_quorum_everywhere() {
        // A corrupt row can pass the sender's screen (valid entry for the
        // sender's index) while carrying garbage for everyone else. The
        // first matrix then leaves honest receivers below the echo
        // quorum; the straggler's honest row must trigger a fresh, fuller
        // matrix so they still deliver.
        let table = KeyTable::dealer(4, 1);
        let mut sender = EchoBroadcast::new(ctx(4, 0, 1), 0);
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let _ = sender.broadcast(payload("m")).unwrap();
        let _ = rx.handle_message(0, EbMessage::Init(payload("m")));
        // Sender's own row 0 (normally looped back via its own INIT).
        let _ = sender.handle_message(
            0,
            EbMessage::Vect(mac::hash_vector(b"m", &table.view_of(0))),
        );
        // Corrupt process 2: entry for the sender is honest, the rest is
        // garbage.
        let mut poisoned = vec![MacTag([9; TAG_LEN]); 4];
        poisoned[0] = mac::authenticate(b"m", &table.view_of(2).key_for(0));
        let _ = sender.handle_message(2, EbMessage::Vect(poisoned));
        // Row 1 (honest) completes the n-f quorum: first matrix goes out,
        // but receiver 1's column holds only two valid entries (rows 0
        // and 1) — below the echo quorum of 3.
        let first = sender.handle_message(
            1,
            EbMessage::Vect(mac::hash_vector(b"m", &table.view_of(1))),
        );
        assert_eq!(first.messages.len(), 4);
        let col_of = |step: &EbStep| match &step.messages[1].message {
            EbMessage::Mat(col) => col.clone(),
            other => panic!("expected MAT, got {other:?}"),
        };
        let d1 = rx.handle_message(0, EbMessage::Mat(col_of(&first)));
        assert!(
            d1.outputs.is_empty(),
            "below-quorum column must not deliver"
        );
        assert!(!rx.is_delivered());
        // Straggler row 3 arrives: the sender re-emits; the new column
        // has three valid entries and receiver 1 delivers.
        let second = sender.handle_message(
            3,
            EbMessage::Vect(mac::hash_vector(b"m", &table.view_of(3))),
        );
        assert_eq!(second.messages.len(), 4, "straggler must re-emit columns");
        let d2 = rx.handle_message(0, EbMessage::Mat(col_of(&second)));
        assert_eq!(d2.outputs, vec![payload("m")]);
    }

    #[test]
    fn mat_from_non_sender_faulted() {
        let mut rx = EchoBroadcast::new(ctx(4, 1, 1), 0);
        let step = rx.handle_message(2, EbMessage::Mat(vec![None; 4]));
        assert_eq!(step.faults[0].kind, FaultKind::NotEntitled);
    }

    #[test]
    fn equivocating_sender_cannot_split_deliveries() {
        // A corrupt sender (process 0) sends INIT "m1" to p1 and p2 but
        // INIT "m2" to p3, then builds the best matrices it can for each
        // side. p1/p2 can deliver m1 (three rows over m1: the sender's
        // plus two correct receivers'), but p3 can never collect
        // ⌊(n+f)/2⌋+1 = 3 valid hashes over m2: only the sender's forged
        // row and p3's OWN honest row vouch for it — 2 < 3. The echo
        // broadcast property — correct deliverers deliver the same
        // message — holds.
        let table = KeyTable::dealer(4, 13);
        let rx = |me: usize| EchoBroadcast::new(ctx(4, me, 13), 0);
        let mut p1 = rx(1);
        let mut p2 = rx(2);
        let mut p3 = rx(3);

        let m1 = payload("m1");
        let m2 = payload("m2");
        // Equivocating INITs.
        let s1 = p1.handle_message(0, EbMessage::Init(m1.clone()));
        let s2 = p2.handle_message(0, EbMessage::Init(m1.clone()));
        let s3 = p3.handle_message(0, EbMessage::Init(m2.clone()));
        // Extract the honest VECT rows p1/p2 produced over m1 (sent to
        // the sender, i.e. the adversary).
        let row = |s: &EbStep| match &s.messages[0].message {
            EbMessage::Vect(v) => v.clone(),
            other => panic!("expected VECT, got {other:?}"),
        };
        let row1 = row(&s1);
        let row2 = row(&s2);
        let row3 = row(&s3); // p3's honest row — over m2!
                             // The adversary's own rows for both messages.
        let row0_m1 = mac::hash_vector(&m1, &table.view_of(0));
        let row0_m2 = mac::hash_vector(&m2, &table.view_of(0));

        // Best column it can offer p1: rows {0, 1, 2} over m1 → delivers.
        let col_p1 = vec![Some(row0_m1[1]), Some(row1[1]), Some(row2[1]), None];
        let d1 = p1.handle_message(0, EbMessage::Mat(col_p1));
        assert_eq!(d1.outputs, vec![m1.clone()]);

        // Best column it can offer p3 for m2: its own forged row plus
        // p3's OWN honest row (p3 hashed m2, so that entry verifies). It
        // pads with p1's m1 row, which cannot verify against m2. Under an
        // f+1 threshold this column DID deliver, splitting the correct
        // deliverers; the echo quorum demands a third supporter that does
        // not exist.
        let col_p3 = vec![Some(row0_m2[3]), Some(row1[3]), None, Some(row3[3])];
        let d3 = p3.handle_message(0, EbMessage::Mat(col_p3));
        assert!(
            d3.outputs.is_empty(),
            "p3 must not deliver the equivocated m2"
        );
        assert_eq!(d3.faults[0].kind, FaultKind::BadAuthenticator);
        assert!(!p3.is_delivered());
    }

    #[test]
    fn larger_group_delivers() {
        for delivered in broadcast_and_run(7, 4, &[], "seven") {
            assert_eq!(delivered, vec![Some(payload("seven")); 7]);
        }
    }
}
