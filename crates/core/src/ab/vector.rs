//! The agreement task of atomic broadcast (paper §2.7): per round, one
//! `AB_VECT` reliable broadcast per origin and one multi-valued consensus
//! on `W_i`. This part sees batch identifiers only: dissemination tells
//! it which ids are available and which are a-delivered, and it returns
//! the ids a round decided.

use super::{AbConfig, AbMessage, AbStats, AbStep, BatchId, MsgId};
use crate::bc::{Coins, MAX_ROUND_AHEAD};
use crate::codec::{Reader, WireError, Writer};
use crate::ctx::Ctx;
use crate::mvc::{MultiValuedConsensus, MvcConfig, MvcMessage};
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::recovery::milestones;
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use bytes::Bytes;
use ritas_metrics::{FlightKind, Layer, SpanAnnotation};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

/// Decoder bound for identifier vectors.
const MAX_IDS: usize = 1 << 20;

fn encode_ids(ids: &BTreeSet<MsgId>) -> Bytes {
    let mut w = Writer::new();
    w.u32(ids.len() as u32);
    for id in ids {
        id.encode(&mut w);
    }
    w.freeze()
}

fn decode_ids(bytes: &Bytes) -> Result<Vec<MsgId>, WireError> {
    read_ids(Reader::shared(bytes))
}

/// [`decode_ids`] over either kind of reader.
pub(crate) fn read_ids(mut r: Reader<'_>) -> Result<Vec<MsgId>, WireError> {
    let len = r.u32("ab.ids.len")? as usize;
    if len > MAX_IDS {
        return Err(WireError::FieldTooLong {
            what: "ab.ids",
            len,
        });
    }
    let mut ids = Vec::with_capacity(len.min(4096));
    for _ in 0..len {
        ids.push(MsgId::decode(&mut r)?);
    }
    r.finish()?;
    Ok(ids)
}

/// The ordering part of a session. Round spans are at `r:{n}`, with
/// `/vect:{origin}` and `/mvc` children.
pub(super) struct VectorOrdering {
    ctx: Ctx,
    mvc: MvcConfig,
    byzantine_bottom: bool,
    coins: Coins,
    /// The `agreements`, `bottom_agreements` and `bc_rounds_max` counters.
    stats: AbStats,
    /// Current agreement round.
    round: u32,
    /// Whether we broadcast our AB_VECT for the current round.
    vect_sent: bool,
    /// Whether we proposed to the current round's MVC.
    proposed: bool,
    /// The ids of the last AB_VECT we broadcast.
    last_vect: BTreeSet<MsgId>,
    /// Whether the last round decided nothing new (see `retry_is_futile`).
    last_round_empty: bool,
    /// True between a resume and the first normally concluded round: arms
    /// the round fast-forward (a resumed round estimate can lag the group).
    recovering: bool,
    /// AB_VECT RBC instances keyed by (round, origin).
    vect_rbc: BTreeMap<(u32, ProcessId), ReliableBroadcast>,
    /// Decoded AB_VECT contents per round and origin.
    vects: BTreeMap<u32, Vec<Option<Vec<MsgId>>>>,
    /// MVC instances per round, kept for laggards after the decision.
    agreements: BTreeMap<u32, MultiValuedConsensus>,
}

impl VectorOrdering {
    pub(super) fn new(ctx: Ctx, coins: Coins, config: &AbConfig) -> Self {
        VectorOrdering {
            ctx,
            mvc: config.mvc,
            byzantine_bottom: config.byzantine_bottom,
            coins,
            stats: AbStats::default(),
            round: 0,
            vect_sent: false,
            proposed: false,
            last_vect: BTreeSet::new(),
            last_round_empty: false,
            recovering: false,
            vect_rbc: BTreeMap::new(),
            vects: BTreeMap::new(),
            agreements: BTreeMap::new(),
        }
    }

    /// Resumes at `round` with the rejoin fast-forward armed.
    pub(super) fn resume(&mut self, round: u32) {
        self.round = round;
        self.vect_sent = false;
        self.proposed = false;
        self.recovering = true;
        self.free_finished_rounds();
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            self.ctx.me as u32,
            milestones::AB_RESUMED,
            u64::from(round),
        );
    }

    pub(super) fn stats(&self) -> AbStats {
        self.stats
    }

    pub(super) fn round(&self) -> u32 {
        self.round
    }

    pub(super) fn recovering(&self) -> bool {
        self.recovering
    }

    pub(super) fn on_vect(
        &mut self,
        from: ProcessId,
        origin: ProcessId,
        round: u32,
        inner: RbMessage,
    ) -> AbStep {
        if !self.ctx.group.contains(origin) {
            return Step::fault(from, FaultKind::NotEntitled);
        }
        if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            return Step::fault(from, FaultKind::Unjustified);
        }
        if self.round_is_freed(round) {
            return Step::none();
        }
        let mut sub = self
            .vect_instance(round, origin)
            .handle_message(from, inner);
        let delivered = std::mem::take(&mut sub.outputs);
        let mut out = sub.forward(|inner| AbMessage::Vect {
            origin,
            round,
            inner,
        });
        for payload in delivered {
            let Ok(ids) = decode_ids(&payload) else {
                out.push_fault(origin, FaultKind::Malformed);
                continue;
            };
            let n = self.ctx.group.n();
            let slot = self.vects.entry(round).or_insert_with(|| vec![None; n]);
            slot[origin].get_or_insert(ids);
        }
        out
    }

    pub(super) fn on_agree(&mut self, from: ProcessId, round: u32, inner: MvcMessage) -> AbStep {
        if round > self.round.saturating_add(MAX_ROUND_AHEAD) {
            return Step::fault(from, FaultKind::Unjustified);
        }
        if self.round_is_freed(round) {
            return Step::none();
        }
        let sub = self.agreement_instance(round).handle_message(from, inner);
        sub.forward(|inner| AbMessage::Agree { round, inner })
    }

    /// The oldest round whose state is kept. Frames are accepted up to
    /// [`MAX_ROUND_AHEAD`] rounds ahead, so that is also how far *behind*
    /// round state is worth keeping: a process further behind has had the
    /// group's current-round frames rejected as unjustified, and no round
    /// it is still in helps it.
    fn round_floor(&self) -> u32 {
        self.round.saturating_sub(MAX_ROUND_AHEAD + 1)
    }

    /// Whether a frame for `round` comes too late, counting it if so: its
    /// instances are gone and must not come back, one per late or replayed
    /// frame. Not a fault — an honest laggard's last messages look so too.
    fn round_is_freed(&self, round: u32) -> bool {
        let freed = round < self.round_floor();
        if freed {
            self.ctx.metrics.ab_stale_round_dropped.inc();
        }
        freed
    }

    /// Drops the state of rounds more than [`MAX_ROUND_AHEAD`] behind the
    /// current one, wherever `round` moves. A process still in such a
    /// round rejects the group's current-round frames as unjustified, and
    /// they are not sent again: old rounds cannot bring it back, only a
    /// rejoin can. Without this the maps grow by a round per agreement.
    fn free_finished_rounds(&mut self) {
        let floor = self.round_floor();
        if floor > 0 {
            self.agreements = self.agreements.split_off(&floor);
            self.vects = self.vects.split_off(&floor);
            self.vect_rbc = self.vect_rbc.split_off(&(floor, 0));
        }
    }

    /// The RBC instance of `origin`'s `AB_VECT` for `round`.
    fn vect_instance(&mut self, round: u32, origin: ProcessId) -> &mut ReliableBroadcast {
        self.vect_rbc.entry((round, origin)).or_insert_with(|| {
            let rb = |f: &mut String| write!(f, "r:{round}/vect:{origin}");
            ReliableBroadcast::new(self.ctx.child(Layer::Rb, rb), self.mvc.profile, origin)
        })
    }

    /// The MVC instance of `round`, created on first use.
    fn agreement_instance(&mut self, round: u32) -> &mut MultiValuedConsensus {
        self.agreements.entry(round).or_insert_with(|| {
            MultiValuedConsensus::new(
                self.ctx.child(Layer::Mvc, |f| write!(f, "r:{round}/mvc")),
                self.coins.round(round),
                self.mvc,
            )
        })
    }

    /// Starts the current round once some batch id is `available`.
    pub(super) fn maybe_send_vect<'a>(
        &mut self,
        available: impl ExactSizeIterator<Item = &'a BatchId> + Clone,
        out: &mut AbStep,
    ) -> bool {
        if self.vect_sent || available.len() == 0 || self.retry_is_futile(available.clone()) {
            return false;
        }
        self.vect_sent = true;
        let ids: BTreeSet<MsgId> = available.copied().collect();
        let payload = encode_ids(&ids);
        self.last_vect = ids;
        let (round, me) = (self.round, self.ctx.me);
        self.ctx.open_at(Layer::Ab, |f| write!(f, "r:{round}"));
        let sub = self
            .vect_instance(round, me)
            .broadcast(payload)
            .expect("one vect per round");
        out.extend(sub.forward(|inner| AbMessage::Vect {
            origin: me,
            round,
            inner,
        }));
        true
    }

    /// True when the next round could only repeat the last one: it ordered
    /// nothing, our `available` ids are exactly the ones we offered in it,
    /// and no peer has opened the next round. Ids that never gather `f+1`
    /// vectors exist — a rejoiner keeps the batches its peers a-delivered
    /// while it was away — and retrying over them is an empty agreement
    /// per poll, forever. An id that *can* be ordered was missing from some
    /// correct vector; that process opens the round once it has the batch.
    fn retry_is_futile<'a>(&self, available: impl Iterator<Item = &'a BatchId>) -> bool {
        self.last_round_empty
            && available.eq(self.last_vect.iter())
            && !self.vects.get(&self.round).is_some_and(|slot| {
                slot.iter()
                    .enumerate()
                    .any(|(origin, v)| origin != self.ctx.me && v.is_some())
            })
    }

    /// Proposes `W_i` to the round's MVC after `n − f` vectors arrived,
    /// leaving out the ids already a-`delivered`.
    pub(super) fn maybe_propose(
        &mut self,
        delivered: impl Fn(&BatchId) -> bool,
        out: &mut AbStep,
    ) -> bool {
        if self.proposed || !self.vect_sent {
            return false;
        }
        let Some(slot) = self.vects.get(&self.round) else {
            return false;
        };
        let count = slot.iter().filter(|v| v.is_some()).count();
        if count < self.ctx.group.quorum() {
            return false;
        }
        self.proposed = true;
        self.ctx.annotate_at(
            |f| write!(f, "r:{}", self.round),
            SpanAnnotation::VectCollected,
            count as u64,
        );
        // W_i: identifiers supported by >= f+1 vectors.
        let mut support: BTreeMap<MsgId, usize> = BTreeMap::new();
        for ids in slot.iter().flatten() {
            for id in ids.iter().collect::<BTreeSet<_>>() {
                *support.entry(*id).or_insert(0) += 1;
            }
        }
        let w: BTreeSet<MsgId> = support
            .into_iter()
            .filter(|(id, c)| *c >= self.ctx.group.one_correct() && !delivered(id))
            .map(|(id, _)| id)
            .collect();
        let (round, byzantine) = (self.round, self.byzantine_bottom);
        let mvc = self.agreement_instance(round);
        let sub = if byzantine {
            mvc.propose_byzantine_bottom()
        } else {
            mvc.propose(encode_ids(&w))
        }
        .expect("one proposal per round");
        out.extend(sub.forward(|inner| AbMessage::Agree { round, inner }));
        true
    }

    /// Concludes the current round once its MVC decided: `Some(ids)` with
    /// the decided ids not yet a-`delivered`, `Some(None)` for ⊥, and
    /// `None` while the round is undecided.
    pub(super) fn maybe_conclude(
        &mut self,
        delivered: impl Fn(&BatchId) -> bool,
    ) -> Option<Option<Vec<BatchId>>> {
        if !self.proposed {
            return None;
        }
        let mvc = self.agreements.get(&self.round)?;
        let decision = mvc.decision()?;
        if let Some(r) = mvc.bc_rounds() {
            self.stats.bc_rounds_max = self.stats.bc_rounds_max.max(r);
        }
        // An undecodable W' (impossible with a correct supporter) is ⊥.
        let ids = decision.as_ref().and_then(|w| decode_ids(w).ok());
        let fresh = ids.map(|ids| {
            ids.into_iter()
                .filter(|id| !delivered(id))
                .collect::<Vec<_>>()
        });
        self.stats.agreements += 1;
        self.stats.bottom_agreements += u64::from(fresh.is_none());
        self.ctx.metrics.ab_agreements.inc();
        self.last_round_empty = fresh.as_ref().is_some_and(Vec::is_empty);
        self.next_round();
        Some(fresh)
    }

    /// While recovering, jumps to the highest round with RB-delivered
    /// `AB_VECT`s of `f+1` distinct origins: a correct process reached it,
    /// so waiting for `n − f` vectors of the resumed round would stall
    /// forever (peers never re-send old vectors), and `f` Byzantine
    /// processes alone cannot drag the rejoiner past every correct round.
    pub(super) fn maybe_fast_forward(&mut self) -> bool {
        if !self.recovering {
            return false;
        }
        let one_correct = self.ctx.group.one_correct();
        let target = self
            .vects
            .range(self.round + 1..)
            .filter(|(_, slot)| slot.iter().filter(|v| v.is_some()).count() >= one_correct)
            .map(|(r, _)| *r)
            .next_back();
        let Some(round) = target else {
            return false;
        };
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            self.ctx.me as u32,
            milestones::FAST_FORWARD,
            u64::from(round),
        );
        if self.vect_sent {
            self.ctx.close_at(|f| write!(f, "r:{}", self.round));
        }
        self.round = round;
        self.vect_sent = false;
        self.proposed = false;
        self.free_finished_rounds();
        true
    }

    fn next_round(&mut self) {
        self.ctx.close_at(|f| write!(f, "r:{}", self.round));
        self.round += 1;
        self.vect_sent = false;
        self.proposed = false;
        // Aligned with the group again: disarm the rejoin fast-forward.
        self.recovering = false;
        self.free_finished_rounds();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::dissemination::encode_batch;
    use crate::ab::tests::{ab_insts, ab_net, broadcast, coins, delivered_ids, AbNet};
    use crate::ab::{AbCursor, AbDelivery, AtomicBroadcast};
    use crate::step::Process;
    use crate::testing::{ctx, Net};

    impl AtomicBroadcast {
        fn vector(&self) -> &VectorOrdering {
            match &self.order {
                crate::ab::Order::Vector(order) => order,
                crate::ab::Order::Slots(_) => panic!("a paper session orders by vectors"),
            }
        }
    }

    #[test]
    fn ids_codec_roundtrip() {
        let ids: BTreeSet<MsgId> = [MsgId { sender: 0, rbid: 1 }, MsgId { sender: 3, rbid: 0 }]
            .into_iter()
            .collect();
        let enc = encode_ids(&ids);
        assert_eq!(
            decode_ids(&enc).unwrap(),
            ids.into_iter().collect::<Vec<_>>()
        );
    }

    /// An AB the net never polls (the trait's default `poll` is empty):
    /// whatever round starts, the test started it.
    struct Unpolled(AtomicBroadcast);

    impl Process for Unpolled {
        type Msg = AbMessage;
        type Out = AbDelivery;

        fn handle_message(&mut self, from: ProcessId, msg: AbMessage) -> AbStep {
            self.0.handle_message(from, msg)
        }
    }

    #[test]
    fn rounds_wait_for_poll() {
        let insts = ab_insts(4, 55, |_| AbConfig::default());
        let mut net = Net::connect(insts.into_iter().map(Unpolled).collect(), 55);
        for p in 0..4 {
            let (_, step) = net.process_mut(p).0.broadcast(Bytes::from(format!("d{p}")));
            net.absorb(p, step);
        }
        // Drain all AB_MSG traffic: no agreement must have started.
        net.run();
        for p in 0..4 {
            assert!(net.outputs(p).is_empty(), "round started without poll");
            assert!(net.process(p).0.pending() > 0);
        }
        // Poll everyone: the agreement task kicks off and orders the lot
        // in a single agreement per process.
        for p in 0..4 {
            let step = net.process_mut(p).0.poll();
            net.absorb(p, step);
        }
        // Subsequent rounds start via further polls; emulate the drivers
        // by polling whenever the queue drains.
        loop {
            net.run();
            let mut more = false;
            for p in 0..4 {
                let step = net.process_mut(p).0.poll();
                more |= !step.is_empty();
                net.absorb(p, step);
            }
            if !more {
                break;
            }
        }
        let order0 = delivered_ids(&net, 0);
        assert_eq!(order0.len(), 4);
        for p in 1..4 {
            let order = delivered_ids(&net, p);
            assert_eq!(order, order0);
        }
        // One agreement ordered the entire batch.
        for p in 0..4 {
            assert_eq!(net.process(p).0.stats().agreements, 1, "process {p}");
        }
    }

    #[test]
    fn unorderable_ids_do_not_spin_rounds() {
        // What a rejoin leaves behind: each of three processes holds a
        // batch the others a-delivered while it was away, so no id ever
        // gathers f+1 supporting vectors. One round over them decides the
        // empty set; re-running it over the same ids would order nothing
        // again, forever, at full speed (ROADMAP item 0's livelock).
        let mut net = ab_net(4, 91);
        for p in 0..3usize {
            let stale = MsgId {
                sender: 3,
                rbid: 1000 + p as u64,
            };
            let raw = encode_batch(5000 + p as u64, &[Bytes::from_static(b"stale")]);
            let step = net.process_mut(p).inject_batch(stale, raw);
            net.absorb(p, step);
        }
        for p in 0..3 {
            let injected = (FlightKind::Recovery, 3, milestones::BATCH_INJECTED);
            let events = net.process(p).vector().ctx.metrics.flight().events();
            let found = events.iter().find(|e| (e.kind, e.peer, e.a) == injected);
            assert_eq!(found.map(|e| e.b), Some(1000 + p as u64), "process {p}");
            let step = net.process_mut(p).poll();
            net.absorb(p, step);
        }
        net.run();
        for p in 0..3 {
            assert_eq!(net.process(p).round(), 1, "process {p} kept opening rounds");
            assert!(net.outputs(p).is_empty());
        }
        // Fresh content still gets ordered, by everyone, and then the
        // group goes quiet again.
        let id = broadcast(&mut net, 3, b"fresh");
        net.run();
        for p in 0..4 {
            let got = delivered_ids(&net, p);
            assert_eq!(got, vec![id], "process {p}");
        }
    }

    #[test]
    fn resumed_session_jumps_to_a_round_f_plus_1_peers_reached() {
        let mut ab = AtomicBroadcast::new(ctx(4, 0, 0), coins(1), AbConfig::default());
        ab.resume(&AbCursor {
            round: 2,
            replay_to: 0,
            a_delivered: vec![0; 4],
            cmd_delivered: vec![0; 4],
            next_rbid: 0,
            next_batch: 0,
        });
        // Round-5 vectors of two origins (f + 1), each RB-delivered on
        // three READYs; one origin alone moves nothing.
        let vect = encode_ids(&BTreeSet::new());
        for (origin, reached) in [(1, 2), (2, 5)] {
            for from in 1..4 {
                let (round, inner) = (5, RbMessage::Ready(vect.clone()));
                let step = ab.handle_message(
                    from,
                    AbMessage::Vect {
                        origin,
                        round,
                        inner,
                    },
                );
                assert!(step.faults.is_empty() && step.outputs.is_empty());
            }
            assert_eq!(ab.round(), reached, "after origin {origin}");
        }
        let recorded: Vec<(u64, u64)> = (ab.vector().ctx.metrics.flight().events().iter())
            .filter(|e| e.kind == FlightKind::Recovery)
            .map(|e| (e.a, e.b))
            .collect();
        let expected = [(milestones::AB_RESUMED, 2), (milestones::FAST_FORWARD, 5)];
        assert_eq!(recorded, expected);
    }

    #[test]
    fn far_future_round_rejected() {
        let mut ab = AtomicBroadcast::new(ctx(4, 0, 0), coins(1), AbConfig::default());
        let step = ab.handle_message(
            1,
            AbMessage::Vect {
                origin: 1,
                round: 500,
                inner: RbMessage::Init(Bytes::from_static(b"v")),
            },
        );
        assert_eq!(step.faults[0].kind, FaultKind::Unjustified);
    }

    /// One a-broadcast per turn, each run to quiescence, until process 0
    /// has concluded `rounds` agreement rounds.
    fn run_rounds(net: &mut AbNet, senders: usize, rounds: u32) {
        let mut k = 0;
        while net.process(0).round() < rounds {
            broadcast(net, k % senders, format!("r{k}").as_bytes());
            net.run();
            k += 1;
        }
    }

    /// Rounds with state in each of the three per-round maps.
    fn rounds_held(ab: &AtomicBroadcast) -> [usize; 3] {
        let vect_rounds: BTreeSet<u32> = ab
            .vector()
            .vect_rbc
            .keys()
            .map(|(round, _)| *round)
            .collect();
        [
            ab.vector().agreements.len(),
            ab.vector().vects.len(),
            vect_rounds.len(),
        ]
    }

    #[test]
    fn finished_rounds_are_freed() {
        let mut net = ab_net(4, 21);
        run_rounds(&mut net, 4, 200);
        let order0 = delivered_ids(&net, 0);
        assert!(order0.len() >= 100, "{} delivered", order0.len());
        for p in 0..4 {
            assert_eq!(delivered_ids(&net, p), order0, "process {p}");
            let ab = net.process(p);
            assert!(ab.round() >= 200);
            for held in rounds_held(ab) {
                assert!(
                    held <= MAX_ROUND_AHEAD as usize + 2,
                    "process {p} holds {held} rounds at round {}",
                    ab.round()
                );
            }
        }
    }

    #[test]
    fn frame_for_a_freed_round_creates_no_instance() {
        let mut net = ab_net(4, 22);
        run_rounds(&mut net, 4, 200);
        let metrics = net.process(0).vector().ctx.metrics.clone();
        assert_eq!(metrics.ab_stale_round_dropped.get(), 0);
        let before = rounds_held(net.process(0));
        let replays = [
            AbMessage::Vect {
                origin: 1,
                round: 3,
                inner: RbMessage::Init(Bytes::from_static(b"v")),
            },
            AbMessage::Agree {
                round: 3,
                inner: MvcMessage::Init {
                    origin: 1,
                    inner: RbMessage::Init(Bytes::from_static(b"w")),
                },
            },
        ];
        for msg in replays {
            let step = net.process_mut(0).handle_message(1, msg);
            assert!(step.messages.is_empty() && step.faults.is_empty());
        }
        let ab = net.process(0);
        assert_eq!(rounds_held(ab), before);
        assert!(!ab.vector().agreements.contains_key(&3) && !ab.vector().vects.contains_key(&3));
        assert!(!ab.vector().vect_rbc.contains_key(&(3, 1)));
        assert_eq!(metrics.ab_stale_round_dropped.get(), 2);
    }

    #[test]
    fn laggard_inside_the_horizon_catches_up() {
        let mut net = ab_net(4, 23);
        // Process 3 hears nothing while the other three run 60 rounds…
        net.hold(3);
        run_rounds(&mut net, 3, 60);
        let ahead = net.process(0).round();
        assert!(
            (60..=MAX_ROUND_AHEAD).contains(&ahead),
            "{ahead} rounds ahead"
        );
        assert_eq!(net.process(3).round(), 0);
        // …then gets everything at once, oldest rounds included: their
        // state is still there for it at every peer.
        net.release(3);
        net.run();
        let order0 = delivered_ids(&net, 0);
        assert!(order0.len() >= 30, "{} delivered", order0.len());
        for p in 1..4 {
            assert_eq!(delivered_ids(&net, p), order0, "process {p}");
        }
        assert!(net.process(3).round() >= ahead);
    }
}
