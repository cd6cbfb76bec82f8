//! The agreement task of atomic broadcast under [`Profile::Lean`], after
//! Alea-BFT (arXiv 2202.02071): one binary agreement per *slot* instead
//! of a vector exchange and a multi-valued consensus per round.
//!
//! Slot `s` has leader `s mod n` and asks one question: is the *head* of
//! the leader's queue — its batch after the last one of it ordered — to
//! be ordered now? A process votes 1 iff that batch is here. Reliable
//! broadcast is total, so a slot that decides 1 names a batch every
//! correct process eventually holds; a slot that decides 0 orders
//! nothing. Up to `min(window, n)` slots are in flight, no two with the
//! same leader, and they conclude in slot order. DESIGN.md §7 ("Slot
//! ordering") has the argument. Like `vector.rs`, this part sees batch
//! identifiers only.
//!
//! [`Profile::Lean`]: crate::bc::Profile::Lean

use super::{AbConfig, AbCursor, AbMessage, AbStats, AbStep, BatchId};
use crate::bc::lean::{LeanConsensus, LeanKind, LeanMessage};
use crate::bc::{Coins, MAX_ROUND_AHEAD};
use crate::ctx::Ctx;
use crate::recovery::{milestones, PeerHints};
use crate::step::{FaultKind, Step};
use crate::ProcessId;
use ritas_metrics::{FlightKind, Layer};
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// One slot's binary agreement, and who has spoken in it.
struct Slot {
    bc: LeanConsensus,
    /// Per member other than us: whether it sent a frame in this slot.
    spoke: Vec<bool>,
    /// Per member: whether it was sent our decision on asking for it.
    helped: Vec<bool>,
    /// Our vote, once cast.
    vote: Option<bool>,
}

/// The slot part of a session. Slot agreements' spans are at `s:{slot}`.
pub(super) struct SlotOrdering {
    ctx: Ctx,
    coins: Coins,
    byzantine_bottom: bool,
    /// The `agreements`, `bottom_agreements` and `bc_rounds_max` counters.
    stats: AbStats,
    /// Slots in flight at most: `min(window, n)`, so no two share a leader.
    width: u32,
    /// The oldest slot not concluded yet.
    base: u32,
    /// Per sender, the batch seq of its queue head.
    next: Vec<u64>,
    /// The decisions of the slots just below `base`, oldest first, at most
    /// [`MAX_ROUND_AHEAD`] of them: what a rejoiner replays its cursor
    /// with ([`crate::recovery::select_cursor`]).
    log: VecDeque<bool>,
    /// While `base` is below it, a rejoiner votes in every slot of the
    /// window and asks the group for each decision (see `vote`).
    replay_to: u32,
    /// A slot we voted 1 in decided 0 (see `is_futile`).
    lost: bool,
    /// The heads we held when a slot we voted 1 in decided 0. Opening
    /// slots for the same heads again would decide the same, forever if
    /// the processes that lacked a head are starved of its broadcast; so
    /// we open none on our own until the heads we hold change or a peer
    /// opens one — as a process that lacked the head does once it has it.
    futile: Option<Vec<BatchId>>,
    /// Slot agreements from [`MAX_ROUND_AHEAD`] behind `base` to as far
    /// ahead.
    slots: BTreeMap<u32, Slot>,
}

impl SlotOrdering {
    pub(super) fn new(ctx: Ctx, coins: Coins, config: &AbConfig) -> Self {
        let n = ctx.group.n();
        SlotOrdering {
            width: config.batch.window.clamp(1, n) as u32,
            next: vec![0; n],
            ctx,
            coins,
            byzantine_bottom: config.byzantine_bottom,
            stats: AbStats::default(),
            base: 0,
            log: VecDeque::new(),
            replay_to: 0,
            lost: false,
            futile: None,
            slots: BTreeMap::new(),
        }
    }

    /// Resumes at the cursor's slot with its heads, replaying up to its
    /// `replay_to`.
    pub(super) fn resume(&mut self, cursor: &AbCursor) {
        let n = self.ctx.group.n();
        self.base = cursor.round;
        self.next = (0..n)
            .map(|o| cursor.a_delivered.get(o).copied().unwrap_or(0))
            .collect();
        self.replay_to = cursor.replay_to;
        self.log.clear();
        self.slots.clear();
        self.ctx.metrics.flight_record(
            FlightKind::Recovery,
            self.ctx.me as u32,
            milestones::AB_RESUMED,
            u64::from(cursor.round),
        );
    }

    pub(super) fn stats(&self) -> AbStats {
        self.stats
    }

    /// The oldest slot not concluded.
    pub(super) fn base(&self) -> u32 {
        self.base
    }

    pub(super) fn replaying(&self) -> bool {
        self.base < self.replay_to
    }

    /// Puts this part's position into `hints`: the slot, the heads (which
    /// are the batch watermarks) and the recent decisions.
    pub(super) fn fill_hints(&self, hints: &mut PeerHints) {
        hints.round = self.base;
        hints.batch_w.clone_from(&self.next);
        hints.slot_log = self.log.iter().copied().collect();
    }

    /// The batch slot `slot` votes on, as of the current heads.
    fn head(&self, slot: u32) -> BatchId {
        let sender = slot as usize % self.ctx.group.n();
        BatchId {
            sender,
            rbid: self.next[sender],
        }
    }

    /// Slot `slot`'s state, created on first use.
    fn slot_mut(&mut self, slot: u32) -> &mut Slot {
        let (ctx, coins, n) = (&self.ctx, self.coins, self.ctx.group.n());
        self.slots.entry(slot).or_insert_with(|| {
            let coin = ctx.keys.coin(coins.round(slot).nonce);
            Slot {
                bc: LeanConsensus::new(ctx.child(Layer::Bc, |f| write!(f, "s:{slot}")), coin),
                spoke: vec![false; n],
                helped: vec![false; n],
                vote: None,
            }
        })
    }

    pub(super) fn on_slot(&mut self, from: ProcessId, slot: u32, inner: LeanMessage) -> AbStep {
        if slot > self.base.saturating_add(MAX_ROUND_AHEAD) {
            return Step::fault(from, FaultKind::Unjustified);
        }
        if slot < self.base.saturating_sub(MAX_ROUND_AHEAD) {
            // Its agreement is gone and must not come back; as with a
            // freed vector round, not a fault.
            self.ctx.metrics.ab_stale_round_dropped.inc();
            return Step::none();
        }
        let me = self.ctx.me;
        let st = self.slot_mut(slot);
        if from != me {
            st.spoke[from] = true;
        }
        // An EST of a round past our decision asks for the decision. The
        // agreement answers the first asker with its TERM, to everyone;
        // a later one, whose TERM went out before it could hear it (a
        // rejoiner), gets it sent again, to it alone.
        let decided = st.bc.decision().zip(st.bc.decided_round());
        let asks = inner.kind == LeanKind::Est && decided.is_some_and(|(_, r)| inner.round > r);
        let step = st.bc.handle_message(from, inner);
        let answered = step
            .messages
            .iter()
            .any(|m| m.message.kind == LeanKind::Term);
        let mut out = step.forward(|inner| AbMessage::Slot { slot, inner });
        if let Some((value, round)) = decided.filter(|_| asks && !answered && from != me) {
            if !std::mem::replace(&mut st.helped[from], true) {
                let kind = LeanKind::Term;
                let inner = LeanMessage { kind, round, value };
                out.push_unicast(from, AbMessage::Slot { slot, inner });
            }
        }
        out
    }

    /// Votes in the slots of the window that are due. With `open` (the
    /// driver polled) a slot is due up to the last one whose head is here
    /// — the slots before it are opened for that head, and vote 0 unless
    /// their own is here too — unless that is `futile`; and, replaying,
    /// every slot is. A slot is also due once `f + 1` peers have spoken
    /// in it: one of them is correct and opened it.
    pub(super) fn maybe_vote(
        &mut self,
        open: bool,
        has: impl Fn(&BatchId) -> bool,
        out: &mut AbStep,
    ) -> bool {
        let end = self.base + self.width;
        let open_to = if !open {
            None
        } else if self.replaying() {
            Some(end - 1)
        } else if self.is_futile(&has) {
            None
        } else if let Some(s) = (self.base..end).rev().find(|&s| has(&self.head(s))) {
            Some(s)
        } else {
            // A head beyond a window narrower than the group.
            let n = self.ctx.group.n() as u32;
            let beyond = (end..self.base + n).any(|s| has(&self.head(s)));
            beyond.then_some(end - 1)
        };
        let one_correct = self.ctx.group.one_correct();
        let mut progressed = false;
        for slot in self.base..end {
            let st = self.slots.get(&slot);
            if st.is_some_and(|st| st.vote.is_some()) {
                continue;
            }
            let joined =
                st.is_some_and(|st| st.spoke.iter().filter(|s| **s).count() >= one_correct);
            if joined || open_to.is_some_and(|to| slot <= to) {
                let value = has(&self.head(slot)) && !self.byzantine_bottom;
                self.vote(slot, value, out);
                progressed = true;
            }
        }
        progressed
    }

    /// Whether opening a slot on our own is `futile`, updating it with
    /// the heads we hold now and whether a peer opened a slot we have not
    /// voted in.
    fn is_futile(&mut self, has: impl Fn(&BatchId) -> bool) -> bool {
        let n = self.ctx.group.n() as u32;
        let held = |me: &Self| -> Vec<BatchId> {
            (0..n).map(|s| me.head(s)).filter(|id| has(id)).collect()
        };
        if std::mem::take(&mut self.lost) {
            self.futile = Some(held(self));
        }
        let Some(futile) = &self.futile else {
            return false;
        };
        let opened = (self.base..self.base + self.width).any(|s| {
            let st = self.slots.get(&s);
            st.is_some_and(|st| st.vote.is_none() && st.spoke.contains(&true))
        });
        if opened || *futile != held(self) {
            self.futile = None;
        }
        self.futile.is_some()
    }

    /// Proposes `value` to slot `slot`'s agreement. Replaying, it also
    /// asks for the decision with an `EST` of round [`MAX_ROUND_AHEAD`],
    /// above any a slot reaches in practice: a member that decided answers
    /// it with its `TERM`, one that has not will once it does, and `f + 1`
    /// `TERM`s decide. The group ran the slot before this process came
    /// back, so the frames it would decide on are gone.
    fn vote(&mut self, slot: u32, value: bool, out: &mut AbStep) {
        let replaying = self.replaying();
        let st = self.slot_mut(slot);
        st.vote = Some(value);
        let step = st.bc.propose(value).expect("one vote per slot");
        out.extend(step.forward(|inner| AbMessage::Slot { slot, inner }));
        if replaying {
            let (kind, round) = (LeanKind::Est, MAX_ROUND_AHEAD);
            let inner = LeanMessage { kind, round, value };
            out.push_broadcast(AbMessage::Slot { slot, inner });
        }
    }

    /// Concludes the oldest slot once its agreement decided: `Some(ids)`
    /// with the head a 1 orders, `Some(None)` for a 0, and `None` while
    /// undecided.
    pub(super) fn maybe_conclude(&mut self) -> Option<Option<Vec<BatchId>>> {
        let st = self.slots.get(&self.base)?;
        let decision = st.bc.decision()?;
        if let Some(r) = st.bc.decided_round() {
            self.stats.bc_rounds_max = self.stats.bc_rounds_max.max(r);
        }
        self.lost |= !decision && st.vote == Some(true);
        let head = self.head(self.base);
        self.stats.agreements += 1;
        self.stats.bottom_agreements += u64::from(!decision);
        self.ctx.metrics.ab_agreements.inc();
        if decision {
            self.next[head.sender] += 1;
        }
        self.log.push_back(decision);
        if self.log.len() > MAX_ROUND_AHEAD as usize {
            self.log.pop_front();
        }
        self.base += 1;
        // Keep what a laggard may still ask about, and no more.
        let floor = self.base.saturating_sub(MAX_ROUND_AHEAD);
        if self
            .slots
            .first_key_value()
            .is_some_and(|(s, _)| *s < floor)
        {
            self.slots = self.slots.split_off(&floor);
        }
        Some(decision.then(|| vec![head]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ab::tests::{ab_insts, ab_net_with, broadcast, delivered_ids, run_fetching};
    use crate::bc::Profile;
    use crate::mvc::MvcConfig;
    use crate::recovery::select_cursor;
    use crate::testing::Schedule;

    fn lean(_: ProcessId) -> AbConfig {
        let mvc = MvcConfig {
            profile: Profile::Lean,
            ..MvcConfig::default()
        };
        AbConfig {
            mvc,
            ..AbConfig::default()
        }
    }

    #[test]
    fn a_lone_batch_is_ordered_in_its_senders_slot() {
        for (seed, schedule) in Schedule::sweep(0..4) {
            let mut net = ab_net_with(4, 10 + seed, lean);
            net.set_schedule(schedule);
            let id = broadcast(&mut net, 2, b"lone");
            net.run();
            for p in 0..4 {
                assert_eq!(delivered_ids(&net, p), [id], "seed {seed} {schedule}");
                // Slots 0 and 1 open for sender 2's batch and decide 0.
                let stats = net.process(p).stats();
                let slots = (stats.agreements, stats.bottom_agreements);
                assert_eq!(slots, (3, 2), "seed {seed} {schedule} process {p}");
                assert_eq!(net.process(p).round(), 3);
            }
        }
    }

    #[test]
    fn a_rejoiner_replays_the_slots_it_missed() {
        for (seed, schedule) in Schedule::sweep(0..4) {
            let what = format!("seed {seed} {schedule}");
            let mut net = ab_net_with(4, 60 + seed, lean);
            net.set_schedule(schedule);
            for p in 0..4 {
                broadcast(&mut net, p, format!("a{p}").as_bytes());
            }
            net.run();
            // Process 3 goes down. It will be told the group's position
            // now, but not hear the slots the group runs next.
            net.crash(3);
            let hints: Vec<PeerHints> = (0..3).map(|p| net.process(p).hints()).collect();
            let lost = broadcast(&mut net, 0, b"lost");
            net.run();
            // A laggard's round-3 ask has every decider send its TERM while
            // process 3 cannot hear it: its own ask must be answered again.
            let at = hints[0].round;
            for slot in at..at + 4 {
                let (kind, round, value) = (LeanKind::Est, 3, false);
                let inner = LeanMessage { kind, round, value };
                for to in 0..3 {
                    net.inject(3, to, AbMessage::Slot { slot, inner });
                }
            }
            net.run();
            let cursor = select_cursor(3, 4, 1, &hints, &[0; 4], Profile::Lean);
            assert_eq!((cursor.round, cursor.replay_to), (at, at + 4), "{what}");
            assert_eq!(cursor.next_batch, 1, "{what}: own sequence continues");
            // It comes back as a fresh session at that cursor.
            let mut ab = ab_insts(4, 60 + seed, lean).swap_remove(3);
            ab.resume(&cursor);
            assert!(ab.recovering());
            *net.process_mut(3) = ab;
            net.restart(3);
            let before = net.outputs(3).len();
            let step = net.process_mut(3).poll();
            net.absorb(3, step);
            let fresh = [
                broadcast(&mut net, 3, b"back"),
                broadcast(&mut net, 1, b"on"),
            ];
            run_fetching(&mut net, 3);
            let order = delivered_ids(&net, 0);
            let replayed = &delivered_ids(&net, 3)[before..];
            assert!(
                order.ends_with(replayed),
                "{what}: {replayed:?} of {order:?}"
            );
            assert_eq!(replayed[0], lost, "{what}");
            assert!(fresh.iter().all(|id| replayed.contains(id)), "{what}");
            assert!(!net.process(3).recovering(), "{what}");
        }
    }

    #[test]
    fn slot_frames_past_the_window_of_64_are_unjustified() {
        let mut ab = ab_insts(4, 1, lean).swap_remove(0);
        let inner = LeanMessage {
            kind: LeanKind::Est,
            round: 1,
            value: true,
        };
        let far = ab.handle_message(1, AbMessage::Slot { slot: 65, inner });
        assert_eq!(far.faults[0].kind, FaultKind::Unjustified);
        let near = ab.handle_message(1, AbMessage::Slot { slot: 64, inner });
        assert!(near.is_empty());
        // A paper session takes no slot frame, a lean one no vector.
        let paper = ab_insts(4, 1, |_| AbConfig::default()).swap_remove(0);
        let mut paper = paper;
        let step = paper.handle_message(1, AbMessage::Slot { slot: 0, inner });
        assert_eq!(step.faults[0].kind, FaultKind::Malformed);
    }
}
