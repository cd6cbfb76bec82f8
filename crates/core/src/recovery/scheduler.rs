//! The **proactive recovery scheduler** — rotating wipe-and-rejoin with
//! epoch key refresh (the paper's intrusion-tolerance guarantee, §1).
//!
//! PR 8's reactive machinery recovers a replica *after* something killed
//! it. The paper's stronger claim is that a *stealthy* intruder — one
//! that compromised a replica without tripping any detector — has a
//! bounded lifetime. This module provides that bound: replicas are
//! wiped and rejoined on a rotating schedule, and every rotation round
//! re-derives the pairwise key table under a fresh **epoch**
//! (`HKDF(master, epoch)`), so both the intruder's foothold and any
//! keys it exfiltrated expire with the rotation period.
//!
//! # Slot ordering through atomic broadcast
//!
//! Which replica recovers next is not a local decision: the rotation
//! protocol is itself a replicated state machine. [`RecoveryCommand`]s
//! ride the atomic-broadcast stream (under the RSM's `TAG_RECOVERY`
//! frame tag), so every correct replica applies the same commands in
//! the same order to the same [`RotationState`] — and the safety
//! invariant *at most one replica in Syncing/CatchingUp at a time due
//! to rotation* holds by construction: a second `ScheduleWipe` is
//! rejected by [`RotationState::apply`] while a slot is active, on
//! every replica, deterministically. The atomic-broadcast **origin** of
//! each command is validated too ([`RotationState::apply`] takes the
//! sender): `ScheduleWipe` and `WipeComplete` are accepted only from
//! the victim itself, so a Byzantine peer can neither open somebody
//! else's slot nor forge a `WipeComplete` while the victim is still
//! dark mid-wipe (which would let it immediately schedule the next
//! victim and put two replicas down at once).
//!
//! The protocol round is:
//!
//! 1. the *expected victim* (`next_idx % n`) a-broadcasts
//!    `ScheduleWipe{victim: me, epoch: current + 1}` when its rotation
//!    period fires;
//! 2. applying the accepted `ScheduleWipe` advances the key epoch on
//!    every replica (the transport re-derives its key table; the old
//!    epoch dies after a grace window) and marks the slot active;
//! 3. the victim wipes itself and runs the ordinary rejoin pipeline
//!    (snapshot transfer → catch-up → Live), rejoining under the *new*
//!    epoch, which it learns from authenticated traffic;
//! 4. back Live, the victim a-broadcasts `WipeComplete`, which closes
//!    the slot, advances the rotation cursor, and clears the victim's
//!    pre-wipe suspicion rows;
//! 5. if instead the group is degraded (a stalled node, suspicion
//!    pressure) the victim defers — or any replica clears a slot stuck
//!    longer than [`RotationConfig::abort_after`] — via `DeferWipe`,
//!    so rotation never *voluntarily* pushes the group past `f`
//!    unavailable.
//!
//! [`RotationState`] is part of the replicated state proper: it is
//! carried inside snapshots (appended to the application payload), so a
//! rejoiner resumes the rotation protocol exactly where the group is.

use crate::codec::{Reader, WireError, WireMessage, Writer};
use std::time::Duration;

/// Why a rotation slot was given up instead of executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeferReason {
    /// The victim read as stalled (no a-delivery within its stall
    /// budget) — the group may already be at its failure budget.
    Stalled,
    /// The victim saw suspicion evidence above the configured threshold
    /// — some peer is already misbehaving, so don't also go down.
    Suspicion,
    /// The slot sat active past [`RotationConfig::abort_after`] and a
    /// peer cleared it (the victim likely died mid-wipe; the reactive
    /// path owns it now).
    StuckSlot,
}

impl DeferReason {
    fn code(self) -> u8 {
        match self {
            DeferReason::Stalled => 0,
            DeferReason::Suspicion => 1,
            DeferReason::StuckSlot => 2,
        }
    }

    fn from_code(code: u8) -> Option<Self> {
        match code {
            0 => Some(DeferReason::Stalled),
            1 => Some(DeferReason::Suspicion),
            2 => Some(DeferReason::StuckSlot),
            _ => None,
        }
    }

    /// Stable kebab-case name for dumps and the `/state` endpoint.
    pub fn as_str(self) -> &'static str {
        match self {
            DeferReason::Stalled => "stalled",
            DeferReason::Suspicion => "suspicion",
            DeferReason::StuckSlot => "stuck-slot",
        }
    }
}

/// A rotation-protocol command, ordered through atomic broadcast (the
/// payload of a `TAG_RECOVERY` RSM frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryCommand {
    /// Open a rotation slot: wipe `victim` and advance the key table to
    /// `epoch`. Valid only when *broadcast by* the expected victim, for
    /// the successor epoch, while no slot is active.
    ScheduleWipe {
        /// The replica to be wiped.
        victim: u32,
        /// The key epoch the group rotates to (must be current + 1).
        epoch: u64,
    },
    /// Close the active slot: `victim` is back Live under `epoch`.
    /// Valid only when broadcast by the victim itself — being able to
    /// a-broadcast it under the current epoch *is* the proof of life.
    WipeComplete {
        /// The replica that completed its wipe-and-rejoin.
        victim: u32,
        /// The epoch its slot was scheduled with.
        epoch: u64,
    },
    /// Abandon the active slot without a wipe (or after a failed one).
    /// The self-assessed reasons ([`DeferReason::Stalled`],
    /// [`DeferReason::Suspicion`]) are valid only from the victim;
    /// [`DeferReason::StuckSlot`] is the peers' watchdog path and is
    /// accepted from any replica.
    DeferWipe {
        /// The victim of the abandoned slot.
        victim: u32,
        /// The epoch its slot was scheduled with.
        epoch: u64,
        /// Why the slot was abandoned.
        reason: DeferReason,
    },
}

const CMD_SCHEDULE: u8 = 1;
const CMD_COMPLETE: u8 = 2;
const CMD_DEFER: u8 = 3;

impl WireMessage for RecoveryCommand {
    fn encode(&self, w: &mut Writer) {
        match *self {
            RecoveryCommand::ScheduleWipe { victim, epoch } => {
                w.u8(CMD_SCHEDULE).u32(victim).u64(epoch);
            }
            RecoveryCommand::WipeComplete { victim, epoch } => {
                w.u8(CMD_COMPLETE).u32(victim).u64(epoch);
            }
            RecoveryCommand::DeferWipe {
                victim,
                epoch,
                reason,
            } => {
                w.u8(CMD_DEFER).u32(victim).u64(epoch).u8(reason.code());
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let tag = r.u8("rot.cmd")?;
        let victim = r.u32("rot.victim")?;
        let epoch = r.u64("rot.epoch")?;
        match tag {
            CMD_SCHEDULE => Ok(RecoveryCommand::ScheduleWipe { victim, epoch }),
            CMD_COMPLETE => Ok(RecoveryCommand::WipeComplete { victim, epoch }),
            CMD_DEFER => {
                let code = r.u8("rot.reason")?;
                let reason = DeferReason::from_code(code).ok_or(WireError::InvalidTag {
                    what: "rot.reason",
                    tag: code,
                })?;
                Ok(RecoveryCommand::DeferWipe {
                    victim,
                    epoch,
                    reason,
                })
            }
            _ => Err(WireError::InvalidTag {
                what: "rot.cmd",
                tag,
            }),
        }
    }
}

/// What applying a [`RecoveryCommand`] did to the [`RotationState`] —
/// the driver turns accepted effects into side effects (key switch,
/// gauges, suspicion clearing) *outside* the state lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RotationEffect {
    /// A slot opened; the group's key epoch advanced to `epoch`.
    Scheduled {
        /// The replica now expected to wipe itself.
        victim: u32,
        /// The new key epoch.
        epoch: u64,
    },
    /// The active slot closed successfully.
    Completed {
        /// The rejuvenated replica.
        victim: u32,
        /// The epoch it rejoined under.
        epoch: u64,
    },
    /// The active slot was abandoned.
    Deferred {
        /// The victim of the abandoned slot.
        victim: u32,
        /// The epoch its slot carried.
        epoch: u64,
        /// Why it was abandoned.
        reason: DeferReason,
    },
    /// The command was invalid in the current state and was ignored
    /// (duplicate, stale, out of turn, or out of range). Deterministic
    /// on every replica, so an ignored command is ignored everywhere.
    Rejected,
}

/// The replicated rotation-coordinator state. Pure data + a pure
/// deterministic transition function ([`RotationState::apply`]); lives
/// inside the RSM's recovery core, mutated only by ordered commands,
/// and carried inside snapshots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RotationState {
    /// Current key epoch (advances when a `ScheduleWipe` is accepted).
    pub epoch: u64,
    /// The in-flight slot, `(victim, epoch)`, if any. At most one —
    /// this field *is* the "≤ 1 rotating replica" invariant.
    pub active: Option<(u32, u64)>,
    /// Rotation cursor; the next slot belongs to `next_idx % n`.
    pub next_idx: u64,
    /// Slots closed by `WipeComplete`.
    pub rounds_completed: u64,
    /// Slots closed by `DeferWipe`.
    pub deferrals: u64,
}

impl RotationState {
    /// The replica whose turn the next slot is.
    pub fn expected_victim(&self, n: usize) -> u32 {
        debug_assert!(n > 0);
        (self.next_idx % n as u64) as u32
    }

    /// Applies one ordered command broadcast by `sender` — the
    /// atomic-broadcast origin of the `TAG_RECOVERY` frame, which the
    /// broadcast layer authenticates, so a Byzantine replica cannot
    /// spoof it. Total and deterministic: every correct replica,
    /// applying the same stream, reaches the same state and returns
    /// the same effect.
    ///
    /// Sender discipline: `ScheduleWipe` and `WipeComplete` are valid
    /// only from the victim itself (otherwise one Byzantine replica
    /// could forge `WipeComplete` for a victim still dark mid-wipe and
    /// immediately schedule the next one — two replicas unavailable at
    /// once, breaking the "≤ 1 rotating replica" invariant). `DeferWipe`
    /// with [`DeferReason::StuckSlot`] is the peers' watchdog path and
    /// is accepted from any replica; the self-assessed reasons are
    /// victim-only.
    pub fn apply(&mut self, cmd: &RecoveryCommand, sender: u32, n: usize) -> RotationEffect {
        match *cmd {
            RecoveryCommand::ScheduleWipe { victim, epoch } => {
                if sender != victim
                    || self.active.is_some()
                    || epoch != self.epoch + 1
                    || victim != self.expected_victim(n)
                    || victim as usize >= n
                {
                    return RotationEffect::Rejected;
                }
                self.epoch = epoch;
                self.active = Some((victim, epoch));
                RotationEffect::Scheduled { victim, epoch }
            }
            RecoveryCommand::WipeComplete { victim, epoch } => {
                if sender != victim || self.active != Some((victim, epoch)) {
                    return RotationEffect::Rejected;
                }
                self.active = None;
                self.next_idx += 1;
                self.rounds_completed += 1;
                RotationEffect::Completed { victim, epoch }
            }
            RecoveryCommand::DeferWipe {
                victim,
                epoch,
                reason,
            } => {
                if self.active != Some((victim, epoch))
                    || (reason != DeferReason::StuckSlot && sender != victim)
                {
                    return RotationEffect::Rejected;
                }
                // The cursor advances on deferral too: a victim that is
                // repeatedly unable to rotate must not block everyone
                // else's rejuvenation — it gets its turn again next
                // cycle. (The key epoch already advanced at schedule
                // time, so the round's key refresh is not lost.)
                self.active = None;
                self.next_idx += 1;
                self.deferrals += 1;
                RotationEffect::Deferred {
                    victim,
                    epoch,
                    reason,
                }
            }
        }
    }

    /// Appends the canonical encoding (fixed-width, so snapshot digests
    /// stay byte-identical across replicas).
    pub fn encode(&self, w: &mut Writer) {
        w.u64(self.epoch);
        match self.active {
            Some((victim, epoch)) => {
                w.u8(1).u32(victim).u64(epoch);
            }
            None => {
                w.u8(0).u32(0).u64(0);
            }
        }
        w.u64(self.next_idx)
            .u64(self.rounds_completed)
            .u64(self.deferrals);
    }

    /// Decodes an encoding produced by [`RotationState::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] on truncated or invalid input.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let epoch = r.u64("rot.state.epoch")?;
        let flag = r.u8("rot.state.active")?;
        let victim = r.u32("rot.state.victim")?;
        let slot_epoch = r.u64("rot.state.slot_epoch")?;
        let active = match flag {
            0 => None,
            1 => Some((victim, slot_epoch)),
            _ => {
                return Err(WireError::InvalidTag {
                    what: "rot.state.active",
                    tag: flag,
                })
            }
        };
        Ok(RotationState {
            epoch,
            active,
            next_idx: r.u64("rot.state.next_idx")?,
            rounds_completed: r.u64("rot.state.rounds")?,
            deferrals: r.u64("rot.state.deferrals")?,
        })
    }
}

/// Tuning for the rotation driver (what proposes/defers slots and
/// triggers the self-wipe, stepped by the replica's applier thread — the
/// *liveness* side; safety lives entirely in [`RotationState::apply`]).
#[derive(Debug, Clone)]
pub struct RotationConfig {
    /// How long the expected victim waits, once it is its turn, before
    /// proposing its own slot.
    pub period: Duration,
    /// Any replica clears a slot that has been active this long with
    /// `DeferWipe(StuckSlot)` — the victim presumably died mid-wipe and
    /// the reactive recovery path owns it now.
    pub abort_after: Duration,
    /// Defer the own slot when total suspicion evidence across peers
    /// reaches this level (someone is already misbehaving — do not also
    /// go down voluntarily). `u64::MAX` disables the rule.
    pub suspicion_defer_threshold: u64,
}

impl Default for RotationConfig {
    fn default() -> Self {
        RotationConfig {
            period: Duration::from_secs(30),
            abort_after: Duration::from_secs(120),
            suspicion_defer_threshold: 16,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritas_crypto::XorShift64;

    #[test]
    fn command_codec_roundtrip() {
        let cmds = [
            RecoveryCommand::ScheduleWipe {
                victim: 2,
                epoch: 7,
            },
            RecoveryCommand::WipeComplete {
                victim: 2,
                epoch: 7,
            },
            RecoveryCommand::DeferWipe {
                victim: 0,
                epoch: 1,
                reason: DeferReason::Stalled,
            },
            RecoveryCommand::DeferWipe {
                victim: 3,
                epoch: 9,
                reason: DeferReason::StuckSlot,
            },
        ];
        for cmd in cmds {
            assert_eq!(RecoveryCommand::from_bytes(&cmd.to_bytes()).unwrap(), cmd);
        }
        // Hostile inputs: bad tag, bad reason, truncation.
        assert!(RecoveryCommand::from_bytes(&[9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]).is_err());
        let mut bad_reason = RecoveryCommand::DeferWipe {
            victim: 0,
            epoch: 0,
            reason: DeferReason::Stalled,
        }
        .to_bytes()
        .to_vec();
        *bad_reason.last_mut().unwrap() = 99;
        assert!(RecoveryCommand::from_bytes(&bad_reason).is_err());
        let enc = RecoveryCommand::ScheduleWipe {
            victim: 1,
            epoch: 2,
        }
        .to_bytes();
        assert!(RecoveryCommand::from_bytes(&enc[..enc.len() - 1]).is_err());
    }

    #[test]
    fn state_codec_roundtrip() {
        let states = [
            RotationState::default(),
            RotationState {
                epoch: 5,
                active: Some((2, 5)),
                next_idx: 6,
                rounds_completed: 4,
                deferrals: 1,
            },
        ];
        for s in states {
            let mut w = Writer::new();
            s.encode(&mut w);
            let buf = w.freeze();
            let mut r = Reader::new(&buf);
            assert_eq!(RotationState::decode(&mut r).unwrap(), s);
            r.finish().unwrap();
        }
        // Encoding is fixed-width regardless of the active flag, so
        // snapshot digests cannot diverge on layout.
        let mut a = Writer::new();
        states[0].encode(&mut a);
        let mut b = Writer::new();
        states[1].encode(&mut b);
        assert_eq!(a.freeze().len(), b.freeze().len());
    }

    #[test]
    fn happy_path_full_rotation_of_four() {
        let n = 4;
        let mut st = RotationState::default();
        for round in 0..n as u64 {
            let victim = st.expected_victim(n);
            assert_eq!(victim as u64, round % n as u64);
            let epoch = st.epoch + 1;
            assert_eq!(
                st.apply(&RecoveryCommand::ScheduleWipe { victim, epoch }, victim, n),
                RotationEffect::Scheduled { victim, epoch }
            );
            assert_eq!(st.active, Some((victim, epoch)));
            assert_eq!(
                st.apply(&RecoveryCommand::WipeComplete { victim, epoch }, victim, n),
                RotationEffect::Completed { victim, epoch }
            );
        }
        assert_eq!(st.rounds_completed, n as u64);
        assert_eq!(st.epoch, n as u64);
        assert_eq!(st.deferrals, 0);
        assert_eq!(st.expected_victim(n), 0); // cursor wrapped around
    }

    #[test]
    fn second_schedule_rejected_while_slot_active() {
        let n = 4;
        let mut st = RotationState::default();
        st.apply(
            &RecoveryCommand::ScheduleWipe {
                victim: 0,
                epoch: 1,
            },
            0,
            n,
        );
        // No second slot — from anyone, at any epoch, even the victim
        // proposing itself honestly — while one is active: the "≤ 1
        // non-Live due to rotation" invariant.
        for victim in 0..4 {
            for epoch in [1, 2, 3] {
                assert_eq!(
                    st.apply(&RecoveryCommand::ScheduleWipe { victim, epoch }, victim, n),
                    RotationEffect::Rejected
                );
            }
        }
        assert_eq!(st.active, Some((0, 1)));
    }

    #[test]
    fn out_of_turn_stale_and_mismatched_commands_rejected() {
        let n = 4;
        let mut st = RotationState::default();
        // Not victim 1's turn.
        assert_eq!(
            st.apply(
                &RecoveryCommand::ScheduleWipe {
                    victim: 1,
                    epoch: 1
                },
                1,
                n
            ),
            RotationEffect::Rejected
        );
        // Wrong epoch (not current + 1).
        assert_eq!(
            st.apply(
                &RecoveryCommand::ScheduleWipe {
                    victim: 0,
                    epoch: 2
                },
                0,
                n
            ),
            RotationEffect::Rejected
        );
        // Victim out of range.
        let mut big = RotationState {
            next_idx: 7,
            ..RotationState::default()
        };
        assert_eq!(
            big.apply(
                &RecoveryCommand::ScheduleWipe {
                    victim: 7,
                    epoch: 1
                },
                7,
                4
            ),
            RotationEffect::Rejected
        );
        // Complete/defer without a matching active slot.
        assert_eq!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 0,
                    epoch: 1
                },
                0,
                n
            ),
            RotationEffect::Rejected
        );
        st.apply(
            &RecoveryCommand::ScheduleWipe {
                victim: 0,
                epoch: 1,
            },
            0,
            n,
        );
        assert_eq!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 1,
                    epoch: 1
                },
                1,
                n
            ),
            RotationEffect::Rejected
        );
        assert_eq!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 0,
                    epoch: 2
                },
                0,
                n
            ),
            RotationEffect::Rejected
        );
        // A duplicate completion replays as a no-op rejection.
        assert_ne!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 0,
                    epoch: 1
                },
                0,
                n
            ),
            RotationEffect::Rejected
        );
        assert_eq!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 0,
                    epoch: 1
                },
                0,
                n
            ),
            RotationEffect::Rejected
        );
    }

    #[test]
    fn commands_from_the_wrong_sender_rejected() {
        let n = 4;
        let mut st = RotationState::default();
        // Peer 2 cannot open victim 0's slot on its behalf.
        assert_eq!(
            st.apply(
                &RecoveryCommand::ScheduleWipe {
                    victim: 0,
                    epoch: 1
                },
                2,
                n
            ),
            RotationEffect::Rejected
        );
        assert_eq!(st.active, None);
        // The victim itself opens it.
        assert_eq!(
            st.apply(
                &RecoveryCommand::ScheduleWipe {
                    victim: 0,
                    epoch: 1
                },
                0,
                n
            ),
            RotationEffect::Scheduled {
                victim: 0,
                epoch: 1
            }
        );
        // A Byzantine peer cannot forge `WipeComplete` while the victim
        // is still dark mid-wipe — that would free the slot and let it
        // schedule the next victim, putting two replicas down at once.
        assert_eq!(
            st.apply(
                &RecoveryCommand::WipeComplete {
                    victim: 0,
                    epoch: 1
                },
                2,
                n
            ),
            RotationEffect::Rejected
        );
        assert_eq!(st.active, Some((0, 1)));
        // Self-assessed deferrals are victim-only too.
        for reason in [DeferReason::Stalled, DeferReason::Suspicion] {
            assert_eq!(
                st.apply(
                    &RecoveryCommand::DeferWipe {
                        victim: 0,
                        epoch: 1,
                        reason
                    },
                    3,
                    n
                ),
                RotationEffect::Rejected
            );
        }
        // ...but the stuck-slot watchdog is the *peers'* path: any
        // replica may clear a slot whose victim died mid-wipe.
        assert_eq!(
            st.apply(
                &RecoveryCommand::DeferWipe {
                    victim: 0,
                    epoch: 1,
                    reason: DeferReason::StuckSlot
                },
                3,
                n
            ),
            RotationEffect::Deferred {
                victim: 0,
                epoch: 1,
                reason: DeferReason::StuckSlot
            }
        );
    }

    #[test]
    fn deferral_advances_cursor_but_keeps_epoch() {
        let n = 4;
        let mut st = RotationState::default();
        st.apply(
            &RecoveryCommand::ScheduleWipe {
                victim: 0,
                epoch: 1,
            },
            0,
            n,
        );
        assert_eq!(
            st.apply(
                &RecoveryCommand::DeferWipe {
                    victim: 0,
                    epoch: 1,
                    reason: DeferReason::Stalled
                },
                0,
                n
            ),
            RotationEffect::Deferred {
                victim: 0,
                epoch: 1,
                reason: DeferReason::Stalled
            }
        );
        assert_eq!(st.deferrals, 1);
        assert_eq!(st.rounds_completed, 0);
        // The epoch advanced at schedule time and stays advanced; the
        // next slot belongs to the next replica at epoch 2.
        assert_eq!(st.epoch, 1);
        assert_eq!(st.expected_victim(n), 1);
    }

    /// Property: across arbitrary (adversarial) command schedules, the
    /// replicated state never has more than one active slot, the epoch
    /// is monotone and only moves on accepted schedules, closed slots
    /// are partitioned exactly into completions + deferrals, and two
    /// replicas applying the same stream stay byte-identical.
    #[test]
    fn fuzzed_schedules_preserve_safety_invariants() {
        for seed in 1..=64u64 {
            let mut rng = XorShift64::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
            let n = 3 + (rng.next_u64() % 5) as usize; // 3..=7
            let mut a = RotationState::default();
            let mut b = RotationState::default();
            let mut accepted_schedules = 0u64;
            for _ in 0..512 {
                let victim = (rng.next_u64() % (n as u64 + 2)) as u32; // incl. out-of-range
                let epoch = a.epoch + rng.next_u64() % 3; // current-1..current+2 style drift
                let sender = (rng.next_u64() % (n as u64 + 2)) as u32; // incl. forged origins
                let cmd = match rng.next_u64() % 3 {
                    0 => RecoveryCommand::ScheduleWipe { victim, epoch },
                    1 => RecoveryCommand::WipeComplete { victim, epoch },
                    _ => RecoveryCommand::DeferWipe {
                        victim,
                        epoch,
                        reason: DeferReason::from_code((rng.next_u64() % 3) as u8).unwrap(),
                    },
                };
                let before = a;
                let eff = a.apply(&cmd, sender, n);
                // Same stream, same state: replicas cannot diverge.
                assert_eq!(b.apply(&cmd, sender, n), eff);
                assert_eq!(a, b);
                // ≤ 1 active slot is structural (Option), but check the
                // transition discipline around it.
                match eff {
                    RotationEffect::Scheduled { victim, epoch } => {
                        accepted_schedules += 1;
                        assert!(before.active.is_none());
                        assert_eq!(epoch, before.epoch + 1);
                        assert_eq!(victim, before.expected_victim(n));
                        assert!((victim as usize) < n);
                        assert_eq!(sender, victim); // only the victim schedules itself
                        assert_eq!(a.active, Some((victim, epoch)));
                    }
                    RotationEffect::Completed { victim, .. } => {
                        assert!(before.active.is_some());
                        assert!(a.active.is_none());
                        assert_eq!(a.next_idx, before.next_idx + 1);
                        assert_eq!(sender, victim); // only the victim proves itself Live
                    }
                    RotationEffect::Deferred { victim, reason, .. } => {
                        assert!(before.active.is_some());
                        assert!(a.active.is_none());
                        assert_eq!(a.next_idx, before.next_idx + 1);
                        // Peers may only clear a stuck slot; self-assessed
                        // deferrals must come from the victim.
                        if reason != DeferReason::StuckSlot {
                            assert_eq!(sender, victim);
                        }
                    }
                    RotationEffect::Rejected => assert_eq!(a, before),
                }
                // Epoch is monotone and counts accepted schedules.
                assert!(a.epoch >= before.epoch);
                assert_eq!(a.epoch, accepted_schedules);
                // Closed slots partition into completions + deferrals.
                assert_eq!(
                    a.rounds_completed + a.deferrals + u64::from(a.active.is_some()),
                    accepted_schedules
                );
                // Round-trip through the snapshot codec at every step.
                let mut w = Writer::new();
                a.encode(&mut w);
                let buf = w.freeze();
                assert_eq!(RotationState::decode(&mut Reader::new(&buf)).unwrap(), a);
            }
        }
    }
}
