//! The sans-io step type: what a protocol wants done after handling input.
//!
//! Every protocol state machine in this crate is *sans-io*: handling an
//! input returns a [`Step`] describing the messages to transmit, the
//! outputs to deliver to the layer above, and any faults attributed to
//! peers — nothing is sent or delivered directly. This is the Rust
//! equivalent of the paper's control-block input/output functions (§3.2),
//! and it is what lets the identical protocol logic run over the threaded
//! transport, the deterministic test cluster and the discrete-event
//! simulator.

use crate::ab::{AbDelivery, AbMessage, AtomicBroadcast};
use crate::bc::lean::{LeanConsensus, LeanMessage};
use crate::bc::{BcInstance, BcMessage, BinMessage, BinaryConsensus};
use crate::eb::{EbMessage, EchoBroadcast};
use crate::mvc::{MultiValuedConsensus, MvcMessage, MvcValue};
use crate::rb::{RbMessage, ReliableBroadcast};
use crate::vc::{DecisionVector, VcMessage, VectorConsensus};
use crate::ProcessId;
use bytes::Bytes;

/// Destination of an outgoing protocol message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target {
    /// Send to every process, including the local one (the stack's
    /// broadcasts are n point-to-point sends, as in the paper).
    All,
    /// Send to a single process.
    One(ProcessId),
}

/// An outgoing message with its destination.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Outgoing<M> {
    /// Where to send it.
    pub target: Target,
    /// The message.
    pub message: M,
}

impl<M> Outgoing<M> {
    /// Wraps the message with a different type, preserving the target.
    pub fn map<N>(self, f: impl FnOnce(M) -> N) -> Outgoing<N> {
        Outgoing {
            target: self.target,
            message: f(self.message),
        }
    }
}

/// A fault attributed to a peer while processing its input.
///
/// Faults are observational only — the protocols never act on them (the
/// stack is leader-free and needs no removal/detection machinery, §5) —
/// but tests and the simulator use them to assert that Byzantine behaviour
/// was noticed and ignored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fault {
    /// The peer the fault is attributed to.
    pub from: ProcessId,
    /// Human-readable description (stable prefixes, suitable for asserts).
    pub kind: FaultKind,
}

/// Classification of observed peer misbehaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The message could not be decoded.
    Malformed,
    /// A second, different message where the protocol allows only one
    /// (e.g. two `INIT`s from the sender, two `ECHO`s from one process).
    Equivocation,
    /// A message from a process not entitled to send it (e.g. `INIT` from
    /// a non-sender).
    NotEntitled,
    /// A value failed cryptographic verification.
    BadAuthenticator,
    /// A message that can never validate under Bracha's validation rule.
    Unjustified,
}

impl core::fmt::Display for FaultKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            FaultKind::Malformed => "malformed message",
            FaultKind::Equivocation => "equivocation",
            FaultKind::NotEntitled => "sender not entitled",
            FaultKind::BadAuthenticator => "bad authenticator",
            FaultKind::Unjustified => "unjustified value",
        };
        f.write_str(s)
    }
}

/// The result of feeding one input to a protocol state machine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a Step carries messages that must be transmitted"]
pub struct Step<M, O> {
    /// Messages to transmit.
    pub messages: Vec<Outgoing<M>>,
    /// Outputs for the layer above (deliveries / decisions).
    pub outputs: Vec<O>,
    /// Faults observed while processing.
    pub faults: Vec<Fault>,
}

impl<M, O> Default for Step<M, O> {
    fn default() -> Self {
        Step {
            messages: Vec::new(),
            outputs: Vec::new(),
            faults: Vec::new(),
        }
    }
}

impl<M, O> Step<M, O> {
    /// An empty step: nothing to send, deliver or report.
    pub fn none() -> Self {
        Step::default()
    }

    /// A step that broadcasts one message.
    pub fn broadcast(message: M) -> Self {
        Step {
            messages: vec![Outgoing {
                target: Target::All,
                message,
            }],
            ..Step::default()
        }
    }

    /// A step that unicasts one message.
    pub fn unicast(to: ProcessId, message: M) -> Self {
        Step {
            messages: vec![Outgoing {
                target: Target::One(to),
                message,
            }],
            ..Step::default()
        }
    }

    /// A step that only delivers an output.
    pub fn output(output: O) -> Self {
        Step {
            outputs: vec![output],
            ..Step::default()
        }
    }

    /// A step that only reports a fault.
    pub fn fault(from: ProcessId, kind: FaultKind) -> Self {
        Step {
            faults: vec![Fault { from, kind }],
            ..Step::default()
        }
    }

    /// Whether the step carries nothing at all.
    pub fn is_empty(&self) -> bool {
        self.messages.is_empty() && self.outputs.is_empty() && self.faults.is_empty()
    }

    /// Appends everything from `other`.
    pub fn extend(&mut self, other: Step<M, O>) {
        self.messages.extend(other.messages);
        self.outputs.extend(other.outputs);
        self.faults.extend(other.faults);
    }

    /// Adds a broadcast to this step.
    #[inline]
    pub fn push_broadcast(&mut self, message: M) {
        self.messages.push(Outgoing {
            target: Target::All,
            message,
        });
    }

    /// Adds a unicast to this step.
    #[inline]
    pub fn push_unicast(&mut self, to: ProcessId, message: M) {
        self.messages.push(Outgoing {
            target: Target::One(to),
            message,
        });
    }

    /// Adds an output to this step.
    #[inline]
    pub fn push_output(&mut self, output: O) {
        self.outputs.push(output);
    }

    /// Adds a fault to this step.
    #[inline]
    pub fn push_fault(&mut self, from: ProcessId, kind: FaultKind) {
        self.faults.push(Fault { from, kind });
    }

    /// Re-wraps messages into a parent protocol's message type — how a
    /// parent control block forwards its child's traffic (control block
    /// chaining, §3.3).
    pub fn map_messages<N>(self, mut f: impl FnMut(M) -> N) -> Step<N, O> {
        Step {
            messages: self.messages.into_iter().map(|m| m.map(&mut f)).collect(),
            outputs: self.outputs,
            faults: self.faults,
        }
    }

    /// Converts child outputs into the parent's output type; outputs for
    /// which `f` returns `None` are consumed internally by the parent.
    pub fn map_outputs<P>(self, mut f: impl FnMut(O) -> Option<P>) -> Step<M, P> {
        Step {
            messages: self.messages,
            outputs: self.outputs.into_iter().filter_map(&mut f).collect(),
            faults: self.faults,
        }
    }

    /// A child's step as its parent forwards it: messages re-wrapped by
    /// `f`, faults kept, outputs dropped — the parent takes those out
    /// first and consumes them itself.
    pub fn forward<N, P>(self, mut f: impl FnMut(M) -> N) -> Step<N, P> {
        Step {
            messages: self.messages.into_iter().map(|m| m.map(&mut f)).collect(),
            outputs: Vec::new(),
            faults: self.faults,
        }
    }
}

/// A sans-io protocol state machine: what every layer is to whatever
/// drives it — the [`crate::stack::Stack`] that hosts it, or a
/// [`crate::testing::Net`] of its peers.
pub trait Process {
    /// What it exchanges with its peers.
    type Msg: Clone;
    /// What it hands the layer above.
    type Out;

    /// Handles one message from `from`.
    fn handle_message(&mut self, from: ProcessId, msg: Self::Msg) -> Step<Self::Msg, Self::Out>;

    /// Work that starts outside message handling (agreement rounds): a
    /// driver polls once its inbound queue is drained, so a round may
    /// start at any point of the schedule.
    fn poll(&mut self) -> Step<Self::Msg, Self::Out> {
        Step::none()
    }
}

macro_rules! process {
    ($ty:ty, $msg:ty, $out:ty $(, $poll:ident)?) => {
        impl Process for $ty {
            type Msg = $msg;
            type Out = $out;

            fn handle_message(&mut self, from: ProcessId, msg: $msg) -> Step<$msg, $out> {
                <$ty>::handle_message(self, from, msg)
            }
            $(
            fn poll(&mut self) -> Step<$msg, $out> {
                <$ty>::$poll(self)
            }
            )?
        }
    };
}

process!(ReliableBroadcast, RbMessage, Bytes);
process!(EchoBroadcast, EbMessage, Bytes);
process!(BinaryConsensus, BcMessage, bool);
process!(LeanConsensus, LeanMessage, bool);
process!(BcInstance, BinMessage, bool);
process!(MultiValuedConsensus, MvcMessage, MvcValue);
process!(VectorConsensus, VcMessage, DecisionVector, poll);
process!(AtomicBroadcast, AbMessage, AbDelivery, poll);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_step_is_empty() {
        let s: Step<u8, u8> = Step::none();
        assert!(s.is_empty());
    }

    #[test]
    fn broadcast_constructor() {
        let s: Step<&str, ()> = Step::broadcast("m");
        assert_eq!(s.messages.len(), 1);
        assert_eq!(s.messages[0].target, Target::All);
    }

    #[test]
    fn unicast_constructor() {
        let s: Step<&str, ()> = Step::unicast(2, "m");
        assert_eq!(s.messages[0].target, Target::One(2));
    }

    #[test]
    fn extend_concatenates() {
        let mut a: Step<u8, u8> = Step::broadcast(1);
        let mut b = Step::output(9);
        b.push_fault(3, FaultKind::Equivocation);
        a.extend(b);
        assert_eq!(a.messages.len(), 1);
        assert_eq!(a.outputs, vec![9]);
        assert_eq!(a.faults.len(), 1);
    }

    #[test]
    fn map_messages_preserves_target() {
        let s: Step<u8, ()> = Step::unicast(1, 7);
        let t = s.map_messages(|m| (m, "wrapped"));
        assert_eq!(t.messages[0].target, Target::One(1));
        assert_eq!(t.messages[0].message, (7, "wrapped"));
    }

    #[test]
    fn map_outputs_filters() {
        let mut s: Step<(), u8> = Step::output(1);
        s.push_output(2);
        let t = s.map_outputs(|o| (o > 1).then_some(o * 10));
        assert_eq!(t.outputs, vec![20]);
    }

    #[test]
    fn fault_kind_display() {
        assert_eq!(FaultKind::Equivocation.to_string(), "equivocation");
    }
}
