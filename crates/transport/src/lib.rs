//! The *reliable channel* substrate of the RITAS stack (paper §2.1, §3.2).
//!
//! The paper runs its protocols over point-to-point channels with two
//! properties:
//!
//! * **reliability** — messages between correct processes are eventually
//!   received (provided by TCP in the paper's testbed), and
//! * **integrity** — messages are not modified in the channel (provided by
//!   the IPSec Authentication Header protocol with HMAC-SHA-1-96).
//!
//! This crate substitutes the paper's TCP+IPSec deployment with an
//! in-process equivalent that preserves exactly those two properties:
//!
//! * [`hub`] — an in-memory full-mesh of reliable FIFO links, one inbound
//!   queue per process (per-link ordering and guaranteed delivery, like
//!   TCP), with crash and partition injection for tests;
//! * [`auth`] — an AH-style authentication layer reproducing the IPSec AH
//!   wire format (24-byte header: SPI, sequence number, 96-bit ICV) with
//!   HMAC-SHA-1-96 and anti-replay, so the +24-byte overhead measured in
//!   Table 1 is real in this reproduction too; like AH over TCP, one
//!   header authenticates every message a batch carries
//!   ([`AuthenticatedTransport::send_batch`]). The node runtime wraps
//!   every endpoint in it: integrity, batching and key epochs belong to
//!   this layer alone, and a bare endpoint offers none of them;
//! * [`wire`] — the byte-level codec helpers shared by every layer.
//!
//! # One thread, two queues: [`Transport::wake`]
//!
//! The `ritas` node runtime is the paper's single protocol thread: it
//! owns the endpoint, and it also serves the application's commands. It
//! blocks in one place, [`Transport::recv_timeout`]; a thread that
//! queues a command calls [`Transport::wake`] afterwards, the wait ends
//! with [`TransportError::Timeout`], and the protocol thread looks at
//! its command queue whenever a wait ends. A wake raised while nobody
//! waits ends the next wait at once, so it cannot be lost to the thread
//! going to sleep; it is never delivered as a frame, never counted as a
//! rejected one, and [`Transport::recv`] does not return for it. The
//! hub's inbox keeps it as a flag under the queue's lock, the TCP
//! endpoint as a flag plus a marker in its inbound channel, and
//! [`AuthenticatedTransport`] forwards it to the transport it wraps.
//!
//! The protocol core (`ritas` crate) is sans-io and only consumes the
//! [`Transport`] trait, so the same protocol logic also runs over the
//! deterministic simulator in `ritas-sim`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod auth;
pub mod hub;
pub mod session;
pub mod tcp;
pub mod wire;

use bytes::Bytes;
use std::time::Duration;

/// Identifier of a process in the group `P = {p_0 … p_{n-1}}`.
pub type ProcessId = usize;

/// Errors surfaced by transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination process id is outside `0..n`.
    UnknownPeer(ProcessId),
    /// The endpoint (or its hub) has been shut down.
    Disconnected,
    /// No message arrived within the requested timeout.
    Timeout,
    /// An inbound frame failed authentication and was dropped.
    AuthFailure {
        /// Claimed origin of the rejected frame.
        from: ProcessId,
    },
    /// The link to one peer is down (or its bounded outbound queue is
    /// full) and the message could not be accepted for delivery. Other
    /// links are unaffected; the session layer keeps trying to heal the
    /// link in the background.
    LinkDown {
        /// The unreachable peer.
        peer: ProcessId,
    },
}

impl core::fmt::Display for TransportError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            TransportError::UnknownPeer(p) => write!(f, "unknown peer {p}"),
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::AuthFailure { from } => {
                write!(f, "authentication failure on frame claiming origin {from}")
            }
            TransportError::LinkDown { peer } => {
                write!(f, "link to peer {peer} is down")
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Why a link is terminally down (no further reconnection attempts).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDownReason {
    /// The local endpoint was closed.
    Closed,
    /// The peer's session state is gone (e.g. it restarted and presented
    /// a sequence gap): retransmission can no longer guarantee the
    /// reliable-channel contract, so the link is not resumed.
    PeerStateLost,
}

/// The state of one point-to-point link, as seen by the session layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkState {
    /// The link has a live connection; frames flow immediately.
    Up,
    /// The connection was lost; outbound frames are buffered and the
    /// session layer is re-establishing the link in the background.
    Reconnecting,
    /// The link is terminally down for the given reason.
    Down(LinkDownReason),
}

/// A link-state transition, observable via [`Transport::poll_link_event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkEvent {
    /// The peer on the other end of the link.
    pub peer: ProcessId,
    /// The state the link transitioned into.
    pub state: LinkState,
    /// The session epoch at the time of the transition (increments on
    /// every successful resume handshake).
    pub epoch: u64,
}

/// A point-to-point reliable-channel endpoint for one process.
///
/// Implementations must provide per-link FIFO ordering and reliable
/// delivery between correct processes — the contract the paper obtains
/// from TCP (§2.1). Integrity is not part of this trait: it is
/// [`AuthenticatedTransport`]'s, which wraps one endpoint and also owns
/// batching and key epochs.
pub trait Transport: Send {
    /// This process's identifier.
    fn local_id(&self) -> ProcessId;

    /// Number of processes in the group.
    fn group_size(&self) -> usize;

    /// Sends `payload` to `to` (loopback sends to self are allowed and
    /// delivered like any other message).
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownPeer`] for an out-of-range id and
    /// [`TransportError::Disconnected`] if the endpoint was shut down.
    fn send(&self, to: ProcessId, payload: Bytes) -> Result<(), TransportError>;

    /// Blocks until a message arrives; returns `(sender, payload)`.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] once no message can ever
    /// arrive again.
    fn recv(&self) -> Result<(ProcessId, Bytes), TransportError>;

    /// Like [`Transport::recv`] but gives up after `timeout`.
    ///
    /// # Errors
    ///
    /// [`TransportError::Timeout`] if nothing arrived in time, otherwise as
    /// [`Transport::recv`].
    fn recv_timeout(&self, timeout: Duration) -> Result<(ProcessId, Bytes), TransportError>;

    /// Ends a wait early: a `recv_timeout` blocked on another thread
    /// returns [`TransportError::Timeout`] now; with none blocked, the
    /// next one does, at once. Callable from any thread; one wake ends
    /// one wait, and several before a wait count as one. This is how a
    /// thread that owns the endpoint *and* serves a second queue (the
    /// `ritas` node runtime: frames and application commands) blocks in
    /// one place: whoever fills the other queue calls `wake` afterwards,
    /// and the owner looks at that queue whenever a wait times out. A
    /// wake is not traffic: it never shows as a frame, [`Transport::recv`]
    /// never returns because of it, and it is never lost to a race with
    /// the owner going to sleep.
    ///
    /// The default does nothing, which suits an endpoint nobody waits on
    /// for anything but frames; the owner then sees the other queue when
    /// its timeout expires.
    fn wake(&self) {}

    /// The current state of the link to `peer`.
    ///
    /// Transports without a failure-prone connection underneath (the
    /// in-memory hub, the simulator) are always [`LinkState::Up`], which
    /// is the default.
    fn link_state(&self, peer: ProcessId) -> LinkState {
        let _ = peer;
        LinkState::Up
    }

    /// Drains the next pending link-state transition, if any.
    ///
    /// Transports whose links cannot fail never produce events (the
    /// default). Self-healing transports report `Up` / `Reconnecting` /
    /// `Down` transitions here so the runtime can surface outages to the
    /// application instead of eating them.
    fn poll_link_event(&self) -> Option<LinkEvent> {
        None
    }
}

pub use auth::{AuthConfig, AuthenticatedTransport, AH_OVERHEAD};
pub use hub::{Hub, MemoryEndpoint};
pub use tcp::{TcpChaosHandle, TcpConfig, TcpEndpoint};
