//! Session-layer primitives that make the TCP reliable channel *actually*
//! reliable (paper §2.1).
//!
//! The paper assumes channels where "if both ends are correct, the message
//! is eventually delivered" and realizes them with TCP+IPSec — but a bare
//! TCP connection voids that assumption the moment a socket dies. This
//! module holds the sans-io pieces [`crate::TcpEndpoint`] composes into a
//! self-healing link:
//!
//! * **frame header** — every frame carries a per-link monotone sequence
//!   number and a cumulative acknowledgement (`[len][seq][ack][payload]`);
//!   `seq == 0` marks ACK-only control frames;
//! * **[`RetransmitBuffer`]** — a bounded store of unacknowledged frames.
//!   It never evicts an unacked frame: when full, senders experience
//!   backpressure instead of silent loss;
//! * **[`Hello`]** — the MAC-authenticated session-resume handshake.
//!   Epochs are strictly increasing per link, so a replayed handshake is
//!   rejected; the exchanged `rx_cum` values tell each side exactly which
//!   frames to retransmit, making reconnects lossless and (thanks to
//!   receive-side dedup) duplicate-free;
//! * **[`Backoff`]** — exponential reconnect backoff with deterministic
//!   jitter.

use crate::wire::{Reader, Writer};
use crate::ProcessId;
use bytes::Bytes;
use ritas_crypto::{Hmac, SecretKey, Sha1, XorShift64};
use std::collections::VecDeque;
use std::time::Duration;

/// Bytes of session header per frame after the `u32` length prefix:
/// `u64` sequence number + `u64` cumulative ack.
pub const SESSION_HDR: usize = 16;

/// Magic tag opening a dialer's hello.
pub const MAGIC_HELLO: u32 = 0x5253_4E31; // "RSN1"

/// Magic tag opening an acceptor's hello-ack.
pub const MAGIC_HELLO_ACK: u32 = 0x5253_4E32; // "RSN2"

/// Truncated HMAC-SHA-1-96 tag length, as in the AH layer above.
pub const HELLO_MAC_LEN: usize = 12;

/// Fixed encoded size of a [`Hello`] (either direction).
pub const HELLO_LEN: usize = 4 + 4 + 4 + 8 + 8 + HELLO_MAC_LEN;

/// Encodes one session frame: `[u32 len][u64 seq][u64 ack][payload]`.
/// A `seq` of zero is an ACK-only control frame and carries no payload
/// for the stack.
pub fn encode_frame(seq: u64, ack: u64, payload: &[u8]) -> Bytes {
    let mut w = Writer::with_capacity(4 + SESSION_HDR + payload.len());
    w.u32((SESSION_HDR + payload.len()) as u32)
        .u64(seq)
        .u64(ack)
        .raw(payload);
    w.freeze()
}

/// The session-resume handshake message.
///
/// The dialer opens every (re)connection with a hello carrying a strictly
/// increasing `epoch` and its cumulative receive sequence; the acceptor
/// answers with a hello-ack echoing the epoch and carrying its own
/// `rx_cum`. Both messages are authenticated with HMAC-SHA-1-96 under the
/// pairwise link key, with the direction tag, both process ids, the epoch
/// and the cumulative sequence all inside the MAC — so a handshake can
/// neither be forged, redirected, nor replayed (a replay carries a stale
/// epoch and is rejected by the monotonicity check).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// Sender of the handshake message.
    pub from: ProcessId,
    /// Intended receiver.
    pub to: ProcessId,
    /// Session epoch (dialer-chosen, strictly increasing per link; the
    /// hello-ack echoes the dialer's epoch).
    pub epoch: u64,
    /// Highest contiguous data sequence the sender has received on this
    /// link — the peer retransmits everything above it.
    pub rx_cum: u64,
}

impl Hello {
    fn mac(&self, key: &SecretKey, ack: bool) -> [u8; HELLO_MAC_LEN] {
        let mut w = Writer::with_capacity(32);
        w.u8(if ack { 2 } else { 1 })
            .u32(self.from as u32)
            .u32(self.to as u32)
            .u64(self.epoch)
            .u64(self.rx_cum);
        let full = Hmac::<Sha1>::mac(key.as_ref(), &w.freeze());
        let mut out = [0u8; HELLO_MAC_LEN];
        out.copy_from_slice(&full[..HELLO_MAC_LEN]);
        out
    }

    /// Encodes and authenticates the handshake (`ack` selects the
    /// hello-ack direction).
    pub fn encode(&self, key: &SecretKey, ack: bool) -> [u8; HELLO_LEN] {
        let mut w = Writer::with_capacity(HELLO_LEN);
        w.u32(if ack { MAGIC_HELLO_ACK } else { MAGIC_HELLO })
            .u32(self.from as u32)
            .u32(self.to as u32)
            .u64(self.epoch)
            .u64(self.rx_cum)
            .raw(&self.mac(key, ack));
        let bytes = w.freeze();
        let mut out = [0u8; HELLO_LEN];
        out.copy_from_slice(&bytes);
        out
    }

    /// Parses a handshake without verifying it (the acceptor must learn
    /// `from` before it can pick the right key). Returns the hello and
    /// its claimed MAC; callers **must** check [`Hello::verify`].
    pub fn parse(buf: &[u8; HELLO_LEN], ack: bool) -> Option<(Hello, [u8; HELLO_MAC_LEN])> {
        let mut r = Reader::new(buf);
        let magic = r.u32("hello.magic").ok()?;
        if magic != if ack { MAGIC_HELLO_ACK } else { MAGIC_HELLO } {
            return None;
        }
        let from = r.u32("hello.from").ok()? as ProcessId;
        let to = r.u32("hello.to").ok()? as ProcessId;
        let epoch = r.u64("hello.epoch").ok()?;
        let rx_cum = r.u64("hello.rx_cum").ok()?;
        let mac: [u8; HELLO_MAC_LEN] = r.array("hello.mac").ok()?;
        Some((
            Hello {
                from,
                to,
                epoch,
                rx_cum,
            },
            mac,
        ))
    }

    /// Constant-time MAC verification against the pairwise key.
    pub fn verify(&self, mac: &[u8; HELLO_MAC_LEN], key: &SecretKey, ack: bool) -> bool {
        ritas_crypto::digest::ct_eq(&self.mac(key, ack), mac)
    }
}

/// Bounded store of sent-but-unacknowledged frames on one link.
///
/// Unacked frames are **never** evicted — dropping one would reintroduce
/// exactly the silent message loss the session layer exists to prevent.
/// When the buffer is full the sender must wait (backpressure) or surface
/// [`crate::TransportError::LinkDown`].
#[derive(Debug)]
pub struct RetransmitBuffer {
    frames: VecDeque<(u64, Bytes)>,
    bytes: usize,
    max_frames: usize,
    max_bytes: usize,
}

impl RetransmitBuffer {
    /// Creates a buffer bounded by `max_frames` and `max_bytes`
    /// (whichever is hit first; one frame is always admitted).
    pub fn new(max_frames: usize, max_bytes: usize) -> Self {
        RetransmitBuffer {
            frames: VecDeque::new(),
            bytes: 0,
            max_frames: max_frames.max(1),
            max_bytes,
        }
    }

    /// Whether another frame may be admitted.
    pub fn has_space(&self) -> bool {
        self.frames.is_empty()
            || (self.frames.len() < self.max_frames && self.bytes < self.max_bytes)
    }

    /// Number of buffered (unacked) frames.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether nothing is awaiting acknowledgement.
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// Admits the frame with sequence `seq` (sequences must be pushed in
    /// increasing order).
    pub fn push(&mut self, seq: u64, payload: Bytes) {
        debug_assert!(self.frames.back().is_none_or(|(s, _)| *s < seq));
        self.bytes += payload.len();
        self.frames.push_back((seq, payload));
    }

    /// Drops every frame with sequence ≤ `cum` (cumulative ack). Returns
    /// how many frames were released.
    pub fn ack(&mut self, cum: u64) -> usize {
        let mut dropped = 0;
        while let Some((seq, payload)) = self.frames.front() {
            if *seq > cum {
                break;
            }
            self.bytes -= payload.len();
            self.frames.pop_front();
            dropped += 1;
        }
        dropped
    }

    /// Iterates the buffered frames in sequence order (for retransmission
    /// after a resume handshake).
    pub fn iter(&self) -> impl Iterator<Item = (u64, &Bytes)> {
        self.frames.iter().map(|(s, p)| (*s, p))
    }
}

/// Exponential backoff with deterministic jitter for reconnect attempts.
#[derive(Debug)]
pub struct Backoff {
    min: Duration,
    max: Duration,
    attempt: u32,
    rng: XorShift64,
}

impl Backoff {
    /// Creates a backoff schedule in `[min, max]`, seeded for jitter.
    pub fn new(min: Duration, max: Duration, seed: u64) -> Self {
        Backoff {
            min,
            max,
            attempt: 0,
            rng: XorShift64::new(seed | 1),
        }
    }

    /// The delay before the next attempt: `min · 2^attempt` capped at
    /// `max`, jittered into `[base/2, base]` so a mesh of dialers does
    /// not thunder in lockstep.
    pub fn next_delay(&mut self) -> Duration {
        let base = self
            .min
            .saturating_mul(1u32 << self.attempt.min(16))
            .min(self.max);
        self.attempt = self.attempt.saturating_add(1);
        let base_ns = base.as_nanos() as u64;
        let jittered = base_ns / 2 + self.rng.next_u64() % (base_ns / 2 + 1);
        Duration::from_nanos(jittered)
    }

    /// Resets the schedule after a successful attempt.
    pub fn reset(&mut self) {
        self.attempt = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritas_crypto::KeyTable;

    fn key() -> SecretKey {
        KeyTable::dealer(2, 7).view_of(0).key_for(1)
    }

    #[test]
    fn frame_roundtrip() {
        let f = encode_frame(5, 3, b"payload");
        assert_eq!(&f[..4], &((SESSION_HDR + 7) as u32).to_be_bytes());
        let mut r = Reader::new(&f[4..]);
        assert_eq!(r.u64("seq").unwrap(), 5);
        assert_eq!(r.u64("ack").unwrap(), 3);
        assert_eq!(r.raw(7, "payload").unwrap(), b"payload");
    }

    #[test]
    fn hello_roundtrip_and_verify() {
        let h = Hello {
            from: 0,
            to: 1,
            epoch: 3,
            rx_cum: 42,
        };
        let buf = h.encode(&key(), false);
        let (parsed, mac) = Hello::parse(&buf, false).unwrap();
        assert_eq!(parsed, h);
        assert!(parsed.verify(&mac, &key(), false));
    }

    #[test]
    fn hello_direction_and_tamper_rejected() {
        let h = Hello {
            from: 0,
            to: 1,
            epoch: 1,
            rx_cum: 0,
        };
        let buf = h.encode(&key(), false);
        // A dialer hello does not parse as an ack (magic differs)…
        assert!(Hello::parse(&buf, true).is_none());
        // …and its MAC does not verify under the ack domain either.
        let (parsed, mac) = Hello::parse(&buf, false).unwrap();
        assert!(!parsed.verify(&mac, &key(), true));
        // A flipped epoch bit fails verification.
        let mut bad = buf;
        bad[12] ^= 0x01;
        let (parsed, mac) = Hello::parse(&bad, false).unwrap();
        assert!(!parsed.verify(&mac, &key(), false));
    }

    #[test]
    fn retransmit_buffer_acks_cumulatively_and_backpressures() {
        let mut b = RetransmitBuffer::new(3, usize::MAX);
        for seq in 1..=3 {
            assert!(b.has_space());
            b.push(seq, Bytes::from(vec![0u8; 10]));
        }
        assert!(!b.has_space(), "frame cap must backpressure");
        assert_eq!(b.ack(2), 2);
        assert!(b.has_space());
        assert_eq!(b.iter().map(|(s, _)| s).collect::<Vec<_>>(), vec![3]);
        assert_eq!(b.ack(100), 1);
        assert!(b.is_empty());
    }

    #[test]
    fn retransmit_buffer_byte_cap() {
        let mut b = RetransmitBuffer::new(usize::MAX, 100);
        b.push(1, Bytes::from(vec![0u8; 200]));
        // The first frame always fits; the byte cap blocks the second.
        assert!(!b.has_space());
        b.ack(1);
        assert!(b.has_space());
    }

    #[test]
    fn backoff_grows_to_cap_with_jitter() {
        let min = Duration::from_millis(10);
        let max = Duration::from_millis(500);
        let mut b = Backoff::new(min, max, 99);
        let mut last = Duration::ZERO;
        for _ in 0..10 {
            let d = b.next_delay();
            assert!(d >= min / 2, "below jitter floor: {d:?}");
            assert!(d <= max, "above cap: {d:?}");
            last = d;
        }
        assert!(last >= max / 2, "did not reach the cap region: {last:?}");
        b.reset();
        assert!(b.next_delay() <= min, "reset did not restart the schedule");
    }

    #[test]
    fn backoff_jitter_known_answers() {
        // Pinned from the pre-`XorShift64` `Backoff`: every reconnect
        // schedule of a seeded TCP mesh depends on this stream.
        let draws = |seed| {
            let mut b = Backoff::new(Duration::ZERO, Duration::ZERO, seed);
            (0..16).map(|_| b.rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            draws(1),
            [
                0x47e4_ce4b_896c_dd1d,
                0xabcf_a6a8_e079_651d,
                0xb9d1_0d8f_eb73_1f57,
                0x4db4_18a0_bb1b_019d,
                0x0e61_99b0_4d5a_a600,
                0xc867_4bcb_42e3_aad9,
                0xd052_b2d8_d46e_7181,
                0xac71_8cf8_ce31_398d,
                0x56b2_b122_e948_3038,
                0xbffa_b238_424d_3a95,
                0x7fb3_3871_5ebc_2cde,
                0x2d53_666f_8cdb_ba9c,
                0x27a6_c0f1_4fd1_5210,
                0xbc75_2df0_c2a5_9aff,
                0xdff1_c948_ec62_1e61,
                0xa1e9_39fb_928e_0e31,
            ]
        );
        assert_eq!(
            draws(0xDEAD_BEEF),
            [
                0x4615_1251_b681_bada,
                0x7db2_11d8_263e_f2a6,
                0x4bfd_eea9_8d3b_4d52,
                0xb96c_3191_798b_f3f9,
                0x223f_37a4_71e5_e3ab,
                0xf094_01e7_0d79_ad3b,
                0x9153_660a_8f58_4523,
                0x35ec_156e_a5ef_3271,
                0x5b9e_dfc0_fd5e_e3dc,
                0x5877_8700_6f62_56c3,
                0x3184_14a1_3cc1_6035,
                0x5e75_27c5_42e5_fb53,
                0x2464_1d07_69be_3d87,
                0x5866_d274_361f_9e2f,
                0xc797_7189_8eb9_4d5a,
                0x15e6_146a_3884_8dc6,
            ]
        );
    }
}
