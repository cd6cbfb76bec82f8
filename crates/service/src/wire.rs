//! The client↔replica wire protocol: length-framed, MAC-authenticated
//! messages over TCP.
//!
//! Every frame is a `u32` big-endian length prefix followed by the frame
//! body; every body ends in a 12-byte HMAC-SHA-1-96 over the preceding
//! bytes — the same construction (and truncation) as the replica mesh's
//! AH layer. The handshake frames ([`Hello`], [`HelloAck`]) are keyed by
//! the pairwise *client link key*
//! ([`ritas_crypto::ClientKeyDealer::link_key`]) of the `(client,
//! replica)` edge the frame travels on; all subsequent [`Request`] and
//! [`Reply`] frames are keyed by the per-connection key
//! ([`connection_key`]) derived from that link key **and both handshake
//! nonces**, with its HMAC key schedule run once per connection, not once
//! per frame. Pairwise keys matter: with one key per client shared by the
//! whole group, a single Byzantine replica could sign replies in its
//! peers' names and fabricate an `f+1` quorum by itself. The nonce-bound
//! connection key matters too: a network adversary replaying a recorded
//! HELLO plus its sealed requests on a fresh connection is stopped at the
//! first request frame, because the replica's fresh nonce changed the key.
//!
//! Frames, by tag:
//!
//! | tag | frame | direction | key |
//! |---|---|---|---|
//! | 1 | [`Hello`] — session registration with a fresh client nonce | client → replica | link key |
//! | 2 | [`HelloAck`] — group parameters, client nonce echoed, fresh server nonce | replica → client | link key |
//! | 3 | [`Request`] — `(client, seq, kind, mode, payload)` | client → replica | connection key |
//! | 4 | [`Reply`] — `(replica, client, seq, status, payload)` | replica → client | connection key |

use bytes::Bytes;
use ritas::codec::{Reader, WireError, Writer};
use ritas_crypto::{digest::ct_eq, Digest, HmacKey, SecretKey, Sha1, Sha256};
use std::io::{Read as IoRead, Write as IoWrite};
use std::sync::atomic::{AtomicU64, Ordering};

/// Length of the truncated HMAC-SHA-1-96 tag on every frame.
pub const MAC_LEN: usize = 12;

/// Hard cap on an accepted frame body (decoder hardening against hostile
/// length prefixes, mirroring the transport's field cap).
pub const MAX_FRAME: usize = 16 * 1024 * 1024 + 1024;

/// Errors produced while decoding or authenticating a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Structural decode failure.
    Wire(WireError),
    /// The MAC did not verify under the expected link key.
    BadMac,
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "malformed frame: {e}"),
            FrameError::BadMac => write!(f, "frame failed MAC authentication"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> Self {
        FrameError::Wire(e)
    }
}

/// What a [`Request`] asks the replica to do. Both kinds are ordered
/// through atomic broadcast; tag 2 is unassigned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    /// Order and apply the payload (a write).
    Apply = 1,
    /// Order a read-only query and evaluate it at its position in the
    /// total order (a read).
    OrderedRead = 3,
}

impl RequestKind {
    fn decode(tag: u8) -> Result<Self, WireError> {
        match tag {
            1 => Ok(RequestKind::Apply),
            3 => Ok(RequestKind::OrderedRead),
            tag => Err(WireError::InvalidTag {
                what: "req.kind",
                tag,
            }),
        }
    }
}

/// Whether the receiving replica should inject the request into the
/// ordered stream or merely wait for it to apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestMode {
    /// Submit through atomic broadcast. The client sends this to `f+1`
    /// replicas so at least one correct replica orders the command.
    Submit = 0,
    /// Observe: answer once the command (submitted elsewhere) applies
    /// locally. Keeps the remaining fan-out legs from flooding the
    /// ordered stream with duplicates.
    Observe = 1,
}

impl RequestMode {
    fn decode(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(RequestMode::Submit),
            1 => Ok(RequestMode::Observe),
            tag => Err(WireError::InvalidTag {
                what: "req.mode",
                tag,
            }),
        }
    }
}

/// Outcome of a request, as reported by one replica. Clients never trust
/// a single status — replies only count once `f+1` replicas agree
/// byte-for-byte on `(status, payload)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Status {
    /// Applied (or read); the payload is the reply.
    Ok = 0,
    /// Admission control refused the request; retry after backoff.
    Busy = 1,
    /// The sequence number was already surpassed and its reply evicted.
    Stale = 2,
    /// The replica could not serve the request (shutting down).
    Error = 3,
}

impl Status {
    fn decode(tag: u8) -> Result<Self, WireError> {
        match tag {
            0 => Ok(Status::Ok),
            1 => Ok(Status::Busy),
            2 => Ok(Status::Stale),
            3 => Ok(Status::Error),
            tag => Err(WireError::InvalidTag {
                what: "reply.status",
                tag,
            }),
        }
    }
}

/// Process-wide salt so two nonces drawn in the same nanosecond are
/// still distinct.
static NONCE_SALT: AtomicU64 = AtomicU64::new(0);

/// Draws a fresh handshake nonce (wall clock ⊕ a process-wide counter).
pub fn fresh_nonce() -> u64 {
    let t = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    t ^ NONCE_SALT
        .fetch_add(0x9E37_79B9_7F4A_7C15, Ordering::Relaxed)
        .rotate_left(17)
}

/// A key frames are sealed and opened under.
pub trait FrameKey {
    /// HMAC-SHA-1 of `body` under this key.
    fn mac(&self, body: &[u8]) -> [u8; 20];
}

/// The raw key: every frame pays its HMAC key schedule, which is fine
/// for the two handshake frames a link key seals per connection.
impl FrameKey for SecretKey {
    fn mac(&self, body: &[u8]) -> [u8; 20] {
        HmacKey::<Sha1>::new(self.as_ref()).mac(&[body])
    }
}

/// A key with its schedule done: what a connection's frames ride on.
impl FrameKey for HmacKey<Sha1> {
    fn mac(&self, body: &[u8]) -> [u8; 20] {
        HmacKey::mac(self, &[body])
    }
}

/// Derives the per-connection frame key from the pairwise link key and
/// both handshake nonces (`SHA-256("ritas-conn-key" ‖ link ‖ client
/// nonce ‖ server nonce)`), keyed once for every frame the connection
/// will carry.
///
/// [`Request`] and [`Reply`] frames are sealed under this key rather
/// than the long-lived link key, which binds them to the live
/// connection in *both* directions: the client's nonce stops HELLO_ACK
/// replay, and the server's nonce stops a recorded HELLO + request
/// transcript from being replayed verbatim on a fresh connection —
/// without the link key, the adversary cannot re-seal the requests
/// under the new connection key.
pub fn connection_key(link: &SecretKey, client_nonce: u64, server_nonce: u64) -> HmacKey<Sha1> {
    let digest = Sha256::digest_concat(&[
        b"ritas-conn-key",
        link.as_ref(),
        &client_nonce.to_be_bytes(),
        &server_nonce.to_be_bytes(),
    ]);
    HmacKey::new(&digest)
}

const TAG_HELLO: u8 = 1;
const TAG_HELLO_ACK: u8 = 2;
const TAG_REQUEST: u8 = 3;
const TAG_REPLY: u8 = 4;

/// Session registration: opens a connection for `client`, carrying a
/// fresh nonce the replica must echo under MAC (so the ack cannot be a
/// replay from an earlier connection).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Hello {
    /// The connecting client.
    pub client: u64,
    /// Fresh per-connection nonce.
    pub nonce: u64,
}

/// Replica's authenticated answer to a [`Hello`]: group parameters, the
/// client's nonce echoed (the ack cannot be a replay), and the replica's
/// own fresh nonce (request frames cannot be replays either — both
/// nonces feed [`connection_key`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The answering replica.
    pub replica: u16,
    /// Group size `n`.
    pub n: u16,
    /// Resilience `f = ⌊(n−1)/3⌋`.
    pub f: u16,
    /// The client's nonce, echoed.
    pub nonce: u64,
    /// The replica's fresh per-connection nonce, challenging the client
    /// in turn.
    pub server_nonce: u64,
}

/// One client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The requesting client (must match the connection's [`Hello`]).
    pub client: u64,
    /// Session sequence number: one per write or read, reused by its
    /// retries, and the key replies are matched on.
    pub seq: u64,
    /// What to do with the payload.
    pub kind: RequestKind,
    /// Submit or observe.
    pub mode: RequestMode,
    /// Opaque application payload.
    pub payload: Bytes,
}

/// One replica's reply to a [`Request`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The answering replica; must match the connection the reply
    /// arrived on, or the client discards it.
    pub replica: u16,
    /// Echo of the request's client.
    pub client: u64,
    /// Echo of the request's sequence number.
    pub seq: u64,
    /// Outcome.
    pub status: Status,
    /// Reply payload (empty unless [`Status::Ok`]).
    pub payload: Bytes,
}

fn seal(mut w: Writer, key: &impl FrameKey) -> Bytes {
    let mac = key.mac(w.as_bytes());
    w.raw(&mac[..MAC_LEN]);
    w.freeze()
}

/// Splits `frame` into body and MAC and verifies the MAC (constant
/// time). Returns the body.
fn verify<'a>(frame: &'a [u8], key: &impl FrameKey) -> Result<&'a [u8], FrameError> {
    if frame.len() < MAC_LEN + 1 {
        return Err(WireError::Truncated { what: "frame" }.into());
    }
    let (body, mac) = frame.split_at(frame.len() - MAC_LEN);
    if !ct_eq(&key.mac(body)[..MAC_LEN], mac) {
        return Err(FrameError::BadMac);
    }
    Ok(body)
}

impl Hello {
    /// Encodes and MACs the frame under `key`.
    pub fn seal(&self, key: &impl FrameKey) -> Bytes {
        let mut w = Writer::new();
        w.u8(TAG_HELLO).u64(self.client).u64(self.nonce);
        seal(w, key)
    }

    /// Reads the unauthenticated client id from a HELLO body so the
    /// receiver can look up the right key, **without** trusting anything
    /// else; callers must still [`Hello::open`] with that key.
    pub fn peek_client(frame: &[u8]) -> Result<u64, FrameError> {
        let mut r = Reader::new(frame);
        let tag = r.u8("hello.tag")?;
        if tag != TAG_HELLO {
            return Err(WireError::InvalidTag {
                what: "hello.tag",
                tag,
            }
            .into());
        }
        Ok(r.u64("hello.client")?)
    }

    /// Verifies and decodes a sealed HELLO.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMac`] on authentication failure, [`FrameError::Wire`]
    /// on structural corruption.
    pub fn open(frame: &[u8], key: &impl FrameKey) -> Result<Self, FrameError> {
        let body = verify(frame, key)?;
        let mut r = Reader::new(body);
        let tag = r.u8("hello.tag")?;
        if tag != TAG_HELLO {
            return Err(WireError::InvalidTag {
                what: "hello.tag",
                tag,
            }
            .into());
        }
        let v = Hello {
            client: r.u64("hello.client")?,
            nonce: r.u64("hello.nonce")?,
        };
        r.finish()?;
        Ok(v)
    }
}

impl HelloAck {
    /// Encodes and MACs the frame under `key`.
    pub fn seal(&self, key: &impl FrameKey) -> Bytes {
        let mut w = Writer::new();
        w.u8(TAG_HELLO_ACK)
            .u16(self.replica)
            .u16(self.n)
            .u16(self.f)
            .u64(self.nonce)
            .u64(self.server_nonce);
        seal(w, key)
    }

    /// Verifies and decodes a sealed HELLO_ACK.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMac`] on authentication failure, [`FrameError::Wire`]
    /// on structural corruption.
    pub fn open(frame: &[u8], key: &impl FrameKey) -> Result<Self, FrameError> {
        let body = verify(frame, key)?;
        let mut r = Reader::new(body);
        let tag = r.u8("ack.tag")?;
        if tag != TAG_HELLO_ACK {
            return Err(WireError::InvalidTag {
                what: "ack.tag",
                tag,
            }
            .into());
        }
        let v = HelloAck {
            replica: r.u16("ack.replica")?,
            n: r.u16("ack.n")?,
            f: r.u16("ack.f")?,
            nonce: r.u64("ack.nonce")?,
            server_nonce: r.u64("ack.server_nonce")?,
        };
        r.finish()?;
        Ok(v)
    }
}

impl Request {
    /// Encodes and MACs the frame under `key`.
    pub fn seal(&self, key: &impl FrameKey) -> Bytes {
        let mut w = Writer::new();
        w.u8(TAG_REQUEST)
            .u64(self.client)
            .u64(self.seq)
            .u8(self.kind as u8)
            .u8(self.mode as u8)
            .bytes(&self.payload);
        seal(w, key)
    }

    /// Verifies and decodes a sealed REQUEST.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMac`] on authentication failure, [`FrameError::Wire`]
    /// on structural corruption.
    pub fn open(frame: &[u8], key: &impl FrameKey) -> Result<Self, FrameError> {
        let body = verify(frame, key)?;
        let mut r = Reader::new(body);
        let tag = r.u8("req.tag")?;
        if tag != TAG_REQUEST {
            return Err(WireError::InvalidTag {
                what: "req.tag",
                tag,
            }
            .into());
        }
        let v = Request {
            client: r.u64("req.client")?,
            seq: r.u64("req.seq")?,
            kind: RequestKind::decode(r.u8("req.kind")?)?,
            mode: RequestMode::decode(r.u8("req.mode")?)?,
            payload: r.bytes("req.payload")?,
        };
        r.finish()?;
        Ok(v)
    }
}

impl Reply {
    /// Encodes and MACs the frame under `key`.
    pub fn seal(&self, key: &impl FrameKey) -> Bytes {
        let mut w = Writer::new();
        w.u8(TAG_REPLY)
            .u16(self.replica)
            .u64(self.client)
            .u64(self.seq)
            .u8(self.status as u8)
            .bytes(&self.payload);
        seal(w, key)
    }

    /// Verifies and decodes a sealed REPLY.
    ///
    /// # Errors
    ///
    /// [`FrameError::BadMac`] on authentication failure, [`FrameError::Wire`]
    /// on structural corruption.
    pub fn open(frame: &[u8], key: &impl FrameKey) -> Result<Self, FrameError> {
        let body = verify(frame, key)?;
        let mut r = Reader::new(body);
        let tag = r.u8("reply.tag")?;
        if tag != TAG_REPLY {
            return Err(WireError::InvalidTag {
                what: "reply.tag",
                tag,
            }
            .into());
        }
        let v = Reply {
            replica: r.u16("reply.replica")?,
            client: r.u64("reply.client")?,
            seq: r.u64("reply.seq")?,
            status: Status::decode(r.u8("reply.status")?)?,
            payload: r.bytes("reply.payload")?,
        };
        r.finish()?;
        Ok(v)
    }
}

/// Writes one length-prefixed frame.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame(w: &mut impl IoWrite, frame: &[u8]) -> std::io::Result<()> {
    let len = u32::try_from(frame.len())
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame too long"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(frame)?;
    w.flush()
}

/// Reads one length-prefixed frame, rejecting hostile lengths above
/// [`MAX_FRAME`].
///
/// # Errors
///
/// Propagates the underlying I/O error; oversized prefixes surface as
/// [`std::io::ErrorKind::InvalidData`].
pub fn read_frame(r: &mut impl IoRead) -> std::io::Result<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "frame length exceeds cap",
        ));
    }
    let mut buf = vec![0u8; len];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

/// Reads one frame from a stream with a read timeout set, retrying
/// timeouts until data arrives, the peer closes, or `stop` is raised.
/// Partial reads across timeouts are resumed, never dropped — a slow
/// sender must not desynchronize the framing. `None` means "stop
/// reading" (shutdown, EOF, or hard error).
pub fn read_frame_polling(
    stream: &mut std::net::TcpStream,
    stop: &std::sync::atomic::AtomicBool,
) -> Option<Vec<u8>> {
    let mut len_buf = [0u8; 4];
    read_exact_polling(stream, &mut len_buf, stop)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return None;
    }
    let mut buf = vec![0u8; len];
    read_exact_polling(stream, &mut buf, stop)?;
    Some(buf)
}

/// `read_exact` that survives read timeouts (rechecking `stop`) and
/// resumes partially filled buffers.
fn read_exact_polling(
    stream: &mut std::net::TcpStream,
    buf: &mut [u8],
    stop: &std::sync::atomic::AtomicBool,
) -> Option<()> {
    use std::sync::atomic::Ordering;
    let mut filled = 0;
    while filled < buf.len() {
        if stop.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return None, // peer closed
            Ok(k) => filled += k,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                continue
            }
            Err(_) => return None,
        }
    }
    Some(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ritas_crypto::ClientKeyDealer;

    fn key() -> SecretKey {
        ClientKeyDealer::new(7).link_key(3, 1)
    }

    #[test]
    fn hello_roundtrip_and_peek() {
        let h = Hello {
            client: 3,
            nonce: 0xDEAD,
        };
        let frame = h.seal(&key());
        assert_eq!(Hello::peek_client(&frame).unwrap(), 3);
        assert_eq!(Hello::open(&frame, &key()).unwrap(), h);
    }

    #[test]
    fn hello_ack_roundtrip() {
        let a = HelloAck {
            replica: 1,
            n: 4,
            f: 1,
            nonce: 0xBEEF,
            server_nonce: 0xCAFE,
        };
        assert_eq!(HelloAck::open(&a.seal(&key()), &key()).unwrap(), a);
    }

    #[test]
    fn connection_key_binds_both_nonces() {
        // Keyed states do not compare; the tags they give one body do.
        let tag = |k: &HmacKey<Sha1>| FrameKey::mac(k, b"probe");
        let k = connection_key(&key(), 1, 2);
        assert_eq!(tag(&k), tag(&connection_key(&key(), 1, 2)));
        // Either side refreshing its nonce yields a different key, so a
        // frame recorded on one connection never verifies on another.
        assert_ne!(tag(&k), tag(&connection_key(&key(), 1, 3)));
        assert_ne!(tag(&k), tag(&connection_key(&key(), 3, 2)));
        assert_ne!(tag(&k), FrameKey::mac(&key(), b"probe"));
        let rq = Request {
            client: 3,
            seq: 1,
            kind: RequestKind::Apply,
            mode: RequestMode::Submit,
            payload: Bytes::from_static(b"cmd"),
        };
        // A request sealed for one connection is a replay on the next.
        assert_eq!(
            Request::open(&rq.seal(&k), &connection_key(&key(), 1, 3)).unwrap_err(),
            FrameError::BadMac
        );
    }

    #[test]
    fn raw_and_keyed_forms_of_a_key_seal_alike() {
        let rq = Request {
            client: 3,
            seq: 1,
            kind: RequestKind::Apply,
            mode: RequestMode::Submit,
            payload: Bytes::from_static(b"cmd"),
        };
        let keyed = HmacKey::<Sha1>::new(key().as_ref());
        assert_eq!(rq.seal(&key()), rq.seal(&keyed));
        assert_eq!(Request::open(&rq.seal(&key()), &keyed).unwrap(), rq);
    }

    #[test]
    fn fresh_nonces_distinct() {
        let a = fresh_nonce();
        let b = fresh_nonce();
        assert_ne!(a, b);
    }

    #[test]
    fn request_reply_roundtrip() {
        let rq = Request {
            client: 3,
            seq: 9,
            kind: RequestKind::Apply,
            mode: RequestMode::Submit,
            payload: Bytes::from_static(b"cmd"),
        };
        assert_eq!(Request::open(&rq.seal(&key()), &key()).unwrap(), rq);
        // Kind byte 2 is unassigned: a well-MAC'd request carrying it is
        // malformed.
        let mut w = Writer::new();
        w.u8(TAG_REQUEST)
            .u64(3)
            .u64(9)
            .u8(2)
            .u8(RequestMode::Submit as u8)
            .bytes(b"cmd");
        assert!(matches!(
            Request::open(&seal(w, &key()), &key()),
            Err(FrameError::Wire(WireError::InvalidTag {
                what: "req.kind",
                ..
            }))
        ));
        let rp = Reply {
            replica: 1,
            client: 3,
            seq: 9,
            status: Status::Ok,
            payload: Bytes::from_static(b"result"),
        };
        assert_eq!(Reply::open(&rp.seal(&key()), &key()).unwrap(), rp);
    }

    #[test]
    fn wrong_key_rejected() {
        let h = Hello {
            client: 3,
            nonce: 1,
        };
        let other = ClientKeyDealer::new(7).link_key(3, 2);
        assert_eq!(
            Hello::open(&h.seal(&key()), &other).unwrap_err(),
            FrameError::BadMac
        );
    }

    #[test]
    fn bitflip_rejected() {
        let rq = Request {
            client: 3,
            seq: 1,
            kind: RequestKind::OrderedRead,
            mode: RequestMode::Observe,
            payload: Bytes::from_static(b"q"),
        };
        let mut bad = rq.seal(&key()).to_vec();
        bad[10] ^= 0x40;
        assert_eq!(Request::open(&bad, &key()).unwrap_err(), FrameError::BadMac);
    }

    #[test]
    fn truncated_rejected() {
        assert!(matches!(
            Reply::open(&[1, 2, 3], &key()),
            Err(FrameError::Wire(WireError::Truncated { .. }))
        ));
    }

    #[test]
    fn frame_io_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"abc").unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cur).unwrap(), b"abc");
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(u32::MAX).to_be_bytes());
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cur).unwrap_err().kind(),
            std::io::ErrorKind::InvalidData
        );
    }
}
