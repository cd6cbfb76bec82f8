//! Byte-level codec helpers shared by every layer of the stack.
//!
//! The paper's implementation passes *mbufs* (message buffers) between
//! layers (§3.2); this module is our equivalent of the header read/write
//! routines those mbufs carry. All integers are big-endian ("network
//! order"), variable-length fields are length-prefixed with a `u32`.
//!
//! # Shared readers
//!
//! A [`Reader`] comes in two kinds. [`Reader::new`] reads a borrowed
//! slice and *copies* every length-prefixed field out of it — right for
//! input whose buffer is about to be reused or that was never a
//! [`Bytes`] (the service wire, recovery, tests). [`Reader::shared`]
//! reads a [`Bytes`] and hands length-prefixed fields and the unread
//! rest up as *views* of it, the way the paper's mbufs are handed up
//! rather than copied (§3.2): the protocol stack decodes every inbound
//! frame this way. Both kinds accept and reject exactly the same input
//! with exactly the same errors, and every bound is checked before a
//! view is taken.
//!
//! **Retention rule.** A view shares the allocation of the frame it was
//! cut from, so it keeps the *whole* frame alive for as long as it
//! lives. The places that hold views past the handling of a frame each
//! pin at most one frame per entry, and the pinned frame is no larger
//! than the payload it carries plus a few header words: the payload
//! table of a reliable-broadcast instance (≤ 2n + 1 entries, freed with
//! the instance), atomic broadcast's `received` and `retained` batches
//! (the batch was going to be kept anyway; its command payloads are
//! views of it, not copies), and the `AbDelivery::payload` handed to the
//! application. Code that wants to keep a *small* field of a *large*
//! frame for a long time should copy it (`Bytes::copy_from_slice`).

use bytes::{BufMut, Bytes, BytesMut};

/// Maximum accepted length for a length-prefixed field (16 MiB). A decoder
/// limit, not a protocol limit: it bounds allocation when decoding hostile
/// input from Byzantine peers.
pub const MAX_FIELD_LEN: usize = 16 * 1024 * 1024;

/// Headroom a transport frame may add on top of the largest field: layer
/// headers, authentication headers, session seq/ack words and smaller
/// sibling fields all fit comfortably within it.
pub const FRAME_HEADROOM: usize = 1024 * 1024;

/// Maximum accepted transport frame length, **derived** from the codec's
/// field cap so the two can never drift apart: any frame a correct peer
/// can produce decodes into fields of at most [`MAX_FIELD_LEN`] plus
/// bounded header overhead.
pub const MAX_FRAME: usize = MAX_FIELD_LEN + FRAME_HEADROOM;

/// Errors produced while decoding wire data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the expected field.
    Truncated {
        /// What was being decoded.
        what: &'static str,
    },
    /// A length prefix exceeded [`MAX_FIELD_LEN`].
    FieldTooLong {
        /// What was being decoded.
        what: &'static str,
        /// The offending length.
        len: usize,
    },
    /// A fixed-size field arrived with another length.
    BadLength {
        /// What was being decoded.
        what: &'static str,
        /// The length it arrived with.
        len: usize,
    },
    /// A tag/discriminant byte had no defined meaning.
    InvalidTag {
        /// What was being decoded.
        what: &'static str,
        /// The offending tag value.
        tag: u8,
    },
    /// Trailing bytes remained after a complete decode.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Truncated { what } => write!(f, "truncated input while decoding {what}"),
            WireError::FieldTooLong { what, len } => {
                write!(f, "field {what} too long ({len} bytes)")
            }
            WireError::BadLength { what, len } => {
                write!(f, "field {what} has the wrong length ({len} bytes)")
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after decode")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// A decoding cursor over a byte slice.
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    /// The unread input.
    buf: &'a [u8],
    /// The buffer `buf` is the tail of, when fields are handed out as
    /// views of it (see the module docs).
    src: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Wraps `buf` for decoding; length-prefixed fields are copied out.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, src: None }
    }

    /// Wraps `src` for decoding; length-prefixed fields and
    /// [`Reader::rest`] are views of `src`, not copies, and keep it
    /// alive (see the module docs for the retention rule).
    #[inline]
    pub fn shared(src: &'a Bytes) -> Self {
        Reader {
            buf: src,
            src: Some(src),
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    /// Fails with [`WireError::TrailingBytes`] unless the input was fully
    /// consumed.
    pub fn finish(self) -> Result<(), WireError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.buf.len(),
            })
        }
    }

    #[inline]
    fn take(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        if self.buf.len() < len {
            return Err(WireError::Truncated { what });
        }
        let (head, tail) = self.buf.split_at(len);
        self.buf = tail;
        Ok(head)
    }

    /// Reads one byte.
    #[inline]
    pub fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, what: &'static str) -> Result<u16, WireError> {
        let b = self.take(2, what)?;
        Ok(u16::from_be_bytes([b[0], b[1]]))
    }

    /// Reads a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, what: &'static str) -> Result<u32, WireError> {
        let b = self.take(4, what)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Reads exactly `N` raw bytes into an array.
    pub fn array<const N: usize>(&mut self, what: &'static str) -> Result<[u8; N], WireError> {
        let b = self.take(N, what)?;
        let mut a = [0u8; N];
        a.copy_from_slice(b);
        Ok(a)
    }

    /// Takes the next `len` bytes as a `Bytes`: a view of the source
    /// for a shared reader, a copy otherwise.
    #[inline]
    fn take_bytes(&mut self, len: usize, what: &'static str) -> Result<Bytes, WireError> {
        let unread = self.buf.len();
        let head = self.take(len, what)?;
        Ok(match self.src {
            Some(src) => {
                let at = src.len() - unread;
                src.slice(at..at + len)
            }
            None => Bytes::copy_from_slice(head),
        })
    }

    /// Reads a `u32`-length-prefixed byte field.
    pub fn bytes(&mut self, what: &'static str) -> Result<Bytes, WireError> {
        let len = self.u32(what)? as usize;
        if len > MAX_FIELD_LEN {
            return Err(WireError::FieldTooLong { what, len });
        }
        self.take_bytes(len, what)
    }

    /// Consumes everything not yet read (a frame body behind its
    /// header) as one field.
    pub fn rest(&mut self) -> Bytes {
        self.take_bytes(self.buf.len(), "rest")
            .expect("the unread input is as long as itself")
    }

    /// Reads exactly `len` raw (non-prefixed) bytes.
    pub fn raw(&mut self, len: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        self.take(len, what)
    }
}

/// An encoding buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: BytesMut,
}

impl Writer {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// Creates a writer with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: BytesMut::with_capacity(cap),
        }
    }

    /// Appends one byte.
    #[inline]
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.put_u8(v);
        self
    }

    /// Appends a big-endian `u16`.
    #[inline]
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.put_u16(v);
        self
    }

    /// Appends a big-endian `u32`.
    #[inline]
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.put_u32(v);
        self
    }

    /// Appends a big-endian `u64`.
    #[inline]
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.put_u64(v);
        self
    }

    /// Appends a `u32`-length-prefixed byte field.
    ///
    /// # Panics
    ///
    /// Panics if `v` exceeds `u32::MAX` bytes (unreachable for our frames).
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.buf
            .put_u32(u32::try_from(v.len()).expect("field length fits in u32"));
        self.buf.put_slice(v);
        self
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, v: &[u8]) -> &mut Self {
        self.buf.put_slice(v);
        self
    }

    /// What has been encoded so far (for a MAC over it that is then
    /// appended).
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Current encoded length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding and returns the immutable buffer.
    pub fn freeze(self) -> Bytes {
        self.buf.freeze()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut w = Writer::new();
        w.u8(7).u16(1000).u32(70_000).u64(u64::MAX);
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u16("b").unwrap(), 1000);
        assert_eq!(r.u32("c").unwrap(), 70_000);
        assert_eq!(r.u64("d").unwrap(), u64::MAX);
        r.finish().unwrap();
    }

    #[test]
    fn roundtrip_bytes() {
        let mut w = Writer::new();
        w.bytes(b"hello").bytes(b"");
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        assert_eq!(r.bytes("x").unwrap(), Bytes::from_static(b"hello"));
        assert_eq!(r.bytes("y").unwrap(), Bytes::new());
        r.finish().unwrap();
    }

    #[test]
    fn truncated_scalar() {
        let mut r = Reader::new(&[0x01]);
        assert_eq!(
            r.u32("field").unwrap_err(),
            WireError::Truncated { what: "field" }
        );
    }

    #[test]
    fn truncated_bytes_body() {
        let mut w = Writer::new();
        w.u32(10).raw(b"abc"); // claims 10, provides 3
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes("f"), Err(WireError::Truncated { .. })));
    }

    #[test]
    fn oversized_length_prefix_rejected() {
        let mut w = Writer::new();
        w.u32((MAX_FIELD_LEN + 1) as u32);
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        assert!(matches!(r.bytes("f"), Err(WireError::FieldTooLong { .. })));
    }

    /// Whether `view` lies inside the memory `src` occupies.
    fn inside(src: &Bytes, view: &Bytes) -> bool {
        let (lo, hi) = (src.as_ptr() as usize, src.as_ptr() as usize + src.len());
        let at = view.as_ptr() as usize;
        lo <= at && at + view.len() <= hi
    }

    #[test]
    fn shared_reader_hands_out_views_and_new_reader_copies() {
        let mut w = Writer::new();
        w.u8(9).bytes(b"hello").bytes(b"").raw(b"tail");
        let src = w.freeze();

        let mut r = Reader::shared(&src);
        assert_eq!(r.u8("tag").unwrap(), 9);
        let field = r.bytes("field").unwrap();
        let empty = r.bytes("empty").unwrap();
        let rest = r.rest();
        r.finish().unwrap();
        assert_eq!(
            (&field[..], &empty[..], &rest[..]),
            (&b"hello"[..], &b""[..], &b"tail"[..])
        );
        for view in [&field, &empty, &rest] {
            assert!(inside(&src, view), "a shared reader's field is a view");
        }
        assert_eq!(field.as_ptr() as usize, src.as_ptr() as usize + 5);

        let mut r = Reader::new(&src);
        assert_eq!(r.u8("tag").unwrap(), 9);
        let copy = r.bytes("field").unwrap();
        assert_eq!(copy, field);
        assert!(!inside(&src, &copy), "a borrowing reader's field is a copy");
        let _ = r.bytes("empty").unwrap();
        assert_eq!(r.rest(), rest);
        r.finish().unwrap();
    }

    #[test]
    fn shared_reader_checks_bounds_before_taking_a_view() {
        let mut w = Writer::new();
        w.u32((MAX_FIELD_LEN + 1) as u32);
        let oversized = w.freeze();
        let mut w = Writer::new();
        w.u32(10).raw(b"abc"); // claims 10, provides 3
        let short = w.freeze();
        for (src, want) in [
            (
                &oversized,
                WireError::FieldTooLong {
                    what: "f",
                    len: MAX_FIELD_LEN + 1,
                },
            ),
            (&short, WireError::Truncated { what: "f" }),
        ] {
            assert_eq!(Reader::shared(src).bytes("f").unwrap_err(), want);
            assert_eq!(Reader::new(src).bytes("f").unwrap_err(), want);
        }
        // A source that is itself a view: offsets are the reader's own.
        let mut w = Writer::new();
        w.raw(b"pad").bytes(b"hi").raw(b"!");
        let src = w.freeze().slice(3..);
        let mut r = Reader::shared(&src);
        let field = r.bytes("f").unwrap();
        assert_eq!(&field[..], b"hi");
        assert_eq!(field.as_ptr() as usize, src.as_ptr() as usize + 4);
        assert_eq!(&r.rest()[..], b"!");
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut w = Writer::new();
        w.u8(1).u8(2);
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        r.u8("a").unwrap();
        assert_eq!(
            r.finish().unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn array_roundtrip() {
        let mut w = Writer::new();
        w.raw(&[1, 2, 3, 4]);
        let buf = w.freeze();
        let mut r = Reader::new(&buf);
        assert_eq!(r.array::<4>("arr").unwrap(), [1, 2, 3, 4]);
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            WireError::Truncated { what: "x" },
            WireError::FieldTooLong { what: "x", len: 1 },
            WireError::InvalidTag { what: "x", tag: 9 },
            WireError::TrailingBytes { remaining: 3 },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
