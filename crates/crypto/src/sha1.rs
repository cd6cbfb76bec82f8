//! From-scratch SHA-1 (FIPS 180-4 / RFC 3174).
//!
//! SHA-1 is included because the paper's testbed authenticated the reliable
//! channel with IPSec AH using HMAC-SHA-1 (§4, "the security associations …
//! employed the AH protocol (with SHA-1) in transport mode"). The AH-style
//! layer in `ritas-transport` reproduces that wire format. SHA-1 is long
//! broken for collision resistance; it is used here only to mirror the
//! paper's channel-authentication layer, never as the stack's `H`.

use crate::digest::Digest;

/// Incremental SHA-1 hasher.
///
/// # Example
///
/// ```
/// use ritas_crypto::{Digest, Sha1};
///
/// let digest = Sha1::digest(b"abc");
/// assert_eq!(digest[..4], [0xa9, 0x99, 0x3e, 0x36]);
/// ```
#[derive(Clone, Debug)]
pub struct Sha1 {
    state: [u32; 5],
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Sha1 {
            state: [0x67452301, 0xEFCDAB89, 0x98BADCFE, 0x10325476, 0xC3D2E1F0],
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }
}

/// Round `$i` with round function `$f` and constant `$k`. The schedule
/// is 16 words, rolling: from round 16 on, word `$i` is computed from
/// four earlier ones and written over the word it retires.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $w:ident, $f:ident, $k:expr, $i:expr) => {{
        if $i >= 16 {
            $w[$i & 15] =
                ($w[($i + 13) & 15] ^ $w[($i + 8) & 15] ^ $w[($i + 2) & 15] ^ $w[$i & 15])
                    .rotate_left(1);
        }
        let tmp = $a
            .rotate_left(5)
            .wrapping_add($f($b, $c, $d))
            .wrapping_add($e)
            .wrapping_add($k)
            .wrapping_add($w[$i & 15]);
        $e = $d;
        $d = $c;
        $c = $b.rotate_left(30);
        $b = $a;
        $a = tmp;
    }};
}

/// Twenty rounds from round `$i` on, written out: with every schedule
/// index a constant the sixteen words live in registers whatever the
/// optimiser makes of the caller (left as loops, whether they were
/// unrolled varied from build to build, by 1.8× in speed).
macro_rules! rounds20 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $w:ident, $f:ident, $k:expr, $i:expr) => {{
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 1);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 2);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 3);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 4);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 5);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 6);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 7);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 8);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 9);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 10);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 11);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 12);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 13);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 14);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 15);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 16);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 17);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 18);
        round!($a, $b, $c, $d, $e, $w, $f, $k, $i + 19);
    }};
}

/// The three round functions (FIPS 180-4 §4.1.1).
#[inline(always)]
fn ch(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (!b & d)
}

#[inline(always)]
fn parity(b: u32, c: u32, d: u32) -> u32 {
    b ^ c ^ d
}

#[inline(always)]
fn maj(b: u32, c: u32, d: u32) -> u32 {
    (b & c) | (b & d) | (c & d)
}

impl Sha1 {
    /// The compression function over one 64-byte block: four runs of
    /// twenty rounds, one per round function.
    fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e] = *state;
        rounds20!(a, b, c, d, e, w, ch, 0x5A82_7999, 0);
        rounds20!(a, b, c, d, e, w, parity, 0x6ED9_EBA1, 20);
        rounds20!(a, b, c, d, e, w, maj, 0x8F1B_BCDC, 40);
        rounds20!(a, b, c, d, e, w, parity, 0xCA62_C1D6, 60);

        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
    }
}

impl Digest for Sha1 {
    const OUTPUT_LEN: usize = 20;
    const BLOCK_LEN: usize = 64;
    type Output = [u8; 20];

    fn update(&mut self, mut data: &[u8]) {
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                return;
            }
            Self::compress(&mut self.state, &self.buf);
            self.len += 64;
            self.buf_len = 0;
        }
        let mut blocks = data.chunks_exact(64);
        for block in &mut blocks {
            Self::compress(&mut self.state, block.try_into().expect("64-byte chunk"));
            self.len += 64;
        }
        let tail = blocks.remainder();
        self.buf[..tail.len()].copy_from_slice(tail);
        self.buf_len = tail.len();
    }

    fn finalize(mut self) -> [u8; 20] {
        let total_bits = (self.len + self.buf_len as u64) * 8;
        // Padding: 0x80, zeros to 56 mod 64, the bit length — in the
        // block buffer itself, spilling into a second block when the
        // tail leaves no room for the length.
        self.buf[self.buf_len] = 0x80;
        let mut used = self.buf_len + 1;
        if used > 56 {
            self.buf[used..].fill(0);
            Self::compress(&mut self.state, &self.buf);
            used = 0;
        }
        self.buf[used..56].fill(0);
        self.buf[56..].copy_from_slice(&total_bits.to_be_bytes());
        Self::compress(&mut self.state, &self.buf);

        let mut out = [0u8; 20];
        for (chunk, word) in out.chunks_exact_mut(4).zip(self.state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 3174 / FIPS 180-4 vectors.
    #[test]
    fn rfc_abc() {
        assert_eq!(
            hex(&Sha1::digest(b"abc")),
            "a9993e364706816aba3e25717850c26c9cd0d89d"
        );
    }

    #[test]
    fn rfc_two_blocks() {
        assert_eq!(
            hex(&Sha1::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn empty() {
        assert_eq!(
            hex(&Sha1::digest(b"")),
            "da39a3ee5e6b4b0d3255bfef95601890afd80709"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha1::digest(&data)),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f"
        );
    }

    /// Message lengths on either side of the padding's one-block /
    /// two-block boundary (digests from an independent implementation).
    #[test]
    fn padding_boundaries() {
        for (len, expected) in [
            (55, "04bb34aef4880b625e6b1564a014abd25fc02bfe"),
            (56, "83b9fcb6d3e3b20f376ab989a1b6353bcc6c0f44"),
            (57, "2a1102af8a806e1fe19c618ee2b4721b38d5c797"),
            (63, "ab15090e8dbe512f3733350f9623ab11f9b5165b"),
            (64, "54305ee7e4c7bc5a96afc6d1994fc52d9bcb665f"),
            (65, "5985422a25357371ebd2a7f6ecd7eebed43db42c"),
            (119, "6839d6c27f22ed884ac43ae6bd3bfcee9e04b938"),
            (120, "8c40517a14ab8b78fd4b8958f4e31254a34c3fb0"),
            (128, "22485dc0d1e1d6e9e93e4a2a4667b8e979456379"),
        ] {
            let data: Vec<u8> = (0..len).map(|i| (i * 7 + 1) as u8).collect();
            assert_eq!(hex(&Sha1::digest(&data)), expected, "len={len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0..300u16).map(|i| (i & 0xff) as u8).collect();
        let mut h = Sha1::new();
        h.update(&data[..100]);
        h.update(&data[100..]);
        assert_eq!(h.finalize(), Sha1::digest(&data));
    }
}
