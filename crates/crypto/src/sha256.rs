//! From-scratch SHA-256 (FIPS 180-4).
//!
//! This is the default hash `H` for the stack's MACs. The implementation is
//! a dependency-free, safe-code rendition of the standard — the 64 rounds
//! written out over a 16-word rolling schedule, as in `sha1.rs` — pinned
//! by the NIST example vectors in the test module below.

use crate::digest::Digest;

/// Round constants: first 32 bits of the fractional parts of the cube roots
/// of the first 64 primes (FIPS 180-4 §4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash value: first 32 bits of the fractional parts of the square
/// roots of the first 8 primes (FIPS 180-4 §5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use ritas_crypto::{Digest, Sha256};
///
/// let digest = Sha256::digest(b"abc");
/// assert_eq!(digest[..4], [0xba, 0x78, 0x16, 0xbf]);
/// ```
#[derive(Clone, Debug)]
pub struct Sha256 {
    state: [u32; 8],
    /// Total message length in bytes processed so far (excluding `buf`).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha256 {
    fn default() -> Self {
        Sha256 {
            state: H0,
            len: 0,
            buf: [0u8; 64],
            buf_len: 0,
        }
    }
}

/// Round `$i`. The schedule is 16 words, rolling: from round 16 on,
/// word `$i` is computed from four earlier ones and written over the
/// word it retires. The eight working variables do not move; the caller
/// rotates their *names* from one round to the next.
macro_rules! round {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $w:ident, $i:expr) => {{
        if $i >= 16 {
            let w15 = $w[($i + 1) & 15];
            let w2 = $w[($i + 14) & 15];
            $w[$i & 15] = $w[$i & 15]
                .wrapping_add(w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3))
                .wrapping_add($w[($i + 9) & 15])
                .wrapping_add(w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10));
        }
        let t1 = $h
            .wrapping_add($e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25))
            .wrapping_add(($e & $f) ^ (!$e & $g))
            .wrapping_add(K[$i])
            .wrapping_add($w[$i & 15]);
        $d = $d.wrapping_add(t1);
        $h = t1
            .wrapping_add($a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22))
            .wrapping_add(($a & $b) ^ ($a & $c) ^ ($b & $c));
    }};
}

/// Eight rounds from round `$i` on, written out, after which the names
/// are back where they started. With every schedule index a constant the
/// sixteen words live in registers whatever the optimiser makes of the
/// caller (see `sha1.rs`).
macro_rules! rounds8 {
    ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident, $w:ident, $i:expr) => {{
        round!($a, $b, $c, $d, $e, $f, $g, $h, $w, $i);
        round!($h, $a, $b, $c, $d, $e, $f, $g, $w, $i + 1);
        round!($g, $h, $a, $b, $c, $d, $e, $f, $w, $i + 2);
        round!($f, $g, $h, $a, $b, $c, $d, $e, $w, $i + 3);
        round!($e, $f, $g, $h, $a, $b, $c, $d, $w, $i + 4);
        round!($d, $e, $f, $g, $h, $a, $b, $c, $w, $i + 5);
        round!($c, $d, $e, $f, $g, $h, $a, $b, $w, $i + 6);
        round!($b, $c, $d, $e, $f, $g, $h, $a, $w, $i + 7);
    }};
}

impl Sha256 {
    /// The compression function over one 64-byte block.
    fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
        let mut w = [0u32; 16];
        for (word, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        rounds8!(a, b, c, d, e, f, g, h, w, 0);
        rounds8!(a, b, c, d, e, f, g, h, w, 8);
        rounds8!(a, b, c, d, e, f, g, h, w, 16);
        rounds8!(a, b, c, d, e, f, g, h, w, 24);
        rounds8!(a, b, c, d, e, f, g, h, w, 32);
        rounds8!(a, b, c, d, e, f, g, h, w, 40);
        rounds8!(a, b, c, d, e, f, g, h, w, 48);
        rounds8!(a, b, c, d, e, f, g, h, w, 56);

        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

impl Digest for Sha256 {
    const OUTPUT_LEN: usize = 32;
    const BLOCK_LEN: usize = 64;
    type Output = [u8; 32];

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

    fn finalize(mut self) -> [u8; 32] {
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

        let mut out = [0u8; 32];
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

    // NIST FIPS 180-4 example vectors + RFC-style extras.
    #[test]
    fn nist_empty() {
        assert_eq!(
            hex(&Sha256::digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            hex(&Sha256::digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_two_blocks() {
        assert_eq!(
            hex(&Sha256::digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&Sha256::digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn exact_block_lengths() {
        // 55/56/64 bytes are the padding edge cases.
        let expected_55 = "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318";
        assert_eq!(hex(&Sha256::digest(&[b'a'; 55])), expected_55);
        let expected_56 = "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a";
        assert_eq!(hex(&Sha256::digest(&[b'a'; 56])), expected_56);
        let expected_64 = "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb";
        assert_eq!(hex(&Sha256::digest(&[b'a'; 64])), expected_64);
    }

    #[test]
    fn incremental_byte_at_a_time() {
        let mut h = Sha256::new();
        for b in b"abc" {
            h.update(&[*b]);
        }
        assert_eq!(h.finalize(), Sha256::digest(b"abc"));
    }
}
