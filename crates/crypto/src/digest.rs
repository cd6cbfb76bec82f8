//! A minimal incremental-hashing trait shared by [`crate::Sha1`] and
//! [`crate::Sha256`].
//!
//! The trait exists so that higher layers ([`crate::Hmac`], the MAC helpers
//! in [`crate::mac`]) can be written once, generic over the hash function,
//! mirroring how the paper treats `H` as an abstract collision-resistant
//! function (§2, "Some protocols use a cryptographic hash function H(m)…").

/// An incremental cryptographic hash function.
///
/// Implementations process input in arbitrary-size chunks via
/// [`Digest::update`] and produce a fixed-size output via
/// [`Digest::finalize`].
///
/// # Example
///
/// ```
/// use ritas_crypto::{Digest, Sha256};
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// assert_eq!(h.finalize(), Sha256::digest(b"hello world"));
/// ```
pub trait Digest: Default + Clone {
    /// Size of the final digest in bytes.
    const OUTPUT_LEN: usize;
    /// Size of the internal compression-function block in bytes.
    const BLOCK_LEN: usize;
    /// Digest output type (a fixed-size byte array).
    type Output: AsRef<[u8]> + Copy + Eq + core::fmt::Debug;

    /// Creates a fresh hasher.
    fn new() -> Self {
        Self::default()
    }

    /// Absorbs `data` into the hash state.
    fn update(&mut self, data: &[u8]);

    /// Consumes the hasher and returns the digest.
    fn finalize(self) -> Self::Output;

    /// One-shot convenience: hash `data` in a single call.
    fn digest(data: &[u8]) -> Self::Output {
        let mut h = Self::new();
        h.update(data);
        h.finalize()
    }

    /// Hashes the concatenation of several byte slices.
    ///
    /// Used for the paper's `H(m, s_ij)` MAC where the message and the
    /// shared secret are concatenated before hashing (§2.3).
    fn digest_concat(parts: &[&[u8]]) -> Self::Output {
        let mut h = Self::new();
        for p in parts {
            h.update(p);
        }
        h.finalize()
    }
}

/// Constant-time equality comparison of two byte slices.
///
/// Returns `false` if lengths differ. Used by MAC verification to avoid
/// leaking the position of the first mismatching byte through timing.
#[must_use]
#[inline]
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    #[test]
    fn ct_eq_equal() {
        assert!(ct_eq(b"abc", b"abc"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn ct_eq_unequal_content() {
        assert!(!ct_eq(b"abc", b"abd"));
    }

    #[test]
    fn ct_eq_unequal_len() {
        assert!(!ct_eq(b"abc", b"abcd"));
    }

    #[test]
    fn digest_concat_matches_single_update() {
        let parts: [&[u8]; 3] = [b"a", b"bc", b"def"];
        assert_eq!(Sha256::digest_concat(&parts), Sha256::digest(b"abcdef"));
        assert_eq!(Sha1::digest_concat(&parts), Sha1::digest(b"abcdef"));
    }

    #[test]
    fn incremental_equals_oneshot_across_block_boundary() {
        // 200 bytes crosses the 64-byte block boundary several times.
        let data: Vec<u8> = (0..200u16).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 127, 128, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split={split}");
        }
    }
}
