//! HMAC (RFC 2104), generic over the [`Digest`] trait.
//!
//! The paper's reliable channel uses IPSec AH, whose integrity check value
//! is HMAC-SHA-1-96 (RFC 2404): the 20-byte HMAC-SHA-1 output truncated to
//! 12 bytes. `ritas-transport` builds exactly that from this module.

use crate::digest::{ct_eq, Digest};

/// Largest digest block the pad derivation has room for.
const MAX_BLOCK_LEN: usize = 128;

/// An HMAC instance keyed with `K`, computing `H((K' ^ opad) ‖ H((K' ^ ipad) ‖ m))`.
///
/// # Example
///
/// ```
/// use ritas_crypto::{Hmac, Sha256};
///
/// let tag = Hmac::<Sha256>::mac(b"key", b"message");
/// assert!(Hmac::<Sha256>::verify(b"key", b"message", tag.as_ref()));
/// assert!(!Hmac::<Sha256>::verify(b"key", b"tampered", tag.as_ref()));
/// ```
#[derive(Clone)]
pub struct Hmac<D: Digest> {
    /// The inner hash, past the `K' ^ ipad` block and the message so far.
    inner: D,
    /// The outer hash, past the `K' ^ opad` block.
    outer: D,
}

impl<D: Digest> Hmac<D> {
    /// Creates an HMAC instance for `key`.
    ///
    /// Keys longer than the block size are first hashed, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        assert!(D::BLOCK_LEN <= MAX_BLOCK_LEN && D::OUTPUT_LEN <= D::BLOCK_LEN);
        let mut kblock = [0u8; MAX_BLOCK_LEN];
        if key.len() > D::BLOCK_LEN {
            kblock[..D::OUTPUT_LEN].copy_from_slice(D::digest(key).as_ref());
        } else {
            kblock[..key.len()].copy_from_slice(key);
        }
        let past_pad = |pad: u8| {
            let mut hash = D::new();
            hash.update(&kblock.map(|b| b ^ pad)[..D::BLOCK_LEN]);
            hash
        };
        Hmac {
            inner: past_pad(0x36),
            outer: past_pad(0x5c),
        }
    }

    /// Absorbs message data.
    pub fn update(&mut self, data: &[u8]) {
        self.inner.update(data);
    }

    /// Finishes and returns the full-length tag.
    pub fn finalize(mut self) -> D::Output {
        self.outer.update(self.inner.finalize().as_ref());
        self.outer.finalize()
    }

    /// One-shot MAC of `msg` under `key`.
    pub fn mac(key: &[u8], msg: &[u8]) -> D::Output {
        HmacKey::<D>::new(key).mac(&[msg])
    }

    /// Verifies `tag` (possibly truncated) against the MAC of `msg` under
    /// `key` in constant time.
    ///
    /// A truncated `tag` is compared against the tag's prefix, matching
    /// HMAC-SHA-1-96-style truncation. Empty tags never verify.
    #[must_use]
    pub fn verify(key: &[u8], msg: &[u8], tag: &[u8]) -> bool {
        HmacKey::<D>::new(key).verify(&[msg], tag)
    }
}

impl<D: Digest> core::fmt::Debug for Hmac<D> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // The digest states are as good as the key: never print them.
        write!(f, "Hmac(..)")
    }
}

/// A key with its HMAC key schedule done: the inner and outer digest
/// states after the pad blocks, so each MAC under a long-lived key costs
/// only the message's own compressions plus the outer one.
///
/// # Example
///
/// ```
/// use ritas_crypto::{Hmac, HmacKey, Sha1};
///
/// let key = HmacKey::<Sha1>::new(b"link key");
/// let tag = key.mac(&[b"header", b"payload"]);
/// assert_eq!(tag, Hmac::<Sha1>::mac(b"link key", b"headerpayload"));
/// assert!(key.verify(&[b"header", b"payload"], &tag[..12]));
/// ```
#[derive(Clone, Debug)]
pub struct HmacKey<D: Digest>(Hmac<D>);

impl<D: Digest> HmacKey<D> {
    /// Runs the key schedule for `key`.
    pub fn new(key: &[u8]) -> Self {
        HmacKey(Hmac::new(key))
    }

    /// MAC of the concatenation of `parts`.
    pub fn mac(&self, parts: &[&[u8]]) -> D::Output {
        let mut h = self.0.clone();
        for part in parts {
            h.update(part);
        }
        h.finalize()
    }

    /// Verifies `tag` (possibly truncated, never empty) against the MAC
    /// of the concatenation of `parts`, in constant time.
    #[must_use]
    pub fn verify(&self, parts: &[&[u8]], tag: &[u8]) -> bool {
        if tag.is_empty() || tag.len() > D::OUTPUT_LEN {
            return false;
        }
        ct_eq(&self.mac(parts).as_ref()[..tag.len()], tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sha1, Sha256};

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    // RFC 4231 test case 1 (HMAC-SHA-256).
    #[test]
    fn rfc4231_case1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha256>::mac(&key, b"Hi There");
        assert_eq!(
            hex(tag.as_ref()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2: key shorter than block, "what do ya want for nothing?".
    #[test]
    fn rfc4231_case2() {
        let tag = Hmac::<Sha256>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(tag.as_ref()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 6: key longer than block size.
    #[test]
    fn rfc4231_long_key() {
        let key = [0xaa; 131];
        let tag = Hmac::<Sha256>::mac(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(tag.as_ref()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 2202 test case 1 (HMAC-SHA-1).
    #[test]
    fn rfc2202_sha1_case1() {
        let key = [0x0b; 20];
        let tag = Hmac::<Sha1>::mac(&key, b"Hi There");
        assert_eq!(
            hex(tag.as_ref()),
            "b617318655057264e28bc0b6fb378c8ef146be00"
        );
    }

    // RFC 2202 test case 2.
    #[test]
    fn rfc2202_sha1_case2() {
        let tag = Hmac::<Sha1>::mac(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(tag.as_ref()),
            "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
        );
    }

    // RFC 2202 test cases 1, 2, 3 and 6 through the keyed state, the
    // message handed over in pieces; case 6's key is longer than a block.
    #[test]
    fn rfc2202_sha1_keyed_state() {
        for (key, parts, expected) in [
            (
                vec![0x0b; 20],
                vec![&b"Hi "[..], b"There"],
                "b617318655057264e28bc0b6fb378c8ef146be00",
            ),
            (
                b"Jefe".to_vec(),
                vec![&b"what do ya want"[..], b"", b" for nothing?"],
                "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79",
            ),
            (
                vec![0xaa; 20],
                vec![&[0xdd; 25][..], &[0xdd; 25]],
                "125d7342b9ac11cd91a39af48aa17b4f63f175d3",
            ),
            (
                vec![0xaa; 80],
                vec![
                    &b"Test Using Larger Than Block-Size Key"[..],
                    b" - Hash Key First",
                ],
                "aa4ae5e15272d00e95705637ce8a3b55ed402112",
            ),
        ] {
            let keyed = HmacKey::<Sha1>::new(&key);
            assert_eq!(hex(&keyed.mac(&parts)), expected);
            // The key outlives the MAC: a second one is the same.
            assert_eq!(hex(&keyed.mac(&parts)), expected);
        }
    }

    #[test]
    fn debug_output_hides_the_keyed_state() {
        let shown = format!("{:?}", HmacKey::<Sha1>::new(b"secret"));
        assert_eq!(shown, "HmacKey(Hmac(..))");
    }

    #[test]
    fn truncated_verify_hmac_sha1_96() {
        // AH-style: verify on the first 12 bytes of HMAC-SHA-1.
        let key = b"some channel key";
        let full = Hmac::<Sha1>::mac(key, b"payload");
        assert!(Hmac::<Sha1>::verify(key, b"payload", &full.as_ref()[..12]));
        assert!(!Hmac::<Sha1>::verify(key, b"payloae", &full.as_ref()[..12]));
    }

    #[test]
    fn rejects_oversized_or_empty_tags() {
        let tag = Hmac::<Sha1>::mac(b"k", b"m");
        let mut too_long = tag.as_ref().to_vec();
        too_long.push(0);
        assert!(!Hmac::<Sha1>::verify(b"k", b"m", &too_long));
        assert!(!Hmac::<Sha1>::verify(b"k", b"m", &[]));
    }

    #[test]
    fn incremental_equals_oneshot() {
        let mut h = Hmac::<Sha256>::new(b"key");
        h.update(b"hello ");
        h.update(b"world");
        assert_eq!(h.finalize(), Hmac::<Sha256>::mac(b"key", b"hello world"));
    }
}
