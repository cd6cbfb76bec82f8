//! Property-based tests for the crypto substrate: the hash functions'
//! streaming behaviour, HMAC/MAC verification laws, key-table symmetry
//! and coin determinism — for arbitrary inputs, not just the fixed RFC
//! vectors pinned by the unit tests.

use proptest::prelude::*;
use ritas_crypto::digest::ct_eq;
use ritas_crypto::{
    mac, DeterministicCoin, Digest, Hmac, HmacKey, KeyTable, RoundCoin, Sha1, Sha256,
};

/// RFC 2104 written out: `H((K' ^ opad) ‖ H((K' ^ ipad) ‖ m))` over
/// contiguous buffers, sharing nothing with `hmac.rs` but the digest.
fn reference_hmac<D: Digest>(key: &[u8], msg: &[u8]) -> D::Output {
    let mut kblock = vec![0u8; D::BLOCK_LEN];
    if key.len() > D::BLOCK_LEN {
        kblock[..D::OUTPUT_LEN].copy_from_slice(D::digest(key).as_ref());
    } else {
        kblock[..key.len()].copy_from_slice(key);
    }
    let ipad: Vec<u8> = kblock.iter().map(|b| b ^ 0x36).collect();
    let opad: Vec<u8> = kblock.iter().map(|b| b ^ 0x5c).collect();
    let inner = D::digest_concat(&[&ipad, msg]);
    D::digest_concat(&[&opad, inner.as_ref()])
}

/// The keyed state, fed `msg` cut at `cuts`, against the reference and
/// the one-shot wrapper.
fn keyed_hmac_matches<D: Digest>(key: &[u8], msg: &[u8], cuts: &[u16]) -> bool {
    let mut parts = Vec::new();
    let mut rest = msg;
    for &c in cuts {
        let (head, tail) = rest.split_at(c as usize % (rest.len() + 1));
        parts.push(head);
        rest = tail;
    }
    parts.push(rest);
    let keyed = HmacKey::<D>::new(key);
    let tag = keyed.mac(&parts);
    tag == reference_hmac::<D>(key, msg)
        && tag == Hmac::<D>::mac(key, msg)
        && keyed.verify(&parts, &tag.as_ref()[..12])
}

proptest! {
    /// A key schedule done once gives the RFC 2104 tag however the
    /// message is cut into slices, for keys on both sides of the block
    /// size, under both digests.
    #[test]
    fn keyed_hmac_equals_reference_for_any_split(
        key in proptest::collection::vec(any::<u8>(), 0..200),
        msg in proptest::collection::vec(any::<u8>(), 0..300),
        cuts in proptest::collection::vec(any::<u16>(), 0..5),
    ) {
        prop_assert!(keyed_hmac_matches::<Sha1>(&key, &msg, &cuts));
        prop_assert!(keyed_hmac_matches::<Sha256>(&key, &msg, &cuts));
    }

    /// Feeding data in arbitrary chunkings must produce the one-shot
    /// digest (the classic incremental-hashing law).
    #[test]
    fn sha256_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        splits in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let mut h = Sha256::new();
        let mut rest: &[u8] = &data;
        for s in splits {
            if rest.is_empty() { break; }
            let cut = (s as usize) % rest.len().max(1);
            let (head, tail) = rest.split_at(cut.min(rest.len()));
            h.update(head);
            rest = tail;
        }
        h.update(rest);
        prop_assert_eq!(h.finalize(), Sha256::digest(&data));
    }

    #[test]
    fn sha1_chunking_invariant(
        data in proptest::collection::vec(any::<u8>(), 0..512),
        cut in any::<u16>(),
    ) {
        let cut = (cut as usize) % (data.len() + 1);
        let mut h = Sha1::new();
        h.update(&data[..cut]);
        h.update(&data[cut..]);
        prop_assert_eq!(h.finalize(), Sha1::digest(&data));
    }

    /// Different inputs produce different digests (collision smoke — a
    /// real collision here would be publishable).
    #[test]
    fn sha256_distinguishes_inputs(
        a in proptest::collection::vec(any::<u8>(), 0..128),
        b in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        prop_assume!(a != b);
        prop_assert_ne!(Sha256::digest(&a), Sha256::digest(&b));
    }

    /// HMAC verification accepts exactly the genuine tag.
    #[test]
    fn hmac_verify_laws(
        key in proptest::collection::vec(any::<u8>(), 0..100),
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        flip in any::<u8>(),
    ) {
        let tag = Hmac::<Sha256>::mac(&key, &msg);
        prop_assert!(Hmac::<Sha256>::verify(&key, &msg, tag.as_ref()));
        // Truncated tags (AH-style) verify too.
        prop_assert!(Hmac::<Sha256>::verify(&key, &msg, &tag.as_ref()[..12]));
        // A flipped bit anywhere in the tag must fail.
        let mut bad = tag;
        let i = (flip as usize) % bad.len();
        bad[i] ^= 1 << (flip % 8);
        prop_assert!(!Hmac::<Sha256>::verify(&key, &msg, &bad));
    }

    /// The paper's MAC: verification accepts only the matching
    /// (message, key) pair.
    #[test]
    fn paper_mac_laws(
        msg in proptest::collection::vec(any::<u8>(), 0..200),
        other in proptest::collection::vec(any::<u8>(), 0..200),
        seed in any::<u64>(),
    ) {
        let table = KeyTable::dealer(4, seed);
        let k = table.shared_key(0, 1).unwrap();
        let tag = mac::authenticate(&msg, &k);
        prop_assert!(mac::verify(&msg, &k, &tag));
        if other != msg {
            prop_assert!(!mac::verify(&other, &k, &tag));
        }
        let k2 = table.shared_key(0, 2).unwrap();
        prop_assert!(!mac::verify(&msg, &k2, &tag));
    }

    /// Key tables are symmetric and deterministic for any (n, seed).
    #[test]
    fn key_table_symmetry(n in 1usize..12, seed in any::<u64>()) {
        let t = KeyTable::dealer(n, seed);
        let t2 = KeyTable::dealer(n, seed);
        for i in 0..n {
            for j in 0..n {
                prop_assert_eq!(t.shared_key(i, j), t.shared_key(j, i));
                prop_assert_eq!(t.shared_key(i, j), t2.shared_key(i, j));
            }
        }
    }

    /// ct_eq agrees with ==.
    #[test]
    fn ct_eq_matches_eq(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        prop_assert_eq!(ct_eq(&a, &b), a == b);
    }

    /// Deterministic coins replay exactly per seed.
    #[test]
    fn coin_replay(seed in any::<u64>(), len in 1usize..200) {
        let seq = |s| {
            let mut c = DeterministicCoin::new(s);
            (0..len).map(|_| c.flip_round(1)).collect::<Vec<_>>()
        };
        prop_assert_eq!(seq(seed), seq(seed));
    }
}
