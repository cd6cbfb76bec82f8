//! The paper's signature-free message authentication: `H(m ‖ s_ij)`.
//!
//! §2.3: "each process p_i builds a vector V_i with V_i\[j\] = H(m, s_ij) for
//! every 0 ≤ j < n. The hash function H is applied to a concatenation of m
//! with the secret key shared with each process … This is a simple and
//! efficient form of Message Authentication Code". This module implements
//! that MAC plus the hash-*vector* and hash-*matrix* helpers the matrix echo
//! broadcast is built from.

use crate::digest::{ct_eq, Digest};
use crate::keys::{ProcessKeys, SecretKey};
use crate::sha256::Sha256;

/// Length of a MAC tag in bytes (SHA-256 output).
pub const TAG_LEN: usize = 32;

/// A MAC tag `H(m ‖ s_ij)`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacTag(pub [u8; TAG_LEN]);

impl MacTag {
    /// The raw tag bytes.
    pub fn as_bytes(&self) -> &[u8; TAG_LEN] {
        &self.0
    }

    /// Reconstructs a tag from raw bytes (e.g. after wire decoding).
    pub fn from_bytes(bytes: [u8; TAG_LEN]) -> Self {
        MacTag(bytes)
    }
}

impl AsRef<[u8]> for MacTag {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for MacTag {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "MacTag({:02x}{:02x}{:02x}{:02x}…)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

/// `H(m ‖ ·)` with `m` absorbed: the key comes last, so one message
/// under many keys shares the hash state of the prefix and each tag
/// costs only the compressions from the key on.
struct Prefix(Sha256);

impl Prefix {
    fn of(msg: &[u8]) -> Self {
        let mut h = Sha256::new();
        h.update(msg);
        Prefix(h)
    }

    fn tag(&self, key: &SecretKey) -> MacTag {
        let mut h = self.0.clone();
        h.update(key.as_ref());
        MacTag(h.finalize())
    }

    /// Whether `tag` is this message's tag under `key`, in constant time.
    fn verifies(&self, key: &SecretKey, tag: &MacTag) -> bool {
        ct_eq(self.tag(key).as_ref(), tag.as_ref())
    }
}

/// Computes the paper's MAC: `H(m ‖ s)`.
pub fn authenticate(msg: &[u8], key: &SecretKey) -> MacTag {
    Prefix::of(msg).tag(key)
}

/// Verifies `tag == H(m ‖ s)` in constant time.
#[must_use]
pub fn verify(msg: &[u8], key: &SecretKey, tag: &MacTag) -> bool {
    Prefix::of(msg).verifies(key, tag)
}

/// Builds the echo-broadcast hash vector `V_i` for message `m`:
/// `V_i[j] = H(m ‖ s_ij)` for every peer `j` (§2.3).
pub fn hash_vector(msg: &[u8], keys: &ProcessKeys) -> Vec<MacTag> {
    let prefix = Prefix::of(msg);
    (0..keys.len())
        .map(|j| prefix.tag(&keys.key_for(j)))
        .collect()
}

/// Counts how many entries of a received matrix *column* verify for this
/// process.
///
/// In the matrix echo broadcast, process `p_j` receives column `j` of the
/// sender's matrix: one entry per row-process `i`, each supposed to equal
/// `H(m ‖ s_ij)`. Entry `i` is checkable by `p_j` because it knows `s_ij`.
/// Missing entries (`None`, from processes whose VECT the sender did not
/// include) do not count. Delivery requires `f + 1` valid entries.
pub fn count_valid_column_entries(
    msg: &[u8],
    keys: &ProcessKeys,
    column: &[Option<MacTag>],
) -> usize {
    let prefix = Prefix::of(msg);
    column
        .iter()
        .enumerate()
        .filter(|(i, entry)| match (entry, keys.get(*i)) {
            (Some(tag), Some(key)) => prefix.verifies(&key, tag),
            _ => false,
        })
        .count()
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indexing by process id is idiomatic here
mod tests {
    use super::*;
    use crate::keys::KeyTable;

    #[test]
    fn roundtrip() {
        let keys = KeyTable::dealer(4, 1);
        let k = keys.shared_key(0, 1).unwrap();
        let tag = authenticate(b"msg", &k);
        assert!(verify(b"msg", &k, &tag));
    }

    #[test]
    fn rejects_wrong_message() {
        let keys = KeyTable::dealer(4, 1);
        let k = keys.shared_key(0, 1).unwrap();
        let tag = authenticate(b"msg", &k);
        assert!(!verify(b"msG", &k, &tag));
    }

    #[test]
    fn rejects_wrong_key() {
        let keys = KeyTable::dealer(4, 1);
        let k01 = keys.shared_key(0, 1).unwrap();
        let k02 = keys.shared_key(0, 2).unwrap();
        let tag = authenticate(b"msg", &k01);
        assert!(!verify(b"msg", &k02, &tag));
    }

    #[test]
    fn hash_vector_entries_verify_at_the_peer() {
        let table = KeyTable::dealer(4, 9);
        let sender_view = table.view_of(2);
        let v = hash_vector(b"payload", &sender_view);
        assert_eq!(v.len(), 4);
        for j in 0..4 {
            // Peer j verifies entry j with its key shared with process 2.
            let peer_view = table.view_of(j);
            assert!(verify(b"payload", &peer_view.key_for(2), &v[j]));
        }
    }

    #[test]
    fn column_count_matches_valid_entries() {
        // Simulate: processes 0..4, receiver is p_3; rows 0,1 send correct
        // hashes, row 2 sends garbage, row 3 missing.
        let table = KeyTable::dealer(4, 3);
        let msg = b"m";
        let recv = table.view_of(3);
        let col = vec![
            Some(authenticate(msg, &table.view_of(0).key_for(3))),
            Some(authenticate(msg, &table.view_of(1).key_for(3))),
            Some(MacTag([0u8; TAG_LEN])),
            None,
        ];
        assert_eq!(count_valid_column_entries(msg, &recv, &col), 2);
    }

    #[test]
    fn column_count_ignores_out_of_range_rows() {
        let table = KeyTable::dealer(2, 3);
        let recv = table.view_of(0);
        // Column longer than n: extra rows cannot verify.
        let col = vec![
            Some(authenticate(b"m", &table.view_of(0).key_for(0))),
            None,
            Some(MacTag([1u8; TAG_LEN])),
        ];
        assert_eq!(count_valid_column_entries(b"m", &recv, &col), 1);
    }

    /// Message lengths around the SHA-256 block and padding boundaries
    /// (the shared prefix state ends mid-block, at a block edge, or leaves
    /// no room for the length), and a long one.
    const EDGE_LENGTHS: [usize; 8] = [0, 1, 55, 56, 63, 64, 65, 4096];

    /// `hash_vector` and `count_valid_column_entries` over `len` bytes
    /// against per-entry `authenticate` and `verify`, with entry
    /// `corrupt` of the column damaged.
    fn shared_prefix_agrees_with_per_entry(len: usize, n: usize, corrupt: usize, seed: u64) {
        let msg: Vec<u8> = (0..len).map(|i| (i as u64 ^ seed) as u8).collect();
        let table = KeyTable::dealer(n, seed);
        let me = table.view_of(seed as usize % n);
        let v = hash_vector(&msg, &me);
        for j in 0..n {
            assert_eq!(
                v[j],
                authenticate(&msg, &me.key_for(j)),
                "len {len} entry {j}"
            );
        }
        let mut column: Vec<Option<MacTag>> = (0..n)
            .map(|i| Some(authenticate(&msg, &table.view_of(i).key_for(me.me()))))
            .collect();
        column[corrupt % n].as_mut().expect("filled").0[len % TAG_LEN] ^= 0x40;
        column.push(None);
        let per_entry = column
            .iter()
            .enumerate()
            .filter(|(i, e)| matches!((e, me.get(*i)), (Some(t), Some(k)) if verify(&msg, &k, t)))
            .count();
        assert_eq!(per_entry, n - 1);
        assert_eq!(count_valid_column_entries(&msg, &me, &column), per_entry);
    }

    #[test]
    fn shared_prefix_agrees_at_the_block_edges() {
        for len in EDGE_LENGTHS {
            shared_prefix_agrees_with_per_entry(len, 4, len, 7);
        }
    }

    proptest::proptest! {
        #[test]
        fn shared_prefix_agrees_at_any_length(
            len in 0usize..300,
            n in 4usize..8,
            corrupt in 0usize..8,
            seed in 0u64..1000,
        ) {
            shared_prefix_agrees_with_per_entry(len, n, corrupt, seed);
        }
    }

    #[test]
    fn tag_debug_is_prefix_only() {
        let tag = MacTag([0xab; TAG_LEN]);
        assert_eq!(format!("{tag:?}"), "MacTag(abababab…)");
    }
}
