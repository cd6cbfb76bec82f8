//! Pairwise shared secret keys, and the common-coin secret dealt with
//! them.
//!
//! The paper's model (§2): "Each pair of processes (p_i, p_j) shares a
//! secret key s_ij. It is out of the scope of the paper to present a
//! solution for distributing these keys, but it may require a trusted
//! dealer…". We provide exactly that: a [`KeyTable`] per process, and a
//! deterministic [`KeyTable::dealer`] constructor that derives the full
//! pairwise key matrix from a master seed (for tests, simulation and the
//! examples — a production deployment would load dealt keys instead).
//! The same dealer hands every process the secret of the common coin
//! ([`ProcessKeys::coin`]), derived from the master seed alone.

use crate::coin::{SharedCoin, SharedCoinDealer};
use crate::digest::Digest;
use crate::sha256::Sha256;

/// Length of a shared secret key in bytes.
pub const KEY_LEN: usize = 32;

/// A pairwise shared secret `s_ij`.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SecretKey([u8; KEY_LEN]);

impl SecretKey {
    /// Wraps raw key bytes.
    pub fn from_bytes(bytes: [u8; KEY_LEN]) -> Self {
        SecretKey(bytes)
    }

    /// The raw key bytes.
    pub fn as_bytes(&self) -> &[u8; KEY_LEN] {
        &self.0
    }
}

impl AsRef<[u8]> for SecretKey {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl core::fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        // Never print key material.
        write!(f, "SecretKey(..)")
    }
}

/// The pairwise keys held by one process: `s_ij` for every peer `j`.
///
/// Keys are symmetric: `s_ij == s_ji`, so the table dealt to process `i`
/// and the table dealt to process `j` agree on the key they share.
///
/// # Example
///
/// ```
/// use ritas_crypto::KeyTable;
///
/// let t0 = KeyTable::dealer(4, 7).view_of(0);
/// let t1 = KeyTable::dealer(4, 7).view_of(1);
/// assert_eq!(t0.key_for(1), t1.key_for(0));
/// assert_ne!(t0.key_for(1), t0.key_for(2));
/// ```
#[derive(Clone, Debug)]
pub struct KeyTable {
    n: usize,
    /// Full symmetric matrix; entry `(i, j)` is `s_ij` (only the upper
    /// triangle is distinct). A per-process *view* exposes one row.
    matrix: Vec<SecretKey>,
    /// The common coin's secret, the same in every epoch.
    coin: SharedCoinDealer,
}

impl KeyTable {
    /// Acts as the trusted dealer: derives the full `n × n` pairwise key
    /// matrix deterministically from `master_seed`.
    ///
    /// Key derivation is `SHA-256("ritas-key" ‖ seed ‖ min(i,j) ‖ max(i,j))`,
    /// which guarantees symmetry (`s_ij == s_ji`) and pairwise-distinct keys.
    /// The coin secret is [`SharedCoinDealer::new`] of the same seed.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn dealer(n: usize, master_seed: u64) -> Self {
        assert!(n > 0, "key table needs at least one process");
        let mut matrix = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
                let digest = Sha256::digest_concat(&[
                    b"ritas-key",
                    &master_seed.to_be_bytes(),
                    &lo.to_be_bytes(),
                    &hi.to_be_bytes(),
                ]);
                matrix.push(SecretKey(digest));
            }
        }
        KeyTable {
            n,
            matrix,
            coin: SharedCoinDealer::new(master_seed),
        }
    }

    /// Acts as the trusted dealer for one rotation **epoch**: derives the
    /// pairwise key matrix for `(master_seed, epoch)`.
    ///
    /// Epoch `0` is exactly [`KeyTable::dealer`] — existing deployments
    /// and recorded traffic stay valid, and a freshly wiped replica that
    /// has not yet learned the cluster's epoch can still authenticate
    /// enough to be told it (there is no flag day). For `epoch > 0` the
    /// matrix is re-derived through HKDF-SHA256: a per-epoch master
    /// `HKDF(master_seed, "ritas-epoch" ‖ epoch)` is expanded into each
    /// pairwise key, so every proactive-recovery round rotates every
    /// `s_ij` and keys exfiltrated before a wipe stop authenticating
    /// traffic once the grace window closes. The coin secret does not
    /// rotate: it is the master seed's in every epoch, so a rejoiner
    /// flips the coins the group flips.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn dealer_for_epoch(n: usize, master_seed: u64, epoch: u64) -> Self {
        if epoch == 0 {
            return KeyTable::dealer(n, master_seed);
        }
        assert!(n > 0, "key table needs at least one process");
        let mut info = Vec::with_capacity(b"ritas-epoch".len() + 8);
        info.extend_from_slice(b"ritas-epoch");
        info.extend_from_slice(&epoch.to_be_bytes());
        let prk = crate::hkdf::extract(&info, &master_seed.to_be_bytes());
        let mut matrix = Vec::with_capacity(n * n);
        for i in 0..n {
            for j in 0..n {
                let (lo, hi) = (i.min(j) as u64, i.max(j) as u64);
                let mut pair_info = Vec::with_capacity(b"ritas-key".len() + 16);
                pair_info.extend_from_slice(b"ritas-key");
                pair_info.extend_from_slice(&lo.to_be_bytes());
                pair_info.extend_from_slice(&hi.to_be_bytes());
                let mut key = [0u8; KEY_LEN];
                crate::hkdf::expand(&prk, &pair_info, &mut key);
                matrix.push(SecretKey(key));
            }
        }
        KeyTable {
            n,
            matrix,
            coin: SharedCoinDealer::new(master_seed),
        }
    }

    /// Number of processes the table was dealt for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the table is empty (never true for a dealt table).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The key shared between processes `i` and `j`, or `None` when either
    /// index is out of range.
    pub fn shared_key(&self, i: usize, j: usize) -> Option<SecretKey> {
        if i < self.n && j < self.n {
            Some(self.matrix[i * self.n + j])
        } else {
            None
        }
    }

    /// Extracts the per-process view held by process `me`.
    ///
    /// # Panics
    ///
    /// Panics if `me >= n`.
    pub fn view_of(&self, me: usize) -> ProcessKeys {
        assert!(me < self.n, "process {me} out of range (n={})", self.n);
        ProcessKeys {
            me,
            keys: (0..self.n).map(|j| self.matrix[me * self.n + j]).collect(),
            coin: self.coin.clone(),
        }
    }
}

/// Dealer for the keys shared between the replica group and external
/// service *clients* — the client-facing sibling of the pairwise replica
/// [`KeyTable`].
///
/// The paper's model only deals keys among the `n` replicas; an
/// intrusion-tolerant *service* additionally needs every client `c` to
/// share a secret `k_c` with the group, so that client requests and
/// replica replies can be MAC-authenticated end to end. Derivation is
/// deterministic from the same kind of master seed
/// (`SHA-256("ritas-client-key" ‖ seed ‖ c)`), so every replica — and the
/// client itself — derives the same key out-of-band, exactly like the
/// replica table.
///
/// # Example
///
/// ```
/// use ritas_crypto::ClientKeyDealer;
///
/// let d = ClientKeyDealer::new(42);
/// assert_eq!(d.key_of(7), ClientKeyDealer::new(42).key_of(7));
/// assert_ne!(d.key_of(7), d.key_of(8));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct ClientKeyDealer {
    master_seed: u64,
}

impl ClientKeyDealer {
    /// Creates a dealer for `master_seed`.
    pub fn new(master_seed: u64) -> Self {
        ClientKeyDealer { master_seed }
    }

    /// The key shared between client `client` and every replica.
    pub fn key_of(&self, client: u64) -> SecretKey {
        let digest = Sha256::digest_concat(&[
            b"ritas-client-key",
            &self.master_seed.to_be_bytes(),
            &client.to_be_bytes(),
        ]);
        SecretKey(digest)
    }

    /// The *pairwise* key between client `client` and replica `replica`.
    ///
    /// Service replies are MACed with this key rather than the shared
    /// [`ClientKeyDealer::key_of`]: with one symmetric key for the whole
    /// group, a Byzantine replica could forge replies in its peers'
    /// names and single-handedly fabricate an `f+1` reply quorum.
    /// Pairwise keys restore the paper's point-to-point authentication
    /// model at the client edge.
    pub fn link_key(&self, client: u64, replica: u64) -> SecretKey {
        let digest = Sha256::digest_concat(&[
            b"ritas-client-link",
            &self.master_seed.to_be_bytes(),
            &client.to_be_bytes(),
            &replica.to_be_bytes(),
        ]);
        SecretKey(digest)
    }
}

/// The row of the key matrix belonging to a single process: its shared key
/// with every peer, and the common coin's secret.
#[derive(Clone, Debug)]
pub struct ProcessKeys {
    me: usize,
    keys: Vec<SecretKey>,
    coin: SharedCoinDealer,
}

impl ProcessKeys {
    /// The common coin of the consensus instance every process names by
    /// `nonce`: the same bit per round at every holder of this table's
    /// secret.
    pub fn coin(&self, nonce: u64) -> SharedCoin {
        self.coin.coin(nonce)
    }

    /// This process's identifier.
    pub fn me(&self) -> usize {
        self.me
    }

    /// Number of processes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the view holds no keys.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The key shared with peer `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j` is out of range.
    pub fn key_for(&self, j: usize) -> SecretKey {
        self.keys[j]
    }

    /// The key shared with peer `j`, or `None` if out of range.
    pub fn get(&self, j: usize) -> Option<SecretKey> {
        self.keys.get(j).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_keys() {
        let t = KeyTable::dealer(7, 123);
        for i in 0..7 {
            for j in 0..7 {
                assert_eq!(t.shared_key(i, j), t.shared_key(j, i));
            }
        }
    }

    #[test]
    fn pairwise_distinct() {
        let t = KeyTable::dealer(5, 9);
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            for j in i..5 {
                assert!(
                    seen.insert(*t.shared_key(i, j).unwrap().as_bytes()),
                    "key ({i},{j}) repeated"
                );
            }
        }
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyTable::dealer(4, 1);
        let b = KeyTable::dealer(4, 2);
        assert_ne!(a.shared_key(0, 1), b.shared_key(0, 1));
    }

    #[test]
    fn deterministic() {
        let a = KeyTable::dealer(4, 5);
        let b = KeyTable::dealer(4, 5);
        assert_eq!(a.shared_key(2, 3), b.shared_key(2, 3));
    }

    #[test]
    fn epoch_zero_is_the_legacy_dealer() {
        let legacy = KeyTable::dealer(4, 42);
        let epoch0 = KeyTable::dealer_for_epoch(4, 42, 0);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(legacy.shared_key(i, j), epoch0.shared_key(i, j));
            }
        }
    }

    #[test]
    fn epoch_tables_are_symmetric_distinct_and_deterministic() {
        let e1 = KeyTable::dealer_for_epoch(5, 42, 1);
        let e2 = KeyTable::dealer_for_epoch(5, 42, 2);
        for i in 0..5 {
            for j in 0..5 {
                // Symmetry within an epoch.
                assert_eq!(e1.shared_key(i, j), e1.shared_key(j, i));
                // Every pairwise key rotates between epochs.
                assert_ne!(e1.shared_key(i, j), e2.shared_key(i, j));
            }
        }
        // Same (seed, epoch) re-derives the same table out-of-band.
        let again = KeyTable::dealer_for_epoch(5, 42, 1);
        assert_eq!(e1.shared_key(2, 3), again.shared_key(2, 3));
        // Different seeds diverge within the same epoch.
        assert_ne!(
            KeyTable::dealer_for_epoch(5, 43, 1).shared_key(0, 1),
            e1.shared_key(0, 1)
        );
        // Pairwise-distinct within an epoch.
        let mut seen = std::collections::HashSet::new();
        for i in 0..5 {
            for j in i..5 {
                assert!(seen.insert(*e1.shared_key(i, j).unwrap().as_bytes()));
            }
        }
    }

    #[test]
    fn every_process_and_every_epoch_holds_the_same_coin() {
        use crate::coin::RoundCoin;
        let flips = |keys: &ProcessKeys| {
            let mut coin = keys.coin(9);
            (1..=32).map(|r| coin.flip_round(r)).collect::<Vec<_>>()
        };
        let first = flips(&KeyTable::dealer(4, 42).view_of(0));
        for epoch in 0..3 {
            for me in 0..4 {
                let keys = KeyTable::dealer_for_epoch(4, 42, epoch).view_of(me);
                assert_eq!(flips(&keys), first, "epoch {epoch} process {me}");
            }
        }
        assert_ne!(flips(&KeyTable::dealer(4, 43).view_of(0)), first);
    }

    #[test]
    fn out_of_range_is_none() {
        let t = KeyTable::dealer(4, 5);
        assert!(t.shared_key(0, 4).is_none());
        assert!(t.shared_key(4, 0).is_none());
    }

    #[test]
    fn view_matches_matrix() {
        let t = KeyTable::dealer(6, 77);
        for me in 0..6 {
            let v = t.view_of(me);
            assert_eq!(v.me(), me);
            assert_eq!(v.len(), 6);
            for j in 0..6 {
                assert_eq!(Some(v.key_for(j)), t.shared_key(me, j));
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn view_of_out_of_range_panics() {
        KeyTable::dealer(3, 0).view_of(3);
    }

    #[test]
    fn client_keys_deterministic_distinct_and_separate_from_replica_keys() {
        let d = ClientKeyDealer::new(11);
        assert_eq!(d.key_of(3), ClientKeyDealer::new(11).key_of(3));
        assert_ne!(d.key_of(3), d.key_of(4));
        assert_ne!(d.key_of(3), ClientKeyDealer::new(12).key_of(3));
        // Domain separation: a client key never collides with a replica
        // pairwise key dealt from the same seed.
        let t = KeyTable::dealer(4, 11);
        for i in 0..4 {
            for j in 0..4 {
                assert_ne!(Some(d.key_of(i as u64)), t.shared_key(i, j));
            }
        }
    }

    #[test]
    fn link_keys_pairwise_distinct() {
        let d = ClientKeyDealer::new(5);
        assert_eq!(d.link_key(1, 2), ClientKeyDealer::new(5).link_key(1, 2));
        assert_ne!(d.link_key(1, 2), d.link_key(1, 3));
        assert_ne!(d.link_key(1, 2), d.link_key(2, 2));
        // Never equal to the client's group key (distinct derivation
        // label), so compromising one never reveals the other.
        assert_ne!(d.link_key(1, 2), d.key_of(1));
    }

    #[test]
    fn debug_hides_key_material() {
        let t = KeyTable::dealer(2, 0);
        let s = format!("{:?}", t.shared_key(0, 1).unwrap());
        assert_eq!(s, "SecretKey(..)");
    }
}
