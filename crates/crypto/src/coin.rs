//! Coins for randomized binary consensus.
//!
//! §2: "Each process has access to a random bit generator that returns
//! unbiased bits observable only by the process". Ben-Or/Bracha protocols
//! need only this *local* coin (unlike Rabin-style shared coins, which need
//! a trusted dealer). Every coin implements [`RoundCoin`]:
//!
//! * the paper's Bracha consensus — the `paper` profile the simulator
//!   reproduces — flips a seeded local coin ([`DeterministicCoin`]), so a
//!   run replays from its seeds,
//! * the `lean` consensus the node runtime and the service tier run
//!   flips a [`SharedCoin`], its secret dealt with the pairwise keys
//!   (`KeyTable::dealer`),
//! * adversarial tests force worst-case coins ([`FixedCoin`]).
//!
//! [`XorShift64`], the generator behind [`DeterministicCoin`], is also the
//! workspace's one small replayable generator for everything else that
//! must replay from a seed: adversary strategies and the test cluster's
//! scheduler in `ritas`, reconnect jitter in `ritas-transport`.

use crate::digest::Digest;

/// xorshift64* (Vigna): a tiny, fast, replayable — and **not**
/// cryptographic — generator. Each caller seeds it its own way; the state
/// must be nonzero, the generator's fixpoint.
#[derive(Debug, Clone)]
pub struct XorShift64(u64);

impl XorShift64 {
    /// Starts the generator at the nonzero `state`.
    pub fn new(state: u64) -> Self {
        debug_assert_ne!(state, 0, "zero is the xorshift fixpoint");
        XorShift64(state)
    }

    /// Advances the state and returns the next output.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A coin indexed by protocol round — the interface randomized consensus
/// needs.
///
/// Ben-Or-style *local* coins ignore the round. Rabin-style *shared* coins
/// ([`SharedCoin`]) return the **same** bit at every correct process for
/// the same round, which collapses the expected round count to O(1) —
/// provided the scheduler cannot read the coin in advance, which
/// [`SharedCoin`] does not guarantee (see its docs).
pub trait RoundCoin: Send {
    /// Returns the coin for `round` (1-based protocol round).
    fn flip_round(&mut self, round: u32) -> bool;
}

/// A deterministic local coin: identical seeds yield identical flip
/// sequences, which makes every execution replayable. The round is
/// ignored (Ben-Or's scheme, the paper's default).
#[derive(Debug, Clone)]
pub struct DeterministicCoin(XorShift64);

impl DeterministicCoin {
    /// Creates a deterministic coin from a seed.
    pub fn new(seed: u64) -> Self {
        DeterministicCoin(XorShift64::new(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1),
        ))
    }
}

impl RoundCoin for DeterministicCoin {
    fn flip_round(&mut self, _round: u32) -> bool {
        (self.0.next_u64() >> 63) != 0
    }
}

/// A coin that always returns the same bit — for adversarial tests that
/// explore worst-case coin sequences (e.g. forcing extra consensus rounds).
#[derive(Debug, Clone, Copy)]
pub struct FixedCoin(pub bool);

impl RoundCoin for FixedCoin {
    fn flip_round(&mut self, _round: u32) -> bool {
        self.0
    }
}

/// A Rabin-style shared coin: the dealer distributes a common secret, and
/// the coin for round `r` of instance `nonce` is a bit of
/// `H(secret ‖ nonce ‖ r)` — identical at every holder.
///
/// **Predictable to every member.** There is no threshold cryptography:
/// every member holds the secret, a Byzantine member included, so anyone
/// in the group can compute every coin of every instance from setup. The
/// O(1) expected-round bound therefore holds only against a scheduler
/// that controls no member; a Byzantine member can order messages against
/// the coin it already knows. ROADMAP item 8 replaces this coin with one
/// no `f` members can compute.
#[derive(Debug, Clone)]
pub struct SharedCoin {
    secret: [u8; 32],
    nonce: u64,
}

impl SharedCoin {
    /// The coin for `(nonce, round)` under `secret` — exposed for tests.
    fn bit(secret: &[u8; 32], nonce: u64, round: u32) -> bool {
        let d = crate::sha256::Sha256::digest_concat(&[
            b"ritas-shared-coin".as_slice(),
            secret.as_slice(),
            &nonce.to_be_bytes(),
            &round.to_be_bytes(),
        ]);
        d[0] & 1 == 1
    }
}

impl RoundCoin for SharedCoin {
    fn flip_round(&mut self, round: u32) -> bool {
        Self::bit(&self.secret, self.nonce, round)
    }
}

/// The trusted dealer of Rabin's scheme: deals [`SharedCoin`]s for
/// consensus instances. Every process must be given a dealer built from
/// the same seed (alongside the pairwise keys, §2's key distribution —
/// `KeyTable::dealer` does both).
#[derive(Clone)]
pub struct SharedCoinDealer {
    secret: [u8; 32],
}

impl core::fmt::Debug for SharedCoinDealer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "SharedCoinDealer(..)")
    }
}

impl SharedCoinDealer {
    /// Derives the dealer's secret from a master seed.
    pub fn new(master_seed: u64) -> Self {
        SharedCoinDealer {
            secret: crate::sha256::Sha256::digest_concat(&[
                b"ritas-coin-dealer".as_slice(),
                &master_seed.to_be_bytes(),
            ]),
        }
    }

    /// Deals the shared coin for the consensus instance identified by
    /// `instance_nonce` (all processes must use the same nonce for the
    /// same logical instance — e.g. the instance tag).
    pub fn coin(&self, instance_nonce: u64) -> SharedCoin {
        SharedCoin {
            secret: self.secret,
            nonce: instance_nonce,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flips(mut coin: impl RoundCoin, n: u32) -> String {
        (1..=n)
            .map(|r| if coin.flip_round(r) { '1' } else { '0' })
            .collect()
    }

    #[test]
    fn deterministic_coin_known_answers() {
        // Pinned from the pre-`XorShift64` coin: every replayed run and
        // every committed artifact depends on these flips.
        assert_eq!(flips(DeterministicCoin::new(1), 16), "0010111011010100");
        assert_eq!(
            flips(DeterministicCoin::new(0xDEAD_BEEF), 16),
            "1101000100111110"
        );
    }

    #[test]
    fn deterministic_coin_replays() {
        assert_eq!(
            flips(DeterministicCoin::new(42), 100),
            flips(DeterministicCoin::new(42), 100)
        );
    }

    #[test]
    fn deterministic_coin_varies_with_seed() {
        assert_ne!(
            flips(DeterministicCoin::new(1), 64),
            flips(DeterministicCoin::new(2), 64)
        );
    }

    #[test]
    fn deterministic_coin_is_roughly_unbiased() {
        let ones = flips(DeterministicCoin::new(7), 10_000)
            .matches('1')
            .count();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn fixed_coin_is_fixed() {
        assert_eq!(flips(FixedCoin(true), 8), "11111111");
        assert_eq!(flips(FixedCoin(false), 8), "00000000");
    }

    #[test]
    fn shared_coin_identical_across_holders() {
        let a = SharedCoinDealer::new(7);
        let b = SharedCoinDealer::new(7);
        assert_eq!(flips(a.coin(3), 50), flips(b.coin(3), 50));
    }

    #[test]
    fn shared_coin_differs_across_instances_and_seeds() {
        let dealer = SharedCoinDealer::new(7);
        assert_ne!(flips(dealer.coin(1), 63), flips(dealer.coin(2), 63));
        assert_ne!(
            flips(SharedCoinDealer::new(1).coin(0), 63),
            flips(SharedCoinDealer::new(2).coin(0), 63)
        );
    }

    #[test]
    fn shared_coin_is_roughly_unbiased() {
        let ones = flips(SharedCoinDealer::new(11).coin(0), 10_000)
            .matches('1')
            .count();
        assert!((4_000..6_000).contains(&ones), "ones = {ones}");
    }

    #[test]
    fn shared_coin_stable_per_round() {
        // Re-querying the same round yields the same bit (stateless).
        let mut c = SharedCoinDealer::new(5).coin(9);
        assert_eq!(c.flip_round(4), c.flip_round(4));
    }
}
