//! The simulator's own generator: xoshiro256++ (Blackman & Vigna),
//! seeded by SplitMix64 expansion.
//!
//! Every committed `results/*.txt` depends on this exact stream — LAN
//! jitter ([`crate::lan`]) and the WAN propagation matrix
//! ([`crate::cluster`]) — so it is owned here, not borrowed from a crate
//! whose generator could change underneath it. Not cryptographic.

use std::ops::{Range, RangeInclusive};

/// xoshiro256++ state.
#[derive(Debug, Clone)]
pub(crate) struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Expands `seed` into the four state words with SplitMix64.
    pub(crate) fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            *slot = z ^ (z >> 31);
        }
        // Avoid the (vanishingly unlikely) all-zero state.
        if s == [0; 4] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        SimRng { s }
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `range` from 53 random mantissa bits.
    pub(crate) fn gen_f64(&mut self, range: Range<f64>) -> f64 {
        assert!(range.start < range.end, "empty range");
        let unit = (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        range.start + unit * (range.end - range.start)
    }

    /// Uniform in `range` by Lemire's widening multiply with rejection of
    /// the biased low region.
    pub(crate) fn gen_u64(&mut self, range: RangeInclusive<u64>) -> u64 {
        let (lo, hi) = (*range.start(), *range.end());
        assert!(lo <= hi, "empty range");
        let Some(bound) = (hi - lo).checked_add(1) else {
            return self.next_u64();
        };
        loop {
            let wide = u128::from(self.next_u64()) * u128::from(bound);
            let (high, low) = ((wide >> 64) as u64, wide as u64);
            if low >= bound || low >= bound.wrapping_neg() % bound {
                return lo + high;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Known answers pinned from the vendored `rand` stand-in's `StdRng`
    // this generator replaced: if one fails, that draw — not the protocol
    // — moved the committed artifacts.

    #[test]
    fn next_u64_known_answers() {
        let draws = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..16).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(
            draws(0),
            [
                0x5317_5d61_490b_23df,
                0x61da_6f3d_c380_d507,
                0x5c0f_df91_ec9a_7bfc,
                0x02ee_bf8c_3bbe_5e1a,
                0x7eca_04eb_af4a_5eea,
                0x0543_c377_57f0_8d9a,
                0xdb74_90c7_5ab5_026e,
                0xd873_43e6_464b_c959,
                0x4b7d_a0a0_2389_f0ff,
                0x1300_fc58_c042_4c16,
                0x5084_8432_06c1_9968,
                0x10ea_073d_e9aa_4dfc,
                0x1aae_5543_4396_0cc1,
                0x1804_139f_10fa_e720,
                0x10d7_90e7_b8ac_10fa,
                0x667d_2bff_dd14_96f7,
            ]
        );
        assert_eq!(
            draws(1),
            [
                0xcfc5_d07f_6f03_c29b,
                0xbf42_4132_963f_e08d,
                0x19a3_7d57_57aa_f520,
                0xbf08_119f_05cd_56d6,
                0x2f47_184b_8618_6fa4,
                0x9729_9fca_e720_2345,
                0xfca3_c795_08f4_1507,
                0x85fe_a5c9_0363_f221,
                0x18ba_e5b3_0d33_4bd0,
                0x2261_13c9_f026_ec16,
                0xeb9e_0ef9_dccf_e649,
                0x57ef_aedd_9f6c_ffb3,
                0x128a_e2d5_6976_40d6,
                0x6503_3a4e_ee50_5049,
                0x16e9_453e_d54a_88ba,
                0x2806_5aa8_f428_a8bb,
            ]
        );
        assert_eq!(
            draws(0xDEAD_BEEF),
            [
                0x0c52_0eb8_fea9_8ede,
                0x2b74_a633_8b80_e0e2,
                0xbe23_8770_c379_5322,
                0x5f23_5f98_a244_ea97,
                0xe004_f0cc_1514_d858,
                0x436a_2099_63ff_9223,
                0x8302_e81b_9685_b6d4,
                0xa7ee_c00b_77ec_3019,
                0x3f72_a1f8_76d5_5149,
                0x0ccb_6894_beb4_9764,
                0x221d_2399_ae37_bcae,
                0x65fb_fba6_ed5f_bb5f,
                0x0082_f292_4234_afb0,
                0x7c4c_ad13_45f4_9aee,
                0x19ba_42d6_2beb_435d,
                0xcc82_fe0c_fb5d_cae2,
            ]
        );
    }

    #[test]
    fn jitter_draw_known_answers() {
        let draws = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..8).map(|_| rng.gen_f64(-0.05..0.05)).collect::<Vec<_>>()
        };
        assert_eq!(
            draws(0),
            [
                -0.01754247319685933,
                -0.011776070348832657,
                -0.014038279235264475,
                -0.048854449106534636,
                -0.0004729931316168959,
                -0.047943476044025414,
                0.035724739901589336,
                0.034550880786836935,
            ]
        );
        assert_eq!(
            draws(1),
            [
                0.031161215888188473,
                0.024710471615821877,
                -0.03998490964662163,
                0.02462168706168104,
                -0.03153214278808306,
                0.009047888473207921,
                0.04868740786414068,
                0.002341686399030582,
            ]
        );
        assert_eq!(
            draws(0xDEAD_BEEF),
            [
                -0.04518729017593958,
                -0.03302513240964769,
                0.024272963049904672,
                -0.012836649440371807,
                0.03750753877876209,
                -0.02366618752967058,
                0.0011763102279039456,
                0.015598678855887796,
            ]
        );
    }

    #[test]
    fn wan_draw_known_answers() {
        let draws = |seed| {
            let mut rng = SimRng::seed_from_u64(seed);
            (0..8).map(|_| rng.gen_u64(100..=1000)).collect::<Vec<_>>()
        };
        assert_eq!(draws(0), [392, 444, 424, 110, 546, 118, 872, 861]);
        assert_eq!(draws(1), [831, 773, 190, 772, 266, 632, 989, 571]);
        assert_eq!(draws(0xDEAD_BEEF), [143, 252, 769, 434, 888, 337, 561, 691]);
    }

    #[test]
    fn range_draws_stay_in_range() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!((5..=7).contains(&rng.gen_u64(5..=7)));
            assert!((-0.25..0.25).contains(&rng.gen_f64(-0.25..0.25)));
        }
        assert_eq!(rng.gen_u64(9..=9), 9);
    }
}
