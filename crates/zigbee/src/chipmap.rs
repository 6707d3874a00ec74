//! IEEE 802.15.4 symbol-to-chip spreading table (2.4 GHz O-QPSK PHY).
//!
//! Each 4-bit data symbol maps to one of 16 nearly-orthogonal 32-chip
//! pseudo-noise sequences (std. Table 73). Symbols 1–7 are successive
//! 4-chip right rotations of symbol 0; symbols 8–15 repeat 0–7 with every
//! odd-indexed chip complemented (a conjugation on the Q branch).

/// Number of chips per ZigBee symbol.
pub const CHIPS_PER_SYMBOL: usize = 32;

/// Number of distinct data symbols (one hex digit each).
pub const SYMBOL_COUNT: usize = 16;

/// Chip sequence of data symbol 0, MSB-first chip order `c0..c31`.
const SYMBOL0: [u8; CHIPS_PER_SYMBOL] = [
    1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 0,
];

/// The full 16×32 spreading table, generated once at first use.
pub fn chip_table() -> &'static [[u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0u8; CHIPS_PER_SYMBOL]; SYMBOL_COUNT];
        table[0] = SYMBOL0;
        for s in 1..8 {
            // Cyclic right rotation by 4 chips of the previous sequence.
            let prev = table[s - 1];
            for (c, chip) in table[s].iter_mut().enumerate() {
                *chip = prev[(c + CHIPS_PER_SYMBOL - 4) % CHIPS_PER_SYMBOL];
            }
        }
        for s in 8..16 {
            let base_row = table[s - 8];
            for (c, chip) in table[s].iter_mut().enumerate() {
                *chip = if c % 2 == 1 {
                    1 - base_row[c]
                } else {
                    base_row[c]
                };
            }
        }
        table
    })
}

/// The spreading table as bipolar rows (`0 -> -1.0`, `1 -> +1.0`), the form
/// soft-decision correlation consumes. Cached so the DSSS correlation inner
/// loop is a plain dot product over contiguous `f64` rows.
fn bipolar_table() -> &'static [[f64; CHIPS_PER_SYMBOL]; SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[[f64; CHIPS_PER_SYMBOL]; SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [[0.0f64; CHIPS_PER_SYMBOL]; SYMBOL_COUNT];
        for (dst, src) in table.iter_mut().zip(chip_table().iter()) {
            for (d, &c) in dst.iter_mut().zip(src.iter()) {
                *d = if c == 1 { 1.0 } else { -1.0 };
            }
        }
        table
    })
}

/// The spreading table packed one row per word, chip `c` in bit `c`: the
/// form hard-decision despreading consumes, where a Hamming distance is
/// one XOR and one popcount.
fn packed_table() -> &'static [u32; SYMBOL_COUNT] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; SYMBOL_COUNT]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; SYMBOL_COUNT];
        for (dst, src) in table.iter_mut().zip(chip_table().iter()) {
            *dst = pack_chips(src);
        }
        table
    })
}

/// Packs 32 hard chips into a word, chip `c` in bit `c`. Any nonzero chip
/// counts as a 1.
fn pack_chips(chips: &[u8; CHIPS_PER_SYMBOL]) -> u32 {
    chips
        .iter()
        .enumerate()
        .fold(0, |w, (c, &chip)| w | (u32::from(chip != 0) << c))
}

/// Packs the hard decisions of 32 soft chips into a word: chip `c` sets
/// bit `c` when `soft_chips[c] >= 0.0` (the rule of
/// [`ChipSamples::hard_chips`](crate::modem::ChipSamples::hard_chips), so
/// NaN decides 0).
///
/// # Panics
///
/// Panics if `soft_chips.len() != 32`.
pub(crate) fn pack_signs(soft_chips: &[f64]) -> u32 {
    assert_eq!(
        soft_chips.len(),
        CHIPS_PER_SYMBOL,
        "need exactly 32 soft chips"
    );
    soft_chips
        .iter()
        .enumerate()
        .fold(0, |w, (c, &v)| w | (u32::from(v >= 0.0) << c))
}

/// Spreads one data symbol (0–15) into its 32-chip sequence.
///
/// # Panics
///
/// Panics if `symbol >= 16`.
///
/// # Examples
///
/// ```
/// let chips = ctc_zigbee::chipmap::spread(0);
/// assert_eq!(chips.len(), 32);
/// assert_eq!(&chips[..4], &[1, 1, 0, 1]);
/// ```
pub fn spread(symbol: u8) -> [u8; CHIPS_PER_SYMBOL] {
    assert!(
        (symbol as usize) < SYMBOL_COUNT,
        "ZigBee symbols are 4-bit values, got {symbol}"
    );
    chip_table()[symbol as usize]
}

/// Hamming distance between a received hard-decision chip sequence and a
/// table row.
pub fn hamming(a: &[u8; CHIPS_PER_SYMBOL], b: &[u8; CHIPS_PER_SYMBOL]) -> u32 {
    a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum()
}

/// Hard-decision despreading: returns the symbol whose chip sequence is
/// nearest in Hamming distance, with the distance itself (the first symbol
/// wins a tie). Any nonzero chip counts as a 1.
///
/// The caller applies the correlation threshold ("a correlation threshold is
/// defined to control the maximum Hamming distance ... the receiver can
/// tolerate" — Sec. III-B1); sequences above it should be dropped.
pub fn despread_hard(chips: &[u8; CHIPS_PER_SYMBOL]) -> (u8, u32) {
    despread_word(pack_chips(chips))
}

/// [`despread_hard`] on chips already packed by [`pack_chips`] or
/// [`pack_signs`]: one XOR and popcount per table row.
pub(crate) fn despread_word(word: u32) -> (u8, u32) {
    let mut best_sym = 0u8;
    let mut best_d = u32::MAX;
    for (s, &row) in packed_table().iter().enumerate() {
        let d = (word ^ row).count_ones();
        if d < best_d {
            best_d = d;
            best_sym = s as u8;
        }
    }
    (best_sym, best_d)
}

/// Soft-decision despreading: correlates bipolar soft chip values against
/// every row (`0 -> -1`, `1 -> +1`) and returns the symbol with the largest
/// correlation (the first symbol wins a tie) plus the normalized score in
/// `[-1, 1]`.
///
/// This models the stronger demodulator of commodity ZigBee silicon
/// (CC26x2R1), which decodes reliably where hard-decision USRP pipelines
/// fail (paper Fig. 14b). All 16 correlations come from one
/// [`dot_f64_rows`](ctc_dsp::simd::dot_f64_rows) call.
///
/// # Panics
///
/// Panics if `soft_chips.len() != 32`.
pub fn despread_soft(soft_chips: &[f64]) -> (u8, f64) {
    assert_eq!(
        soft_chips.len(),
        CHIPS_PER_SYMBOL,
        "need exactly 32 soft chips"
    );
    let energy = ctc_dsp::simd::dot_f64(soft_chips, soft_chips);
    let norm = (energy * CHIPS_PER_SYMBOL as f64).sqrt();
    let mut acc = [0.0; SYMBOL_COUNT];
    ctc_dsp::simd::dot_f64_rows(soft_chips, bipolar_table().as_flattened(), &mut acc);
    let mut best_sym = 0u8;
    let mut best_score = f64::NEG_INFINITY;
    for (s, &a) in acc.iter().enumerate() {
        if a > best_score {
            best_score = a;
            best_sym = s as u8;
        }
    }
    let score = if norm > 0.0 { best_score / norm } else { 0.0 };
    (best_sym, score)
}

/// The direct despreaders the packed and banked forms replaced: a byte
/// compare per chip, and one [`dot_f64`](ctc_dsp::simd::dot_f64) call per
/// row. Test oracles only.
#[cfg(test)]
pub(crate) mod direct {
    use super::{bipolar_table, chip_table, hamming, CHIPS_PER_SYMBOL};

    pub fn despread_hard(chips: &[u8; CHIPS_PER_SYMBOL]) -> (u8, u32) {
        let mut best_sym = 0u8;
        let mut best_d = u32::MAX;
        for (s, row) in chip_table().iter().enumerate() {
            let d = hamming(chips, row);
            if d < best_d {
                best_d = d;
                best_sym = s as u8;
            }
        }
        (best_sym, best_d)
    }

    pub fn despread_soft(soft_chips: &[f64]) -> (u8, f64) {
        assert_eq!(soft_chips.len(), CHIPS_PER_SYMBOL);
        let energy = ctc_dsp::simd::dot_f64(soft_chips, soft_chips);
        let norm = (energy * CHIPS_PER_SYMBOL as f64).sqrt();
        let mut best_sym = 0u8;
        let mut best_score = f64::NEG_INFINITY;
        for (s, row) in bipolar_table().iter().enumerate() {
            let acc = ctc_dsp::simd::dot_f64(soft_chips, row);
            if acc > best_score {
                best_score = acc;
                best_sym = s as u8;
            }
        }
        let score = if norm > 0.0 { best_score / norm } else { 0.0 };
        (best_sym, score)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn table_rows_match_standard_samples() {
        // Spot-check rows against IEEE 802.15.4 Table 73.
        let t = chip_table();
        let row1: Vec<u8> = "11101101100111000011010100100010"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[1][..], &row1[..]);
        let row8: Vec<u8> = "10001100100101100000011101111011"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[8][..], &row8[..]);
        let row15: Vec<u8> = "11001001011000000111011110111000"
            .bytes()
            .map(|b| b - b'0')
            .collect();
        assert_eq!(&t[15][..], &row15[..]);
    }

    #[test]
    fn rows_are_distinct_and_far_apart() {
        let t = chip_table();
        for i in 0..SYMBOL_COUNT {
            for j in (i + 1)..SYMBOL_COUNT {
                let d = hamming(&t[i], &t[j]);
                assert!(d >= 12, "rows {i},{j} too close: {d}");
            }
        }
    }

    #[test]
    fn spread_despread_roundtrip() {
        for s in 0..16u8 {
            let chips = spread(s);
            let (got, d) = despread_hard(&chips);
            assert_eq!(got, s);
            assert_eq!(d, 0);
        }
    }

    #[test]
    #[should_panic(expected = "4-bit")]
    fn spread_rejects_large_symbol() {
        let _ = spread(16);
    }

    #[test]
    fn despread_tolerates_chip_errors() {
        // DSSS error resilience: up to ~5 flipped chips still decode.
        for s in 0..16u8 {
            let mut chips = spread(s);
            for i in [0usize, 7, 13, 21, 30] {
                chips[i] = 1 - chips[i];
            }
            let (got, d) = despread_hard(&chips);
            assert_eq!(got, s, "symbol {s} misdecoded with 5 chip errors");
            assert_eq!(d, 5);
        }
    }

    #[test]
    fn soft_despread_matches_hard_on_clean_chips() {
        for s in 0..16u8 {
            let soft: Vec<f64> = spread(s)
                .iter()
                .map(|&c| if c == 1 { 1.0 } else { -1.0 })
                .collect();
            let (got, score) = despread_soft(&soft);
            assert_eq!(got, s);
            assert!((score - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn soft_despread_handles_attenuation_and_noise() {
        let s = 9u8;
        let soft: Vec<f64> = spread(s)
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let v = if c == 1 { 1.0 } else { -1.0 };
                0.3 * v + 0.1 * ((i * 7) as f64).sin()
            })
            .collect();
        let (got, score) = despread_soft(&soft);
        assert_eq!(got, s);
        assert!(score > 0.8);
    }

    #[test]
    fn soft_despread_zero_input() {
        let (_, score) = despread_soft(&[0.0; 32]);
        assert_eq!(score, 0.0);
    }

    /// A splitmix64 stream: seeded, uniform 64-bit words.
    fn words(seed: u64) -> impl FnMut() -> u64 {
        let mut s = seed;
        move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    fn unpack(word: u32) -> [u8; CHIPS_PER_SYMBOL] {
        std::array::from_fn(|c| ((word >> c) & 1) as u8)
    }

    #[test]
    fn packed_hard_despread_matches_direct_body() {
        let mut next = words(1);
        // Every table row, every row with one chip flipped, then random words.
        let rows = packed_table().iter().copied();
        let flipped = packed_table()
            .iter()
            .flat_map(|&r| (0..CHIPS_PER_SYMBOL).map(move |c| r ^ (1 << c)));
        let random = (0..200_000).map(|_| next() as u32);
        for word in rows.chain(flipped).chain(random).chain([0, u32::MAX]) {
            let chips = unpack(word);
            assert_eq!(pack_chips(&chips), word);
            let want = direct::despread_hard(&chips);
            assert_eq!(despread_word(word), want, "word {word:#010x}");
            assert_eq!(despread_hard(&chips), want, "word {word:#010x}");
        }
    }

    #[test]
    fn banked_soft_despread_matches_direct_body() {
        let mut next = words(2);
        for k in 0..20_000 {
            let word = next() as u32;
            // Bipolar chips of a random word, scaled and perturbed, with
            // signed zeros, exact ties and non-finite values mixed in.
            let soft: Vec<f64> = (0..CHIPS_PER_SYMBOL)
                .map(|c| {
                    let sign = if (word >> c) & 1 == 1 { 1.0 } else { -1.0 };
                    let noise = (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                    match (k % 7, c) {
                        (0, _) => sign,
                        (1, 3) => -0.0,
                        (2, 5) => f64::NAN,
                        (3, 9) => f64::INFINITY,
                        (4, _) => (sign + 2.0 * noise) * 1e-160,
                        (5, _) => (sign + 2.0 * noise) * 1e150,
                        _ => sign + 2.0 * noise,
                    }
                })
                .collect();
            let (got_sym, got_score) = despread_soft(&soft);
            let (want_sym, want_score) = direct::despread_soft(&soft);
            assert_eq!(got_sym, want_sym, "case {k}");
            assert_eq!(got_score.to_bits(), want_score.to_bits(), "case {k}");
            let hard: [u8; CHIPS_PER_SYMBOL] = std::array::from_fn(|c| u8::from(soft[c] >= 0.0));
            assert_eq!(pack_signs(&soft), pack_chips(&hard), "case {k}");
        }
    }

    proptest! {
        #[test]
        fn hard_decode_correct_below_half_min_distance(s in 0u8..16, flips in proptest::collection::hash_set(0usize..32, 0..6)) {
            let mut chips = spread(s);
            for &i in &flips {
                chips[i] = 1 - chips[i];
            }
            let (got, d) = despread_hard(&chips);
            prop_assert_eq!(d as usize, flips.len());
            prop_assert_eq!(got, s);
        }

        #[test]
        fn hamming_symmetric(a in 0u8..16, b in 0u8..16) {
            let ca = spread(a);
            let cb = spread(b);
            prop_assert_eq!(hamming(&ca, &cb), hamming(&cb, &ca));
        }
    }
}
