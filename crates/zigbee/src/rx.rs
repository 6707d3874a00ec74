//! ZigBee receiver: synchronization, O-QPSK demodulation, clock recovery,
//! DSSS despreading and frame parsing (Fig. 1, right half).
//!
//! Two despreading back-ends model the paper's two receiver platforms:
//!
//! - [`Decision::Hard`] — hard chip decisions + minimum-Hamming-distance
//!   lookup with a correlation threshold (the GNURadio/USRP pipeline).
//! - [`Decision::Soft`] — correlation of soft chip values against all 16
//!   sequences (the "stronger demodulation functions" of commodity
//!   CC26x2R1 silicon, Fig. 14b).
//!
//! The timing search ranks every candidate offset by its normalized
//! preamble correlation. One FFT cross-correlation screens all offsets at
//! once; only the offsets the screen cannot rule out, given its error
//! bound, are rescored with the exact direct correlation, so the result is
//! the one a direct search over every offset returns.

use crate::chipmap::{despread_soft, despread_word, pack_signs, spread, CHIPS_PER_SYMBOL};
use crate::frame::{parse_frame_symbols, Frame, FrameError};
use crate::modem::{demodulate_chips, modulate_chips, ChipSamples, SAMPLES_PER_CHIP};
use ctc_dsp::{fft, simd, Complex};
use std::cell::RefCell;
use std::sync::OnceLock;

/// FFT length of the timing screen: one transform covers the two-symbol
/// template plus `SCREEN_LEN - 128` further offsets.
const SCREEN_LEN: usize = 256;

/// Error bound the screen assumes for its correlations and window energies,
/// as a fraction of the searched region's scale (`sqrt(E·E_t)` and `E`).
/// The rounding of two 256-point transforms with recurrence twiddles is
/// bounded near 1e-11 of that scale; over 20,000 seeded bursts and noise
/// windows it stayed below 4e-15 (correlations) and 1.4e-15 (energies).
const SCREEN_MARGIN: f64 = 1e-9;

/// Window energy below which the screen bounds nothing: such windows are
/// always rescored, so the screen never reasons about subnormal sums.
const SCREEN_ENERGY_FLOOR: f64 = 1e-200;

thread_local! {
    /// Per-offset upper bounds on the exact score, reused across calls.
    static SCREEN_BOUNDS: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

/// Despreading strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Hard chip decisions; a 32-chip group whose best Hamming distance
    /// exceeds `threshold` is dropped (the paper uses threshold 10).
    Hard {
        /// Maximum tolerated Hamming distance.
        threshold: u32,
    },
    /// Soft correlation against all chip sequences; a group whose normalized
    /// score falls below `min_score` is dropped.
    Soft {
        /// Minimum normalized correlation in `[-1, 1]`.
        min_score: f64,
    },
}

impl Default for Decision {
    fn default() -> Self {
        Decision::Hard { threshold: 10 }
    }
}

/// Synchronization estimates recovered from the preamble.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyncResult {
    /// Sample offset of the first preamble chip.
    pub offset: usize,
    /// Carrier phase estimate (radians).
    pub phase: f64,
    /// Residual CFO estimate (radians per sample).
    pub cfo_per_sample: f64,
    /// Peak normalized correlation achieved during the search.
    pub peak_correlation: f64,
}

/// Everything the receiver extracted from one waveform.
#[derive(Debug, Clone)]
pub struct Reception {
    /// Despread data symbols, in order (dropped groups decoded anyway and
    /// flagged in [`Reception::dropped`]).
    pub symbols: Vec<u8>,
    /// Per-symbol Hamming distance (hard decision) between received and
    /// matched chip sequence.
    pub hamming_distances: Vec<u32>,
    /// Per-symbol normalized soft correlation score.
    pub soft_scores: Vec<f64>,
    /// Per-symbol drop flags (distance/score beyond the configured limit).
    pub dropped: Vec<bool>,
    /// Raw chip samples before any correction.
    pub raw_chip_samples: ChipSamples,
    /// Chip samples after CFO and phase correction — what despreading used.
    pub chip_samples: ChipSamples,
    /// Frame parse over the despread symbols.
    pub frame: Result<Frame, FrameError>,
    /// Synchronization estimates.
    pub sync: SyncResult,
}

impl Reception {
    /// True when a frame parsed, its FCS checked out, and no symbol in the
    /// PSDU region was dropped.
    pub fn packet_ok(&self) -> bool {
        match &self.frame {
            Ok(f) => {
                let start = f.psdu_symbol_offset;
                !self
                    .dropped
                    .iter()
                    .skip(start)
                    .take(f.payload.len() * 2 + 4)
                    .any(|&d| d)
            }
            Err(_) => false,
        }
    }

    /// Payload bytes if the packet decoded.
    pub fn payload(&self) -> Option<&[u8]> {
        self.frame.as_ref().ok().map(|f| f.payload.as_slice())
    }

    /// Counts symbol mismatches against an expected transmitted stream
    /// (compared over the shorter of the two).
    pub fn symbol_errors(&self, expected: &[u8]) -> usize {
        self.symbols
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count()
            + expected.len().saturating_sub(self.symbols.len())
    }
}

/// A configured ZigBee receiver.
#[derive(Debug, Clone, PartialEq)]
pub struct Receiver {
    decision: Decision,
    sync_search: usize,
    correct_phase: bool,
    correct_cfo: bool,
    fractional_timing: bool,
}

impl Default for Receiver {
    fn default() -> Self {
        Self::new()
    }
}

impl Receiver {
    /// Hard-decision receiver (threshold 10), no timing search (the waveform
    /// is assumed frame-aligned, as in the paper's simulations), with
    /// preamble phase correction enabled.
    pub fn new() -> Self {
        Receiver {
            decision: Decision::default(),
            sync_search: 0,
            correct_phase: true,
            correct_cfo: true,
            fractional_timing: false,
        }
    }

    /// USRP-like receiver: hard decisions with the paper's threshold of 10.
    pub fn usrp() -> Self {
        Self::new()
    }

    /// Commodity-device receiver: soft-decision despreading.
    pub fn commodity() -> Self {
        Self::new().with_decision(Decision::Soft { min_score: 0.25 })
    }

    /// Sets the despreading strategy.
    pub fn with_decision(mut self, decision: Decision) -> Self {
        self.decision = decision;
        self
    }

    /// Enables a timing search over `0..=max_offset` samples.
    pub fn with_sync_search(mut self, max_offset: usize) -> Self {
        self.sync_search = max_offset;
        self
    }

    /// Enables/disables preamble-based phase correction.
    pub fn with_phase_correction(mut self, enabled: bool) -> Self {
        self.correct_phase = enabled;
        self
    }

    /// Enables/disables preamble-based CFO correction.
    pub fn with_cfo_correction(mut self, enabled: bool) -> Self {
        self.correct_cfo = enabled;
        self
    }

    /// Enables sub-sample timing recovery: after the integer search, the
    /// receiver tests quarter-sample offsets with a Farrow fractional
    /// interpolator and keeps the best preamble correlation. Needed when
    /// the incoming waveform is not sample-aligned with the receiver's
    /// clock (always true over the air).
    pub fn with_fractional_timing(mut self, enabled: bool) -> Self {
        self.fractional_timing = enabled;
        self
    }

    /// The reference waveform of one preamble symbol (32 chips of symbol 0).
    ///
    /// Modulated once per process: every burst the streaming gateway decodes
    /// runs synchronization, so rebuilding the template per call would put a
    /// fixed waveform synthesis on the hot path.
    fn preamble_template() -> &'static [Complex] {
        static TEMPLATE: OnceLock<Vec<Complex>> = OnceLock::new();
        TEMPLATE.get_or_init(|| modulate_chips(&spread(0)))
    }

    /// Two preamble symbols back to back — the timing-search template.
    fn sync_template() -> &'static [Complex] {
        static TEMPLATE: OnceLock<Vec<Complex>> = OnceLock::new();
        TEMPLATE.get_or_init(|| {
            let one = Self::preamble_template();
            let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
            let mut template = Vec::with_capacity(sym_len * 2);
            template.extend_from_slice(&one[..sym_len]);
            template.extend_from_slice(&one[..sym_len]);
            template
        })
    }

    /// `FFT(template) / SCREEN_LEN`, the template zero-padded to the
    /// screen length: the timing screen's filter.
    fn sync_template_spectrum() -> &'static [Complex] {
        static SPECTRUM: OnceLock<Vec<Complex>> = OnceLock::new();
        SPECTRUM.get_or_init(|| {
            let mut spectrum = Self::sync_template().to_vec();
            spectrum.resize(SCREEN_LEN, Complex::ZERO);
            fft::fft_in_place(&mut spectrum).expect("power-of-two screen length");
            for v in &mut spectrum {
                *v /= SCREEN_LEN as f64;
            }
            spectrum
        })
    }

    /// Exact normalized template correlation at `off` — the score the
    /// timing search ranks by — and the raw correlation.
    fn score_at(
        wave: &[Complex],
        template: &[Complex],
        t_energy: f64,
        off: usize,
    ) -> (f64, Complex) {
        let seg = &wave[off..off + template.len()];
        let corr = simd::cdot_conj(seg, template);
        let r_energy = simd::sum_norm_sqr(seg);
        let score = if r_energy > 0.0 {
            corr.norm_sqr() / (r_energy * t_energy)
        } else {
            0.0
        };
        (score, corr)
    }

    /// Screens the offsets `0..=search` of `wave` (at least
    /// `search + template.len()` samples long). Writes into `upper[off]` a
    /// bound the exact [`Self::score_at`] at `off` cannot exceed, and
    /// returns the largest of the matching lower bounds: the best exact
    /// score reaches it, so no offset whose upper bound falls below it can
    /// be the best.
    ///
    /// Returns `None` when the screen cannot rule out any offset: non-finite
    /// or overflowing input, or a region whose whole energy is under the
    /// floor (silence), which it gives up on before any transform.
    ///
    /// The correlations of up to `SCREEN_LEN - 127` offsets come from one
    /// block of `SCREEN_LEN` samples: `conj(corr) = FFT(conj(FFT(block)) ·
    /// FFT(template) / SCREEN_LEN)`, no wrap-around because the block holds
    /// every sample those offsets touch. Window energies are a running sum.
    fn screen(
        wave: &[Complex],
        template: &[Complex],
        t_energy: f64,
        search: usize,
        upper: &mut Vec<f64>,
    ) -> Option<f64> {
        let t_len = template.len();
        let region = &wave[..search + t_len];
        let total = simd::sum_norm_sqr(region);
        if !(total * t_energy).is_finite() || total <= SCREEN_ENERGY_FLOOR {
            return None;
        }
        // Both error bounds scale with the region: the FFT's rounding with
        // the block norms, the running sum's with the largest window.
        let corr_err = SCREEN_MARGIN * (total * t_energy).sqrt();
        let energy_err = SCREEN_MARGIN * total + SCREEN_ENERGY_FLOOR;

        let spectrum = Self::sync_template_spectrum();
        let mut energy = simd::sum_norm_sqr(&region[..t_len]);
        let mut best_lower = 0.0f64;
        upper.clear();
        let mut buf = [Complex::ZERO; SCREEN_LEN];
        let per_block = SCREEN_LEN - t_len + 1;
        let mut base = 0;
        while base <= search {
            let block = &region[base..(base + SCREEN_LEN).min(region.len())];
            buf[..block.len()].copy_from_slice(block);
            buf[block.len()..].fill(Complex::ZERO);
            fft::fft_in_place(&mut buf).expect("power-of-two screen length");
            for (b, t) in buf.iter_mut().zip(spectrum) {
                *b = b.conj() * *t;
            }
            fft::fft_in_place(&mut buf).expect("power-of-two screen length");
            for (k, c) in buf[..per_block.min(search + 1 - base)].iter().enumerate() {
                let off = base + k;
                if off > 0 {
                    energy += region[off + t_len - 1].norm_sqr() - region[off - 1].norm_sqr();
                }
                // `sqrt(norm_sqr)`, not the slower `hypot`: any extra
                // rounding is far inside `corr_err`.
                let corr = c.norm_sqr().sqrt();
                let hi = corr + corr_err;
                let lo = (corr - corr_err).max(0.0);
                let (u, l) = if energy > energy_err {
                    (
                        hi * hi / ((energy - energy_err) * t_energy),
                        lo * lo / ((energy + energy_err) * t_energy),
                    )
                } else {
                    (f64::INFINITY, 0.0)
                };
                // An infinite upper bound only keeps the offset in play; a
                // lower bound must be a number to rule others out.
                if u.is_nan() || !l.is_finite() {
                    return None;
                }
                upper.push(u);
                best_lower = best_lower.max(l);
            }
            base += per_block;
        }
        Some(best_lower)
    }

    /// Correlates the known preamble against the waveform to estimate
    /// timing, phase and CFO.
    fn synchronize(&self, wave: &[Complex]) -> SyncResult {
        // Template: two preamble symbols for timing, full four for CFO.
        let template = Self::sync_template();
        let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;

        // Too little signal to correlate against the template: report a
        // null sync instead of slicing out of range.
        if wave.len() < template.len() {
            return SyncResult {
                offset: 0,
                phase: 0.0,
                cfo_per_sample: 0.0,
                peak_correlation: 0.0,
            };
        }

        let t_energy = simd::sum_norm_sqr(template);
        let search = self
            .sync_search
            .min(wave.len().saturating_sub(template.len()));
        // Rescore every offset the screen leaves in play with the exact
        // score, first strict maximum winning: the offset and correlation a
        // search over all offsets picks, since the best offset's upper
        // bound is never below another offset's lower bound.
        let mut best_off = 0usize;
        let mut best_corr = Complex::ZERO;
        let mut best_score = f64::NEG_INFINITY;
        SCREEN_BOUNDS.with_borrow_mut(|upper| {
            let screened = if search > 0 {
                Self::screen(wave, template, t_energy, search, upper)
            } else {
                None
            };
            let in_play = |off: usize| screened.is_none_or(|floor| upper[off] >= floor);
            for off in (0..=search).filter(|&off| in_play(off)) {
                let (score, corr) = Self::score_at(wave, template, t_energy, off);
                if score > best_score {
                    best_score = score;
                    best_off = off;
                    best_corr = corr;
                }
            }
        });

        // CFO by delay-and-correlate over the preamble: consecutive preamble
        // symbols carry identical chips, so the waveform is 64-sample
        // periodic and `sum x[n+64] x*[n]` accumulates the per-symbol phase
        // advance with a long averaging window (unbiased for offsets below
        // fs/128 ≈ 31 kHz — far above any residual CFO after front-end
        // correction).
        let mut cfo = 0.0;
        if self.correct_cfo {
            let span = (6 * sym_len).min(wave.len().saturating_sub(best_off));
            if span > sym_len + 32 {
                let seg = &wave[best_off..best_off + span];
                let acc = simd::cdot_conj(&seg[sym_len..], &seg[..span - sym_len]);
                if acc.norm() > 0.0 {
                    cfo = acc.arg() / sym_len as f64;
                }
            }
        }

        // Phase from the template correlation of the CFO-derotated preamble.
        let phase = if self.correct_phase {
            let seg_end = (best_off + template.len()).min(wave.len());
            let corr = simd::cdot_conj_rotated(&wave[best_off..seg_end], template, -cfo);
            if corr.norm() > 0.0 {
                corr.arg()
            } else {
                best_corr.arg()
            }
        } else {
            best_corr.arg()
        };

        SyncResult {
            offset: best_off,
            phase,
            cfo_per_sample: cfo,
            peak_correlation: best_score.max(0.0).sqrt(),
        }
    }

    /// Sub-sample refinement: the fractional advance (a multiple of 1/8
    /// sample) that maximizes the preamble correlation of the aligned
    /// waveform, or 0 when fractional timing is off.
    fn fractional_offset(&self, aligned: &[Complex]) -> f64 {
        if !self.fractional_timing || aligned.is_empty() {
            return 0.0;
        }
        let one = Self::preamble_template();
        let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
        let template = &one[..sym_len.min(one.len())];
        let mut best_mu = 0.0f64;
        let mut best = f64::NEG_INFINITY;
        for k in 0..8 {
            let mu = k as f64 / 8.0;
            let candidate = if mu == 0.0 {
                aligned.to_vec()
            } else {
                ctc_dsp::fractional::fractional_advance(aligned, mu)
            };
            if candidate.len() < template.len() {
                break;
            }
            let corr = simd::cdot_conj(&candidate[..template.len()], template);
            if corr.norm() > best {
                best = corr.norm();
                best_mu = mu;
            }
        }
        best_mu
    }

    /// Processes a received baseband waveform (4 MHz, frame starting within
    /// the configured search window) into a [`Reception`].
    pub fn receive(&self, wave: &[Complex]) -> Reception {
        let sync = self.synchronize(wave);
        let aligned_slice = &wave[sync.offset.min(wave.len())..];
        let fractional = self.fractional_offset(aligned_slice);
        let refined;
        let aligned: &[Complex] = if fractional > 0.0 {
            refined = ctc_dsp::fractional::fractional_advance(aligned_slice, fractional);
            &refined
        } else {
            aligned_slice
        };

        // The decoding copy: CFO removed (clock recovery), then the
        // preamble phase.
        let mut corrected = aligned.to_vec();
        if self.correct_cfo {
            simd::rotate_in_place(&mut corrected, -sync.cfo_per_sample);
        }
        if self.correct_phase {
            ctc_dsp::filter::phase_rotate_in_place(&mut corrected, -sync.phase);
        }

        let num_chips = (aligned.len() / SAMPLES_PER_CHIP) & !1usize;
        let raw_chip_samples = demodulate_chips(aligned, num_chips);
        let chip_samples = demodulate_chips(&corrected, num_chips);

        // Despread 32-chip groups; the hard decisions are the soft chips'
        // signs, packed one group per word.
        let soft = chip_samples.interleaved();
        let groups = soft.len() / CHIPS_PER_SYMBOL;
        let mut symbols = Vec::with_capacity(groups);
        let mut hamming_distances = Vec::with_capacity(groups);
        let mut soft_scores = Vec::with_capacity(groups);
        let mut dropped = Vec::with_capacity(groups);
        for chips in soft.chunks_exact(CHIPS_PER_SYMBOL) {
            let (hard_sym, dist) = despread_word(pack_signs(chips));
            let (soft_sym, score) = despread_soft(chips);
            match self.decision {
                Decision::Hard { threshold } => {
                    symbols.push(hard_sym);
                    dropped.push(dist > threshold);
                }
                Decision::Soft { min_score } => {
                    symbols.push(soft_sym);
                    dropped.push(score < min_score);
                }
            }
            hamming_distances.push(dist);
            soft_scores.push(score);
        }

        let frame = parse_frame_symbols(&symbols);
        Reception {
            symbols,
            hamming_distances,
            soft_scores,
            dropped,
            raw_chip_samples,
            chip_samples,
            frame,
            sync,
        }
    }
}

/// The direct decode the screened search and one-pass despreading
/// replaced: every offset scored exactly, CFO-only and fully corrected
/// copies, byte-per-chip hard decisions and one correlation call per
/// chip sequence. The test oracle `receive` must match bit for bit.
#[cfg(test)]
mod oracle {
    use super::*;
    use crate::chipmap::direct;

    pub fn synchronize(rx: &Receiver, wave: &[Complex]) -> SyncResult {
        let template = Receiver::sync_template();
        let sym_len = CHIPS_PER_SYMBOL * SAMPLES_PER_CHIP;
        if wave.len() < template.len() {
            return SyncResult {
                offset: 0,
                phase: 0.0,
                cfo_per_sample: 0.0,
                peak_correlation: 0.0,
            };
        }
        let t_energy = simd::sum_norm_sqr(template);
        let search = rx
            .sync_search
            .min(wave.len().saturating_sub(template.len()));
        let mut best_off = 0usize;
        let mut best_corr = Complex::ZERO;
        let mut best_score = f64::NEG_INFINITY;
        for off in 0..=search {
            let seg = &wave[off..off + template.len()];
            let corr = simd::cdot_conj(seg, template);
            let r_energy = simd::sum_norm_sqr(seg);
            let score = if r_energy > 0.0 {
                corr.norm_sqr() / (r_energy * t_energy)
            } else {
                0.0
            };
            if score > best_score {
                best_score = score;
                best_off = off;
                best_corr = corr;
            }
        }
        let mut cfo = 0.0;
        if rx.correct_cfo {
            let span = (6 * sym_len).min(wave.len().saturating_sub(best_off));
            if span > sym_len + 32 {
                let seg = &wave[best_off..best_off + span];
                let acc = simd::cdot_conj(&seg[sym_len..], &seg[..span - sym_len]);
                if acc.norm() > 0.0 {
                    cfo = acc.arg() / sym_len as f64;
                }
            }
        }
        let phase = if rx.correct_phase {
            let seg_end = (best_off + template.len()).min(wave.len());
            let corr = simd::cdot_conj_rotated(&wave[best_off..seg_end], template, -cfo);
            if corr.norm() > 0.0 {
                corr.arg()
            } else {
                best_corr.arg()
            }
        } else {
            best_corr.arg()
        };
        SyncResult {
            offset: best_off,
            phase,
            cfo_per_sample: cfo,
            peak_correlation: best_score.max(0.0).sqrt(),
        }
    }

    pub fn receive(rx: &Receiver, wave: &[Complex]) -> Reception {
        let sync = synchronize(rx, wave);
        let aligned_slice = &wave[sync.offset.min(wave.len())..];
        let fractional = rx.fractional_offset(aligned_slice);
        let refined;
        let aligned: &[Complex] = if fractional > 0.0 {
            refined = ctc_dsp::fractional::fractional_advance(aligned_slice, fractional);
            &refined
        } else {
            aligned_slice
        };
        let mut cfo_corrected = aligned.to_vec();
        if rx.correct_cfo {
            simd::rotate_in_place(&mut cfo_corrected, -sync.cfo_per_sample);
        }
        let mut corrected = cfo_corrected.clone();
        if rx.correct_phase {
            ctc_dsp::filter::phase_rotate_in_place(&mut corrected, -sync.phase);
        }
        let num_chips = (aligned.len() / SAMPLES_PER_CHIP) & !1usize;
        let raw_chip_samples = demodulate_chips(aligned, num_chips);
        let chip_samples = demodulate_chips(&corrected, num_chips);
        let soft = chip_samples.interleaved();
        let hard = chip_samples.hard_chips();
        let mut symbols = Vec::new();
        let mut hamming_distances = Vec::new();
        let mut soft_scores = Vec::new();
        let mut dropped = Vec::new();
        for group in 0..(hard.len() / CHIPS_PER_SYMBOL) {
            let lo = group * CHIPS_PER_SYMBOL;
            let hi = lo + CHIPS_PER_SYMBOL;
            let mut chips = [0u8; CHIPS_PER_SYMBOL];
            chips.copy_from_slice(&hard[lo..hi]);
            let (hard_sym, dist) = direct::despread_hard(&chips);
            let (soft_sym, score) = direct::despread_soft(&soft[lo..hi]);
            match rx.decision {
                Decision::Hard { threshold } => {
                    symbols.push(hard_sym);
                    dropped.push(dist > threshold);
                }
                Decision::Soft { min_score } => {
                    symbols.push(soft_sym);
                    dropped.push(score < min_score);
                }
            }
            hamming_distances.push(dist);
            soft_scores.push(score);
        }
        let frame = parse_frame_symbols(&symbols);
        Reception {
            symbols,
            hamming_distances,
            soft_scores,
            dropped,
            raw_chip_samples,
            chip_samples,
            frame,
            sync,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::Transmitter;
    use ctc_channel::Link;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tx_rx(payload: &[u8], rx: &Receiver) -> Reception {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(payload).unwrap();
        rx.receive(&wave)
    }

    #[test]
    fn clean_frame_decodes_hard() {
        let r = tx_rx(b"00042", &Receiver::usrp());
        assert!(r.packet_ok());
        assert_eq!(r.payload(), Some(&b"00042"[..]));
        assert!(r.hamming_distances.iter().all(|&d| d == 0));
    }

    #[test]
    fn clean_frame_decodes_soft() {
        let r = tx_rx(b"hello zigbee", &Receiver::commodity());
        assert!(r.packet_ok());
        assert_eq!(r.payload(), Some(&b"hello zigbee"[..]));
        assert!(r.soft_scores.iter().all(|&s| s > 0.95));
    }

    #[test]
    fn noisy_frame_decodes_at_moderate_snr() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"00007").unwrap();
        let link = Link::awgn(12.0);
        let mut rng = StdRng::seed_from_u64(41);
        let mut ok = 0;
        for _ in 0..20 {
            let rxw = link.transmit(&wave, &mut rng);
            if Receiver::usrp().receive(&rxw).packet_ok() {
                ok += 1;
            }
        }
        assert!(ok >= 18, "only {ok}/20 packets at 12 dB");
    }

    #[test]
    fn soft_beats_hard_at_low_snr() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"0001200045").unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let link = Link::awgn(2.0);
        let mut hard_ok = 0;
        let mut soft_ok = 0;
        for _ in 0..60 {
            let rxw = link.transmit(&wave, &mut rng);
            if Receiver::usrp().receive(&rxw).packet_ok() {
                hard_ok += 1;
            }
            if Receiver::commodity().receive(&rxw).packet_ok() {
                soft_ok += 1;
            }
        }
        assert!(
            soft_ok >= hard_ok,
            "soft ({soft_ok}) should be at least as robust as hard ({hard_ok})"
        );
    }

    #[test]
    fn phase_offset_corrected() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"4567").unwrap();
        let rotated = ctc_channel::impairments::apply_phase(&wave, 0.9);
        let r = Receiver::usrp().receive(&rotated);
        assert!(r.packet_ok(), "phase correction failed");
        // Raw samples keep the rotation; corrected ones do not.
        let raw_pts = r.raw_chip_samples.constellation();
        let fixed_pts = r.chip_samples.constellation();
        let raw_rot = raw_pts[4].arg();
        let fixed_rot = fixed_pts[4].arg();
        // Fixed points sit near odd multiples of pi/4.
        let snap = |a: f64| {
            let r = a.rem_euclid(std::f64::consts::FRAC_PI_2) - std::f64::consts::FRAC_PI_4;
            r.abs()
        };
        assert!(snap(fixed_rot) < 0.1, "corrected rot {fixed_rot}");
        assert!(
            snap(raw_rot) > 0.1,
            "raw constellation lost its rotation {raw_rot}"
        );
    }

    #[test]
    fn timing_offset_found_by_search() {
        let tx = Transmitter::new();
        let mut wave = vec![Complex::ZERO; 37];
        wave.extend(tx.transmit_payload(b"99").unwrap());
        let r = Receiver::usrp().with_sync_search(64).receive(&wave);
        assert_eq!(r.sync.offset, 37);
        assert!(r.packet_ok());
    }

    #[test]
    fn cfo_corrected() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"31415").unwrap();
        let shifted = ctc_channel::impairments::apply_cfo(&wave, 200.0, 4.0e6, 0.2);
        let r = Receiver::usrp().receive(&shifted);
        assert!(r.packet_ok(), "CFO correction failed");
    }

    #[test]
    fn garbage_does_not_decode() {
        let mut rng = StdRng::seed_from_u64(43);
        let noise: Vec<Complex> = (0..2048)
            .map(|_| ctc_channel::noise::complex_gaussian(&mut rng, 1.0))
            .collect();
        let r = Receiver::usrp().receive(&noise);
        assert!(!r.packet_ok());
    }

    #[test]
    fn dropped_symbols_fail_packet() {
        // Corrupt enough chips of one payload symbol to exceed threshold 10
        // but still decode to some symbol: packet must not count as ok.
        let tx = Transmitter::new();
        let symbols = crate::frame::build_frame_symbols(b"ab").unwrap();
        let mut chips = tx.symbols_to_chips(&symbols);
        // Payload starts after 12 symbols; corrupt symbol 13 heavily.
        let lo = 13 * CHIPS_PER_SYMBOL;
        for c in chips[lo..lo + 14].iter_mut() {
            *c = 1 - *c;
        }
        let wave = crate::modem::modulate_chips(&chips);
        let r = Receiver::usrp().receive(&wave);
        assert!(
            r.hamming_distances[13] > 10 || !r.packet_ok(),
            "corruption not reflected"
        );
    }

    #[test]
    fn fractional_timing_recovers_half_sample_offset() {
        // A half-sample delay is the worst case for a 2-sample/chip
        // receiver: without sub-sample recovery the chip samples land on
        // pulse shoulders and the constellation degrades badly.
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"frac").unwrap();
        let delayed = ctc_dsp::fractional::fractional_delay(&wave, 0.5);
        let mut rng = StdRng::seed_from_u64(44);
        let noisy = Link::awgn(10.0).transmit(&delayed, &mut rng);

        let plain = Receiver::usrp().receive(&noisy);
        let frac = Receiver::usrp()
            .with_fractional_timing(true)
            .receive(&noisy);
        assert!(
            frac.packet_ok(),
            "fractional timing should recover the frame"
        );
        assert_eq!(frac.payload(), Some(&b"frac"[..]));
        // Half-sample misalignment costs ~8% chip amplitude (half-sine
        // shoulders) — hard decisions survive, but the matched-filter
        // quality visibly improves with sub-sample recovery.
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        let plain_score = mean(&plain.soft_scores);
        let frac_score = mean(&frac.soft_scores);
        assert!(
            frac_score > plain_score + 0.01,
            "sub-sample recovery should raise the despreading correlation: \
             {frac_score} vs {plain_score}"
        );
    }

    #[test]
    fn fractional_timing_sweeps_all_offsets() {
        let tx = Transmitter::new();
        let wave = tx.transmit_payload(b"mu").unwrap();
        let rx = Receiver::usrp().with_fractional_timing(true);
        for k in 0..8 {
            let mu = k as f64 / 8.0;
            let delayed = ctc_dsp::fractional::fractional_delay(&wave, mu);
            let r = rx.receive(&delayed);
            assert_eq!(r.payload(), Some(&b"mu"[..]), "failed at mu = {mu}");
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn chip_bits(c: &ChipSamples) -> (Vec<u64>, Vec<u64>, Vec<(u64, u64)>) {
        (
            bits(&c.i_samples),
            bits(&c.q_samples),
            c.midpoints
                .iter()
                .map(|m| (m.re.to_bits(), m.im.to_bits()))
                .collect(),
        )
    }

    /// Asserts every field of two receptions is bit-identical.
    fn assert_identical(got: &Reception, want: &Reception, case: &str) {
        let sync = |s: &SyncResult| {
            (
                s.offset,
                s.phase.to_bits(),
                s.cfo_per_sample.to_bits(),
                s.peak_correlation.to_bits(),
            )
        };
        assert_eq!(sync(&got.sync), sync(&want.sync), "sync, {case}");
        assert_eq!(got.symbols, want.symbols, "symbols, {case}");
        assert_eq!(
            got.hamming_distances, want.hamming_distances,
            "hamming, {case}"
        );
        assert_eq!(
            bits(&got.soft_scores),
            bits(&want.soft_scores),
            "soft scores, {case}"
        );
        assert_eq!(got.dropped, want.dropped, "dropped, {case}");
        assert_eq!(
            chip_bits(&got.raw_chip_samples),
            chip_bits(&want.raw_chip_samples),
            "raw chips, {case}"
        );
        assert_eq!(
            chip_bits(&got.chip_samples),
            chip_bits(&want.chip_samples),
            "chips, {case}"
        );
        assert_eq!(got.frame, want.frame, "frame, {case}");
    }

    /// One seeded input of class `class`: noisy and noiseless frames with
    /// random CFO, phase and lead, extreme scalings, NaN/Inf samples,
    /// truncations (around the 128-sample template length too), noise and
    /// silence.
    fn oracle_case(class: usize, rng: &mut StdRng, frames: &[Vec<Complex>]) -> Vec<Complex> {
        use rand::Rng;
        let frame = &frames[rng.gen_range(0..frames.len())];
        let lead = rng.gen_range(0..320usize);
        let lead_power = [0.0, 1e-6, 1e-3, 1e-1][rng.gen_range(0..4usize)];
        let mut wave: Vec<Complex> = (0..lead)
            .map(|_| ctc_channel::noise::complex_gaussian(rng, lead_power))
            .collect();
        let cfo = rng.gen_range(-3000.0..3000.0);
        let phase = rng.gen_range(-3.2..3.2);
        wave.extend(ctc_channel::impairments::apply_cfo(
            frame, cfo, 4.0e6, phase,
        ));
        let snr = rng.gen_range(0.0..30.0);
        match class {
            0 => Link::awgn(snr).transmit(&wave, rng),
            1 => wave,
            2 => wave.iter().map(|&v| v * 1e150).collect(),
            3 => {
                let scale = [1e-150, 1e-155, 1e-158, 1e-160, 1e-162][rng.gen_range(0..5usize)];
                let w = Link::awgn(snr).transmit(&wave, rng);
                w.iter().map(|&v| v * scale).collect()
            }
            4 => {
                let mut w = Link::awgn(snr).transmit(&wave, rng);
                let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.gen_range(0..3usize)];
                let at = rng.gen_range(0..w.len().min(lead + 400));
                w[at] = Complex::new(bad, 0.0);
                w
            }
            5 => {
                let w = Link::awgn(snr).transmit(&wave, rng);
                let len = [0, 1, 127, 128, 129, 200, 255, 256, 300, 500][rng.gen_range(0..10usize)];
                w[..len.min(w.len())].to_vec()
            }
            6 => {
                let w = Link::awgn(snr).transmit(&wave, rng);
                let len = rng.gen_range(0..w.len());
                w[..len].to_vec()
            }
            7 => (0..rng.gen_range(0..1500usize))
                .map(|_| ctc_channel::noise::complex_gaussian(rng, 1.0))
                .collect(),
            _ => vec![Complex::ZERO; [0, 64, 127, 128, 129, 400, 1200][rng.gen_range(0..7usize)]],
        }
    }

    /// The screened search and one-pass despreading must reproduce the
    /// direct decode bit for bit, on every field, for every input class
    /// and receiver configuration.
    #[test]
    fn receive_is_bit_identical_to_direct_oracle() {
        use rand::Rng;
        let tx = Transmitter::new();
        let frames: Vec<Vec<Complex>> = [&b"0"[..], b"00042", b"hello zigbee"]
            .iter()
            .map(|p| tx.transmit_payload(p).unwrap())
            .collect();
        let mut rng = StdRng::seed_from_u64(0x5EED);
        let mut cases = 0;
        for round in 0..30 {
            for class in 0..9 {
                let wave = oracle_case(class, &mut rng, &frames);
                for search in [0, 96, 160, 300] {
                    let decision = if rng.gen_bool(0.5) {
                        Decision::Hard { threshold: 10 }
                    } else {
                        Decision::Soft { min_score: 0.25 }
                    };
                    let rx = Receiver::new()
                        .with_decision(decision)
                        .with_sync_search(search)
                        .with_phase_correction(rng.gen_bool(0.8))
                        .with_cfo_correction(rng.gen_bool(0.8))
                        .with_fractional_timing(rng.gen_bool(0.1));
                    let case = format!("round {round} class {class} search {search} {rx:?}");
                    assert_identical(&rx.receive(&wave), &oracle::receive(&rx, &wave), &case);
                    cases += 1;
                }
            }
        }
        assert_eq!(cases, 30 * 9 * 4);
    }

    /// Noiseless preambles are 64-sample periodic, so offsets a symbol
    /// apart tie to within rounding: the first exact maximum must still win.
    #[test]
    fn periodic_preamble_near_ties_keep_the_first_offset() {
        let wave = Transmitter::new().transmit_payload(b"tie").unwrap();
        for lead in [0usize, 1, 63, 64, 65, 128, 200] {
            let mut w = vec![Complex::ZERO; lead];
            w.extend_from_slice(&wave);
            for search in [96, 160, 300] {
                let rx = Receiver::usrp().with_sync_search(search);
                let got = rx.receive(&w);
                assert_identical(&got, &oracle::receive(&rx, &w), &format!("lead {lead}"));
                if lead <= search {
                    assert_eq!(got.sync.offset, lead, "lead {lead} search {search}");
                }
            }
        }
    }

    /// A `period`-periodic wave repeats its windows exactly, so offsets a
    /// period apart tie bit for bit (a constant wave ties everywhere). The
    /// screen ranks them only to rounding; its margin must keep every tied
    /// offset in play so the exact rescoring picks the first.
    #[test]
    fn exact_ties_keep_the_first_offset() {
        let mut rng = StdRng::seed_from_u64(45);
        for period in [1usize, 2, 7, 64, 100] {
            for scale in [1.0, 1e-3, 1e100] {
                let block: Vec<Complex> = (0..period)
                    .map(|_| ctc_channel::noise::complex_gaussian(&mut rng, scale))
                    .collect();
                let wave: Vec<Complex> = (0..700).map(|n| block[n % period]).collect();
                for search in [96, 160, 300] {
                    let rx = Receiver::usrp().with_sync_search(search);
                    let got = rx.receive(&wave);
                    let case = format!("period {period} scale {scale} search {search}");
                    assert_identical(&got, &oracle::receive(&rx, &wave), &case);
                    assert!(got.sync.offset < period, "{case}");
                }
            }
        }
    }

    #[test]
    fn symbol_error_count() {
        let r = tx_rx(b"z", &Receiver::usrp());
        let expected = crate::frame::build_frame_symbols(b"z").unwrap();
        assert_eq!(r.symbol_errors(&expected), 0);
        let wrong = crate::frame::build_frame_symbols(b"y").unwrap();
        assert!(r.symbol_errors(&wrong) > 0);
    }
}
