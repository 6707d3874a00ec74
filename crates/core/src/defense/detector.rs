//! The hypothesis-testing detector (paper Sec. VI-B3, eq. (10)–(11)).
//!
//! `H0`: the waveform came from the ZigBee transmitter;
//! `H1`: it came from the WiFi attacker. The statistic is the squared
//! distance `DE²` between the estimated feature vector
//! `φ = [Ĉ40, Ĉ42]ᵀ` and the QPSK Voronoi point `v = [1, -1]ᵀ`; decide `H1`
//! when `DE² > Q`. The paper derives `Q = 0.5` from its training data; the
//! [`Detector::calibrate`] constructor re-derives a threshold from training
//! receptions the same way (midpoint of the gap between the two classes).
//!
//! Each channel assumption computes only what its statistic reads
//! ([`ChannelAssumption::statistic`]): the ideal `DE²` needs the cumulants
//! alone, so the fourth-power spectral-line search behind `|Ĉ40|` runs only
//! for [`ChannelAssumption::Real`] (and for the detection pipeline, whose
//! extractors read the line).

use crate::defense::features::{constellation_from_reception, de_squared_ideal_from, Features};
use ctc_dsp::cumulants::{Cumulants, EmptySamplesError};
use ctc_dsp::Complex;
use ctc_zigbee::Reception;

/// Channel assumption selecting the `C40` flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ChannelAssumption {
    /// AWGN only: use `Re Ĉ40` (Sec. VI-B).
    #[default]
    Ideal,
    /// Frequency/phase offsets present: use `|Ĉ40|` (Sec. VI-C).
    Real,
}

impl ChannelAssumption {
    /// The DE² statistic of constellation `points`, computing only what
    /// this assumption reads: `Ideal` estimates the cumulants alone, `Real`
    /// runs the full [`Features::estimate`] for its `|Ĉ40|` line. The one
    /// statistic path behind [`Detector::detect`],
    /// [`Detector::detect_aggregated`], [`Detector::statistic_for_points`]
    /// and [`Detector::calibrate`]; bit-identical to
    /// [`de_squared`](Self::de_squared) of the same points' features.
    ///
    /// # Errors
    ///
    /// Returns [`EmptySamplesError`] for an empty point set.
    pub fn statistic(self, points: &[Complex]) -> Result<f64, EmptySamplesError> {
        match self {
            ChannelAssumption::Ideal => Ok(de_squared_ideal_from(&Cumulants::estimate(points)?)),
            ChannelAssumption::Real => Ok(Features::estimate(points)?.de_squared_real()),
        }
    }

    /// The DE² statistic this assumption reads from already-estimated
    /// features (the detection pipeline, which needs the full features for
    /// its extractors anyway).
    pub fn de_squared(self, features: &Features) -> f64 {
        match self {
            ChannelAssumption::Ideal => features.de_squared_ideal(),
            ChannelAssumption::Real => features.de_squared_real(),
        }
    }
}

/// Outcome of one detection: the statistic and the decision. Callers that
/// want the features behind it call
/// [`features_from_reception`](crate::defense::features_from_reception)
/// (or read [`FeatureInput::features`](crate::defense::FeatureInput::features)).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Verdict {
    /// The decision statistic `DE²`.
    pub de_squared: f64,
    /// `true` = `H1` (WiFi attacker).
    pub is_attack: bool,
}

/// Errors from detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectError {
    /// The reception carried no chip samples to analyze.
    NoSamples,
}

impl std::fmt::Display for DetectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DetectError::NoSamples => write!(f, "reception contains no chip samples"),
        }
    }
}

impl std::error::Error for DetectError {}

/// The fail-closed decision rule shared by the detector's verdicts and
/// the pipeline classifiers: attack when `score > threshold` or when the
/// score is not finite (NaN or ±∞), which a plain comparison would pass.
pub(crate) fn exceeds(score: f64, threshold: f64) -> bool {
    !score.is_finite() || score > threshold
}

/// The constellation-statistics detector.
///
/// # Examples
///
/// ```
/// use ctc_core::defense::{ChannelAssumption, Detector};
/// use ctc_zigbee::{Receiver, Transmitter};
///
/// let wave = Transmitter::new().transmit_payload(b"00000")?;
/// let reception = Receiver::usrp().receive(&wave);
/// let verdict = Detector::new(ChannelAssumption::Ideal).detect(&reception).unwrap();
/// assert!(!verdict.is_attack);
/// # Ok::<(), ctc_zigbee::frame::FrameError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detector {
    assumption: ChannelAssumption,
    threshold: f64,
}

impl Default for Detector {
    fn default() -> Self {
        Detector::new(ChannelAssumption::Ideal)
    }
}

impl Detector {
    /// This implementation's calibrated threshold: the Fig. 12 calibration
    /// puts the smallest emulated DE² at 0.31–0.45 and the largest
    /// authentic DE² at or below 0.24 at every SNR from 7 dB up. The paper's
    /// `Q = 0.5` passes every forgery below it, so the streaming gateway and
    /// `ctc monitor` ship this value as their default.
    pub const CALIBRATED_THRESHOLD: f64 = 0.25;

    /// Detector with the paper's threshold `Q = 0.5`.
    pub fn new(assumption: ChannelAssumption) -> Self {
        Detector {
            assumption,
            threshold: 0.5,
        }
    }

    /// Overrides the decision threshold.
    ///
    /// # Panics
    ///
    /// Panics unless `q` is finite and positive: `q <= 0` or NaN is
    /// meaningless, and `q = ∞` would pass every finite statistic, which
    /// switches detection off.
    pub fn with_threshold(mut self, q: f64) -> Self {
        assert!(
            q.is_finite() && q > 0.0,
            "threshold must be finite and positive, got {q}"
        );
        self.threshold = q;
        self
    }

    /// Calibrates a threshold from labelled training receptions, mirroring
    /// the paper's procedure (Sec. VII-B: first 50 waveforms of each class):
    /// the threshold is the midpoint between the largest ZigBee statistic
    /// and the smallest emulated statistic. Falls back to `Q = 0.5` when a
    /// class is empty or the classes overlap.
    pub fn calibrate(
        assumption: ChannelAssumption,
        zigbee_training: &[Reception],
        emulated_training: &[Reception],
    ) -> Self {
        let stat = |r: &Reception| assumption.statistic(&constellation_from_reception(r)).ok();
        let zig: Vec<f64> = zigbee_training.iter().filter_map(stat).collect();
        let emu: Vec<f64> = emulated_training.iter().filter_map(stat).collect();
        Self::calibrate_from_stats(assumption, &zig, &emu)
    }

    /// Calibrates a threshold from already-computed training statistics
    /// (per-reception `DE²` values) using the same rule as
    /// [`Detector::calibrate`]: midpoint of the gap between the largest
    /// ZigBee statistic and the smallest emulated statistic, falling back
    /// to `Q = 0.5` when a class is empty or the classes overlap. Useful
    /// when the caller has reduced receptions to their statistics already
    /// (e.g. the experiment engine's map/reduce pipeline).
    pub fn calibrate_from_stats(
        assumption: ChannelAssumption,
        zigbee_stats: &[f64],
        emulated_stats: &[f64],
    ) -> Self {
        let zig_max = zigbee_stats.iter().copied().fold(f64::NAN, f64::max);
        let emu_min = emulated_stats.iter().copied().fold(f64::NAN, f64::min);
        let threshold = if zig_max.is_finite() && emu_min.is_finite() && emu_min > zig_max {
            (zig_max + emu_min) / 2.0
        } else {
            0.5
        };
        Detector {
            assumption,
            threshold,
        }
    }

    /// Configured threshold `Q`.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Configured channel assumption.
    pub fn assumption(&self) -> ChannelAssumption {
        self.assumption
    }

    /// Computes the statistic for explicit constellation points (`None`
    /// for an empty set).
    pub fn statistic_for_points(&self, points: &[Complex]) -> Option<f64> {
        self.assumption.statistic(points).ok()
    }

    /// The verdict on constellation `points`: the one place the statistic
    /// meets the threshold.
    ///
    /// A non-finite statistic (e.g. an all-zero constellation, whose
    /// normalized cumulants divide by zero) is an attack verdict: content
    /// the detector cannot measure must not pass as authentic.
    fn verdict_on(&self, points: &[Complex]) -> Result<Verdict, DetectError> {
        let de_squared = self
            .assumption
            .statistic(points)
            .map_err(|_| DetectError::NoSamples)?;
        Ok(Verdict {
            de_squared,
            is_attack: exceeds(de_squared, self.threshold),
        })
    }

    /// The verdict read off full features: the reference the statistic
    /// path is tested against bit for bit.
    #[cfg(test)]
    pub(crate) fn verdict_for(&self, features: Features) -> Verdict {
        let de_squared = self.assumption.de_squared(&features);
        Verdict {
            de_squared,
            is_attack: exceeds(de_squared, self.threshold),
        }
    }

    /// Runs the hypothesis test on a reception.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoSamples`] when no chip samples exist.
    pub fn detect(&self, reception: &Reception) -> Result<Verdict, DetectError> {
        self.verdict_on(&constellation_from_reception(reception))
    }

    /// Aggregated detection: pools the constellation points of several
    /// receptions *from the same transmitter* and runs one test over the
    /// combined cloud. Cumulant estimator variance shrinks with sample
    /// count, so aggregation buys detection at SNRs where single frames are
    /// too noisy to classify (extension; see the `lowsnr` experiment).
    ///
    /// In the Ideal variant the frames must share a phase reference (AWGN
    /// link); in the Real variant per-frame phase is irrelevant but each
    /// frame's constellation rotates as a block, which the spectral-line
    /// |C40| search handles per the concatenated index — adequate for the
    /// residual-CFO magnitudes modelled here.
    ///
    /// # Errors
    ///
    /// Returns [`DetectError::NoSamples`] when no reception carries chip
    /// samples.
    pub fn detect_aggregated(&self, receptions: &[Reception]) -> Result<Verdict, DetectError> {
        let mut points = Vec::new();
        for r in receptions {
            points.extend(constellation_from_reception(r));
        }
        self.verdict_on(&points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attack::Emulator;
    use crate::defense::features::features_from_reception;
    use ctc_channel::Link;
    use ctc_zigbee::{Receiver, Transmitter};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn zigbee_reception(snr_db: f64, seed: u64) -> Reception {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        Receiver::usrp().receive(&Link::awgn(snr_db).transmit(&wave, &mut rng))
    }

    fn emulated_reception(snr_db: f64, seed: u64) -> Reception {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emu = Emulator::new();
        let em = emu.emulate(&wave);
        let back = emu.received_at_zigbee(&em);
        let mut rng = StdRng::seed_from_u64(seed);
        Receiver::usrp().receive(&Link::awgn(snr_db).transmit(&back, &mut rng))
    }

    #[test]
    fn non_finite_statistic_fails_closed() {
        // An all-zero cloud has C21 = 0: the normalized cumulants divide by
        // zero and DE² is NaN, which `DE² > Q` alone would pass.
        let f = Features::estimate(&[Complex::ZERO; 16]).unwrap();
        for assumption in [ChannelAssumption::Ideal, ChannelAssumption::Real] {
            let v = Detector::new(assumption).verdict_for(f);
            assert!(
                v.de_squared.is_nan(),
                "{assumption:?}: DE² {}",
                v.de_squared
            );
            assert!(v.is_attack, "{assumption:?}: NaN DE² must be an attack");
        }
        // An infinite statistic from otherwise clean QPSK features.
        let qpsk = [Complex::ONE, Complex::I, -Complex::ONE, -Complex::I];
        let clean = Features::estimate(&qpsk).unwrap();
        assert!(!Detector::default().verdict_for(clean).is_attack);
        let inf = Features {
            c42: f64::INFINITY,
            ..clean
        };
        assert!(Detector::default().verdict_for(inf).is_attack);
    }

    #[test]
    fn authentic_zigbee_passes() {
        let det = Detector::new(ChannelAssumption::Ideal);
        for seed in 0..5 {
            let v = det.detect(&zigbee_reception(17.0, 100 + seed)).unwrap();
            assert!(!v.is_attack, "false positive: DE² {}", v.de_squared);
        }
    }

    #[test]
    fn emulated_waveform_caught() {
        // Our emulation is cleaner than the paper's Matlab pipeline (their
        // fixed alpha = sqrt(26) clips the strongest bins), so the emulated
        // DE² sits near 0.35 rather than their 1.6; the calibrated threshold
        // lands in the gap either way. 0.25 is our calibrated equivalent of
        // the paper's Q = 0.5.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        for seed in 0..5 {
            let v = det.detect(&emulated_reception(17.0, 200 + seed)).unwrap();
            assert!(v.is_attack, "missed attack: DE² {}", v.de_squared);
        }
    }

    #[test]
    fn detection_works_across_paper_snr_range() {
        // Table IV shape: a persistent DE² gap between authentic and
        // emulated waveforms for SNR in {7, 12, 17} dB, with a single
        // threshold separating the classes at every SNR.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        for (i, snr) in [7.0, 12.0, 17.0].into_iter().enumerate() {
            let z = det.detect(&zigbee_reception(snr, 300 + i as u64)).unwrap();
            let e = det
                .detect(&emulated_reception(snr, 400 + i as u64))
                .unwrap();
            assert!(!z.is_attack, "SNR {snr}: zigbee DE² {}", z.de_squared);
            assert!(e.is_attack, "SNR {snr}: emulated DE² {}", e.de_squared);
            assert!(e.de_squared > z.de_squared * 1.5);
        }
    }

    #[test]
    fn calibration_finds_gap_threshold() {
        let zig: Vec<Reception> = (0..10).map(|i| zigbee_reception(12.0, 500 + i)).collect();
        let emu: Vec<Reception> = (0..10).map(|i| emulated_reception(12.0, 600 + i)).collect();
        let det = Detector::calibrate(ChannelAssumption::Ideal, &zig, &emu);
        // Threshold sits strictly between the classes.
        for r in &zig {
            assert!(!det.detect(r).unwrap().is_attack);
        }
        for r in &emu {
            assert!(det.detect(r).unwrap().is_attack);
        }
    }

    #[test]
    fn calibration_fallback_when_no_training() {
        let det = Detector::calibrate(ChannelAssumption::Real, &[], &[]);
        assert_eq!(det.threshold(), 0.5);
    }

    #[test]
    fn real_variant_survives_phase_offset() {
        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let det = Detector::new(ChannelAssumption::Real);
        for (i, theta) in [0.3f64, 0.9, 1.7, 2.5].into_iter().enumerate() {
            let rotated = ctc_channel::impairments::apply_phase(&wave, theta);
            let mut rng = StdRng::seed_from_u64(700 + i as u64);
            let noisy = Link::awgn(17.0).transmit(&rotated, &mut rng);
            let v = det.detect(&Receiver::usrp().receive(&noisy)).unwrap();
            assert!(
                !v.is_attack,
                "phase {theta}: authentic flagged, DE² {}",
                v.de_squared
            );
        }
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_threshold_rejected() {
        let _ = Detector::default().with_threshold(0.0);
    }

    #[test]
    fn non_finite_and_negative_thresholds_rejected() {
        // `q = ∞` passes every finite DE² and `q = NaN` fails every
        // comparison: either would switch detection off.
        for q in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, -0.0] {
            let result = std::panic::catch_unwind(|| Detector::default().with_threshold(q));
            assert!(result.is_err(), "threshold {q} accepted");
        }
        for q in [f64::MIN_POSITIVE, 0.25, 0.5, f64::MAX] {
            assert_eq!(Detector::default().with_threshold(q).threshold(), q);
        }
    }

    /// The seeded reception set of the bit-identity test, per class
    /// (authentic, emulated): frames noiseless and at 0–30 dB, with and
    /// without a random CFO and phase, with NaN/±Inf sample runs, and (in
    /// the authentic class) an all-zero wave and an empty capture. The
    /// second pair holds each class's AWGN-only receptions at 15 dB and
    /// up, which calibrate to a real gap.
    fn oracle_receptions() -> ([Vec<Reception>; 2], [Vec<Reception>; 2]) {
        use ctc_channel::impairments::apply_cfo;
        use rand::Rng;

        let wave = Transmitter::new().transmit_payload(b"00000").unwrap();
        let emu = Emulator::new();
        let forged = emu.received_at_zigbee(&emu.emulate(&wave));
        let rx = Receiver::usrp();
        let mut rng = StdRng::seed_from_u64(0x0b5e);
        let mut classes = [Vec::new(), Vec::new()];
        let mut gapped = [Vec::new(), Vec::new()];
        for ((class, gap), clean) in classes.iter_mut().zip(&mut gapped).zip([&wave, &forged]) {
            class.push(rx.receive(clean));
            for snr in (0..=30).step_by(3) {
                let link = Link::awgn(snr as f64);
                class.push(rx.receive(&link.transmit(clean, &mut rng)));
                if snr >= 15 {
                    gap.push(class.last().unwrap().clone());
                }
                let cfo_hz = rng.gen_range(-20e3..20e3);
                let phase = rng.gen_range(0.0..std::f64::consts::TAU);
                let offset = apply_cfo(clean, cfo_hz, 4.0e6, phase);
                class.push(rx.receive(&link.transmit(&offset, &mut rng)));
            }
            for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                let mut w = clean.clone();
                let mid = w.len() / 2;
                w[mid..mid + 16].fill(Complex::new(bad, bad));
                class.push(rx.receive(&w));
            }
        }
        classes[0].push(rx.receive(&vec![Complex::ZERO; wave.len()]));
        classes[0].push(rx.receive(&[]));
        (classes, gapped)
    }

    #[test]
    fn statistic_path_is_bit_identical_to_full_features_oracle() {
        let ([zig, emu], [gap_zig, gap_emu]) = oracle_receptions();
        let all: Vec<&Reception> = zig.iter().chain(&emu).collect();
        let bits = |v: Verdict| (v.de_squared.to_bits(), v.is_attack);
        let mut nan_attacks = 0;
        let mut empties = 0;
        for assumption in [ChannelAssumption::Ideal, ChannelAssumption::Real] {
            for det in [
                Detector::new(assumption).with_threshold(0.25),
                Detector::new(assumption),
            ] {
                for r in &all {
                    let points = constellation_from_reception(r);
                    let oracle = Features::estimate(&points).map(|f| det.verdict_for(f));
                    match (det.detect(r), oracle) {
                        (Ok(v), Ok(o)) => {
                            assert_eq!(bits(v), bits(o), "{assumption:?} Q={}", det.threshold());
                            nan_attacks += (v.de_squared.is_nan() && v.is_attack) as usize;
                        }
                        (Err(DetectError::NoSamples), Err(_)) => empties += 1,
                        (v, o) => panic!("{assumption:?}: detect {v:?} vs oracle {o:?}"),
                    }
                    assert_eq!(
                        det.statistic_for_points(&points).map(f64::to_bits),
                        oracle.ok().map(|o| o.de_squared.to_bits())
                    );
                }
                for window in all.windows(3).chain([&all[..0]]) {
                    let pooled: Vec<Reception> = window.iter().map(|r| (*r).clone()).collect();
                    let points: Vec<Complex> = window
                        .iter()
                        .flat_map(|r| constellation_from_reception(r))
                        .collect();
                    let oracle = Features::estimate(&points).map(|f| bits(det.verdict_for(f)));
                    assert_eq!(
                        det.detect_aggregated(&pooled).map(bits).ok(),
                        oracle.ok(),
                        "{assumption:?}: aggregated verdict"
                    );
                }
            }
            // Hand-made point sets: all-zero (NaN DE²), one point,
            // non-finite points and the empty set.
            let det = Detector::new(assumption).with_threshold(0.25);
            for points in [
                vec![Complex::ZERO; 16],
                vec![Complex::new(0.3, -0.7)],
                vec![Complex::ONE, Complex::new(f64::NAN, 0.0), Complex::I],
                vec![Complex::ONE, Complex::new(f64::INFINITY, 1.0)],
                Vec::new(),
            ] {
                let oracle = Features::estimate(&points).map(|f| det.verdict_for(f));
                assert_eq!(
                    det.statistic_for_points(&points).map(f64::to_bits),
                    oracle.ok().map(|o| o.de_squared.to_bits()),
                    "{assumption:?}: {points:?}"
                );
                if let Ok(o) = oracle {
                    assert!(o.is_attack || o.de_squared.is_finite());
                }
            }
            // Calibration reads the same statistic, over the whole set
            // (overlapping classes fall back to 0.5) and over the clean
            // receptions (a real gap).
            let oracle_stats = |set: &[Reception]| -> Vec<f64> {
                set.iter()
                    .filter_map(|r| features_from_reception(r).ok())
                    .map(|f| assumption.de_squared(&f))
                    .collect()
            };
            for (z, e) in [(&zig, &emu), (&gap_zig, &gap_emu)] {
                let calibrated = Detector::calibrate(assumption, z, e);
                let oracle =
                    Detector::calibrate_from_stats(assumption, &oracle_stats(z), &oracle_stats(e));
                assert_eq!(
                    calibrated.threshold().to_bits(),
                    oracle.threshold().to_bits(),
                    "{assumption:?}: calibrated Q"
                );
            }
            let gap = Detector::calibrate(assumption, &gap_zig, &gap_emu).threshold();
            assert!(
                gap < 0.5,
                "{assumption:?}: clean classes must calibrate to a gap"
            );
        }
        assert!(
            nan_attacks > 0,
            "the all-zero wave must give a NaN attack verdict"
        );
        assert!(empties > 0, "the empty capture must give NoSamples");
    }

    #[test]
    fn aggregation_stabilizes_low_snr_detection() {
        // At 3 dB a single frame's DE² is noise-dominated; pooling ten
        // frames recovers the class separation.
        let det = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);
        let zig: Vec<Reception> = (0..10).map(|i| zigbee_reception(3.0, 900 + i)).collect();
        let emu: Vec<Reception> = (0..10).map(|i| emulated_reception(3.0, 950 + i)).collect();
        let vz = det.detect_aggregated(&zig).unwrap();
        let ve = det.detect_aggregated(&emu).unwrap();
        assert!(
            ve.de_squared > vz.de_squared * 1.5,
            "aggregated gap lost: {} vs {}",
            ve.de_squared,
            vz.de_squared
        );
        let pooled: Vec<Complex> = zig.iter().flat_map(constellation_from_reception).collect();
        assert!(pooled.len() > 4000, "pooled all frames");
        assert_eq!(
            det.statistic_for_points(&pooled).map(f64::to_bits),
            Some(vz.de_squared.to_bits())
        );
    }

    #[test]
    fn aggregated_empty_errors() {
        let det = Detector::default();
        assert!(det.detect_aggregated(&[]).is_err());
    }

    #[test]
    fn statistic_for_points_matches_detect() {
        let r = zigbee_reception(15.0, 800);
        let det = Detector::default();
        let via_points = det
            .statistic_for_points(&crate::defense::features::constellation_from_reception(&r))
            .unwrap();
        let via_detect = det.detect(&r).unwrap().de_squared;
        assert!((via_points - via_detect).abs() < 1e-12);
    }
}
