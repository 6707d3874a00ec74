//! Chirp-z evaluation of a DTFT on an equally spaced frequency arc
//! (Bluestein's algorithm; Rabiner, Schafer & Rader, 1969).
//!
//! The magnitudes `|X(nu_s)|²` of `X(nu) = sum_n x[n] e^{-j nu n}` at the
//! `M` frequencies `nu_s = start + s * step` cost `O(N M)` evaluated one
//! frequency at a time. Writing `s n = (s² + n² - (s - n)²) / 2` turns the
//! sum into a convolution:
//!
//! ```text
//! X(nu_s) = e^{-j step s²/2} · sum_n a[n] b[s - n]
//! a[n]    = x[n] e^{-j (start n + step n²/2)}
//! b[k]    = e^{+j step k²/2}
//! ```
//!
//! and the convolution is two FFTs of the next power of two
//! `L >= N + M - 1`. The leading factor has unit modulus, so the squared
//! magnitudes need no post-multiply.
//!
//! Per FFT length the evaluator caches the input chirp (`a`'s factor) and
//! the filter spectrum `FFT(b) / L`, and it reuses one work buffer, so a
//! warmed-up evaluator performs no allocations.

use crate::complex::Complex;
use crate::fft::transform_in_place;

/// `|X|²` evaluator for one fixed frequency arc.
///
/// # Examples
///
/// ```
/// use ctc_dsp::czt::ChirpZ;
/// use ctc_dsp::Complex;
///
/// // A tone at 0.1 rad/sample peaks at the arc point s = 10.
/// let x: Vec<Complex> = (0..64).map(|n| Complex::cis(0.1 * n as f64)).collect();
/// let mut czt = ChirpZ::new(0.0, 0.01, 21);
/// let mut power = [0.0; 21];
/// czt.norm_sqr_into(&x, &mut power);
/// assert!((power[10] - 64.0 * 64.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct ChirpZ {
    start: f64,
    step: f64,
    points: usize,
    plans: Vec<Plan>,
    work: Vec<Complex>,
}

/// The cached chirp and filter spectrum for one FFT length.
#[derive(Debug, Clone)]
struct Plan {
    len: usize,
    /// `e^{-j (start n + step n²/2)}` for every input index this length
    /// can serve: `n < len - points + 1`.
    chirp: Vec<Complex>,
    /// `FFT(b) / len`, with `b` laid out circularly so negative lags wrap.
    filter: Vec<Complex>,
}

impl ChirpZ {
    /// Evaluator for the `points` frequencies `start + s * step` (radians
    /// per sample), `s = 0..points`.
    pub fn new(start: f64, step: f64, points: usize) -> Self {
        ChirpZ {
            start,
            step,
            points,
            plans: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Writes `|sum_n x[n] e^{-j nu_s n}|²` into `out[s]` for every arc
    /// frequency `nu_s`. An empty `x` gives all zeros.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than the arc's `points`.
    pub fn norm_sqr_into(&mut self, x: &[Complex], out: &mut [f64]) {
        let m = self.points;
        assert!(out.len() >= m, "chirp-z output shorter than the arc");
        if x.is_empty() || m == 0 {
            out[..m].fill(0.0);
            return;
        }
        let len = (x.len() + m - 1).next_power_of_two();
        let idx = match self.plans.iter().position(|p| p.len == len) {
            Some(i) => i,
            None => {
                self.plans.push(Plan::new(self.start, self.step, m, len));
                self.plans.len() - 1
            }
        };
        let plan = &self.plans[idx];
        let work = &mut self.work;
        work.clear();
        work.extend(x.iter().zip(&plan.chirp).map(|(&v, &c)| v * c));
        work.resize(len, Complex::ZERO);
        transform_in_place(work, false);
        for (w, &f) in work.iter_mut().zip(&plan.filter) {
            *w *= f;
        }
        transform_in_place(work, true);
        for (o, y) in out[..m].iter_mut().zip(work.iter()) {
            *o = y.norm_sqr();
        }
    }
}

impl Plan {
    fn new(start: f64, step: f64, points: usize, len: usize) -> Self {
        let chirp = (0..len - points + 1)
            .map(|n| {
                let n = n as f64;
                Complex::cis(-(start * n + step * n * n / 2.0))
            })
            .collect();
        let b = |k: usize| {
            let k = k as f64;
            Complex::cis(step * k * k / 2.0)
        };
        let mut filter: Vec<Complex> = (0..len)
            .map(|i| if i < points { b(i) } else { b(len - i) })
            .collect();
        transform_in_place(&mut filter, false);
        let scale = 1.0 / len as f64;
        for f in &mut filter {
            *f *= scale;
        }
        Plan { len, chirp, filter }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::reference;

    fn wave(n: usize, seed: u64) -> Vec<Complex> {
        let mut s = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut rnd = move || {
            s = s
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            ((s >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        (0..n).map(|_| Complex::new(rnd(), rnd())).collect()
    }

    /// Largest deviation from the direct-sum oracle, relative to the
    /// oracle's peak magnitude.
    fn peak_relative_error(x: &[Complex], start: f64, step: f64, m: usize) -> f64 {
        let nus: Vec<f64> = (0..m).map(|s| start + step * s as f64).collect();
        let mut want = vec![0.0; m];
        reference::dtft_norms(x, &nus, &mut want);
        let mut got = vec![0.0; m];
        ChirpZ::new(start, step, m).norm_sqr_into(x, &mut got);
        let peak = want.iter().copied().fold(0.0, f64::max);
        want.iter()
            .zip(&got)
            .map(|(w, g)| (w - g.sqrt()).abs() / peak)
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_direct_sum_on_the_line_search_arc() {
        // Lengths 1-3 exercise the degenerate convolutions, 301 and 429
        // one frame's fourth-power cloud, 8191 an aggregated cloud.
        for n in [1usize, 2, 3, 301, 429, 8191] {
            let x = wave(n, n as u64);
            let err = peak_relative_error(&x, -0.3, 0.6 / 300.0, 301);
            assert!(err < 1e-11, "n={n}: relative error {err:e}");
        }
    }

    #[test]
    fn matches_direct_sum_on_a_wide_arc() {
        let x = wave(200, 5);
        let err = peak_relative_error(&x, -3.0, 0.02, 301);
        assert!(err < 1e-11, "relative error {err:e}");
    }

    #[test]
    fn empty_input_and_empty_arc() {
        let mut out = [1.0; 4];
        ChirpZ::new(0.0, 0.1, 4).norm_sqr_into(&[], &mut out);
        assert_eq!(out, [0.0; 4]);
        let mut none: [f64; 0] = [];
        ChirpZ::new(0.0, 0.1, 0).norm_sqr_into(&wave(8, 1), &mut none);
    }

    #[test]
    fn reuses_plans_and_scratch() {
        let mut czt = ChirpZ::new(-0.3, 0.002, 301);
        let mut out = [0.0; 301];
        czt.norm_sqr_into(&wave(429, 1), &mut out);
        let first = out;
        let work = czt.work.as_ptr();
        czt.norm_sqr_into(&wave(400, 2), &mut out);
        czt.norm_sqr_into(&wave(429, 1), &mut out);
        assert_eq!(out, first, "a cached plan gives the same result");
        assert_eq!(czt.plans.len(), 1, "one FFT length, one plan");
        assert_eq!(czt.work.as_ptr(), work, "scratch is reused");
    }

    #[test]
    #[should_panic(expected = "shorter than the arc")]
    fn short_output_panics() {
        ChirpZ::new(0.0, 0.1, 4).norm_sqr_into(&wave(8, 1), &mut [0.0; 3]);
    }
}
