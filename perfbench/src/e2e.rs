//! End-to-end runs: seeded input through `GatewayServer::run_streams`,
//! every verdict checked against the ground truth.

use crate::alloc;
use crate::feed::{Feed, Frontier};
use crate::host::{self, Reference, REFERENCE_MS};
use crate::stats::Histogram;
use crate::verdicts::{Due, Tally, VerdictSink};
use crate::workload::{Pacing, Plan, Spec, Templates};
use ctc_gateway::{GatewayError, GatewayServer, NamedStream};
use std::io::Read;
use std::sync::atomic::AtomicU64;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Fewest timed repetitions a scan workload makes, however short the run.
const MIN_REPS: usize = 5;

/// Length of the untimed warm-up call of a paced workload.
const PACED_WARMUP: Duration = Duration::from_millis(250);

/// Length of one timed call of a paced workload.
const PACED_CALL: Duration = Duration::from_secs(5);

/// A workload's definition and rendered templates; plans are cut from
/// them per run.
pub struct Input {
    /// The workload.
    pub spec: Spec,
    /// Rendered bursts and noise.
    pub templates: Templates,
    /// The seed everything is drawn from.
    pub seed: u64,
}

impl Input {
    /// Renders the templates for `spec` from `seed`.
    pub fn new(spec: Spec, seed: u64) -> Input {
        let templates = Templates::render(&spec, seed);
        Input {
            spec,
            templates,
            seed,
        }
    }

    /// One plan per stream, each at least `samples` long; `salt` gives
    /// distinct schedules (a warm-up run's, say) from the same seed.
    pub fn plans(&self, samples: u64, salt: u64) -> Vec<Plan> {
        (0..self.spec.streams)
            .map(|i| {
                Plan::build(
                    &self.spec,
                    &self.templates,
                    self.seed ^ salt.wrapping_mul(0xa076_1d64_78bd_642f),
                    i,
                    samples,
                )
            })
            .collect()
    }

    /// Samples per stream for the timed part of a run of `seconds`:
    /// a scan repetition, or the whole paced run.
    pub fn run_samples(&self, seconds: f64) -> u64 {
        match self.spec.pacing {
            Pacing::Paced { rate } => (seconds * rate) as u64,
            _ => self.spec.rep_samples as u64,
        }
    }
}

/// One `run_streams` call and what it did.
#[derive(Debug, Default)]
pub struct Rep {
    /// Wall time of the `run_streams` call.
    pub wall: Duration,
    /// Samples the gateway ingested.
    pub samples: u64,
    /// Process CPU time spent during the call.
    pub cpu_ms: f64,
    /// Allocations made during the call.
    pub allocs: u64,
    /// Bursts the gateway split out.
    pub bursts: u64,
    /// Bursts shed by the drop budget.
    pub bursts_dropped: u64,
    /// The verdicts, reconciled with the ground truth.
    pub tally: Tally,
    /// Per read call: how long due input waited for the gateway.
    pub lag: Histogram,
    /// Times a windowed reader released input without progress.
    pub stalls: u64,
    /// True when the gateway ingested exactly the samples sent.
    pub samples_ok: bool,
    /// The reference loop's time just before the call.
    pub reference_ms: f64,
    /// Converts the call's durations to the reference host speed (1 on a
    /// paced call).
    pub scale: f64,
}

impl Rep {
    /// Ingest rate in Msamples/s.
    pub fn msps(&self) -> f64 {
        self.samples as f64 / self.wall.as_secs_f64() / 1e6
    }
}

/// Runs `plans` through `server` once, with the workload's pacing;
/// `reference_ms` is the reference loop's time measured just before.
pub fn run_rep(
    input: &Input,
    plans: &[Plan],
    server: &GatewayServer,
    reference_ms: f64,
) -> Result<Rep, GatewayError> {
    run_rep_with(input, plans, server, reference_ms, |feed| Box::new(feed))
}

/// [`run_rep`], with each stream's reader passed through `wrap` first.
pub fn run_rep_with<F>(
    input: &Input,
    plans: &[Plan],
    server: &GatewayServer,
    reference_ms: f64,
    wrap: F,
) -> Result<Rep, GatewayError>
where
    F: for<'f> Fn(Feed<'f>) -> Box<dyn Read + Send + 'f>,
{
    let spec = &input.spec;
    let released: Vec<Vec<AtomicU64>> = plans
        .iter()
        .map(|p| p.events.iter().map(|_| AtomicU64::new(0)).collect())
        .collect();
    let frontier = Frontier::new();
    let frontier = matches!(spec.pacing, Pacing::Window { .. }).then_some(&frontier);
    let lag = Mutex::new(Histogram::default());
    let origin = Instant::now();
    let mut sink = VerdictSink::new(origin, frontier);
    let mut streams = Vec::with_capacity(plans.len());
    for (i, (plan, released)) in plans.iter().zip(&released).enumerate() {
        let due = match spec.pacing {
            Pacing::Paced { rate } => Due::Schedule { rate },
            _ => Due::Released(released),
        };
        sink.expect(spec.label(i), plan, due);
        let feed = Feed::new(plan, &input.templates, origin)
            .with_pacing(spec.pacing, frontier)
            .with_release_log(released)
            .with_lag_log(&lag);
        let reader = wrap(feed);
        streams.push(match spec.label(i) {
            Some(label) => NamedStream::new(label, reader),
            None => NamedStream::unlabelled(reader),
        });
    }
    let cpu0 = host::cpu_ms();
    let allocs0 = alloc::allocations();
    let report = server.run_streams(streams, &mut sink, &mut std::io::sink())?;
    let wall = origin.elapsed();
    let allocs = alloc::allocations() - allocs0;
    let cpu_ms = host::cpu_ms() - cpu0;
    let sent: u64 = plans.iter().map(|p| p.samples).sum();
    // Closed loop: the host's speed sets the pace, so the call's durations
    // scale with it. Open loop: the schedule sets the pace.
    let scale = match spec.pacing {
        Pacing::Paced { .. } => 1.0,
        Pacing::Free | Pacing::Window { .. } => REFERENCE_MS / reference_ms,
    };
    Ok(Rep {
        wall,
        samples: report.metrics.samples_in,
        cpu_ms,
        allocs,
        bursts: report.metrics.bursts,
        bursts_dropped: report.metrics.bursts_dropped,
        tally: sink.tally(scale),
        lag: lag.into_inner().unwrap_or_default(),
        stalls: frontier.map_or(0, Frontier::stalls),
        samples_ok: report.metrics.samples_in == sent,
        reference_ms,
        scale,
    })
}

/// The timed part of a run: the calls, their verdicts pooled, and the
/// plans every call ran.
pub struct Measured {
    /// Per-call numbers (their tallies and lags moved into the pools).
    pub reps: Vec<Rep>,
    /// Every call's verdicts.
    pub tally: Tally,
    /// Every call's read lags.
    pub lag: Histogram,
    /// The plans each call ran.
    pub plans: Vec<Plan>,
}

/// Runs the timed part of a run: an untimed warm-up call, then calls
/// until `seconds` have passed (at least [`MIN_REPS`] scan calls, or one
/// paced call of at most [`PACED_CALL`]), each preceded by a timing of
/// the reference loop.
pub fn measure(
    input: &Input,
    server: &GatewayServer,
    seconds: f64,
) -> Result<Measured, GatewayError> {
    let reference = Reference::new();
    let (call_seconds, min_reps) = match input.spec.pacing {
        Pacing::Paced { .. } => (PACED_CALL.as_secs_f64().min(seconds), 1),
        Pacing::Free | Pacing::Window { .. } => (seconds, MIN_REPS),
    };
    let plans = input.plans(input.run_samples(call_seconds), 0);
    let warm = match input.spec.pacing {
        Pacing::Paced { .. } => input.plans(input.run_samples(PACED_WARMUP.as_secs_f64()), 1),
        Pacing::Free | Pacing::Window { .. } => plans.clone(),
    };
    run_rep(input, &warm, server, REFERENCE_MS)?;
    let mut m = Measured {
        reps: Vec::new(),
        tally: Tally::default(),
        lag: Histogram::default(),
        plans,
    };
    let started = Instant::now();
    while m.reps.len() < min_reps || started.elapsed().as_secs_f64() < seconds {
        let mut rep = run_rep(input, &m.plans, server, reference.time_ms())?;
        m.tally.merge(std::mem::take(&mut rep.tally));
        m.lag.merge(&std::mem::take(&mut rep.lag));
        m.reps.push(rep);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn small_input(workload: Workload) -> Input {
        let mut spec = workload.spec();
        spec.gap = 20_000;
        spec.jitter = 1_000;
        Input::new(spec, 7)
    }

    #[test]
    fn a_detector_that_passes_every_forgery_fails_recall() {
        let input = small_input(Workload::ScanSparse);
        let plans = input.plans(150_000, 0);
        let calibrated = input.spec.build_gateway(crate::workload::Q).unwrap();
        let rep = run_rep(&input, &plans, &calibrated, REFERENCE_MS).unwrap();
        assert!(rep.tally.forged_sent > 0);
        assert_eq!(rep.tally.forgery_recall(), 1.0, "{:?}", rep.tally);
        assert!(rep.tally.correct());

        let blind = input.spec.build_gateway(10.0).unwrap();
        let rep = run_rep(&input, &plans, &blind, REFERENCE_MS).unwrap();
        assert_eq!(rep.tally.forgery_recall(), 0.0);
        assert_eq!(rep.tally.forged_passed, rep.tally.forged_sent);
        assert!(!rep.tally.correct(), "passed forgeries must fail the run");
    }

    #[test]
    fn a_reader_that_ends_mid_sample_fails_the_run() {
        let input = small_input(Workload::ScanSparse);
        let plans = input.plans(60_000, 0);
        let server = input.spec.build_gateway(crate::workload::Q).unwrap();
        let result = run_rep_with(&input, &plans, &server, REFERENCE_MS, |feed| {
            Box::new(feed.chain(&[1u8, 2, 3][..]))
        });
        let err = result.expect_err("a stream ending inside a sample must fail");
        assert!(matches!(err, GatewayError::Read { .. }), "{err}");
    }
}
