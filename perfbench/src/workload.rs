//! The three workloads and their seeded input.
//!
//! Every stream is a sequence of events, each a quiet gap followed by one
//! burst. The bursts are noisy renders of one ZigBee frame
//! (`ctc_zigbee::Transmitter`), of its WiFi emulation
//! (`ctc_core::attack::Emulator`, as seen by a ZigBee front end) and of a
//! loud white-noise burst. They are rendered once as cf32 bytes, so a
//! stream is replayed from those slices and never from a whole-capture
//! buffer: peak memory then measures the gateway, not the input.

use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, DetectionPipeline, Detector};
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{GatewayConfig, GatewayError, GatewayServer, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The payload every generated frame carries.
pub const PAYLOAD: &[u8; 5] = b"bench";

/// The Fig. 12 calibrated detector threshold, fixed here so that a change
/// to the shipped default Q does not shift the benchmark.
pub const Q: f64 = 0.25;

/// Background noise variance: 30 dB below the unit-power frames.
const NOISE_VARIANCE: f64 = 1e-3;

/// Variance of the loud noise bursts: frame-like power, so they are
/// energy-detected, but white, so they never decode.
const LOUD_NOISE_VARIANCE: f64 = 1.0;

/// Noisy renders per burst kind, picked per event from the seed.
const VARIANTS: usize = 4;

/// Quiet samples after the last burst, so that it ends on a clean gap.
const TAIL_SAMPLES: usize = 4096;

/// One kind of burst, with the verdict the gateway owes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A genuine ZigBee frame: decodes, verdict `authentic`.
    Authentic,
    /// The WiFi-emulated forgery: decodes, verdict `attack`.
    Forged,
    /// Loud white noise: energy-detected, never decodes.
    Noise,
}

impl Kind {
    /// True for the kinds that count as frames in the ground truth.
    pub fn is_frame(self) -> bool {
        self != Kind::Noise
    }

    fn index(self) -> usize {
        match self {
            Kind::Authentic => 0,
            Kind::Forged => 1,
            Kind::Noise => 2,
        }
    }
}

/// How a workload's reader hands input to the gateway.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pacing {
    /// Closed loop at full speed: every read is served at once.
    Free,
    /// Closed loop that releases input only up to `ahead` samples beyond
    /// the last `burst_end` the gateway has reported.
    Window { ahead: u64 },
    /// Open loop: sample `k` is due `k / rate` seconds after the start.
    Paced { rate: f64 },
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline scan of a quiet capture: ingest does nearly all the work.
    ScanSparse,
    /// Offline scan of a busy channel: decode and classify dominate.
    ScanDense,
    /// Two paced live channels with the 16-feature detector.
    LiveEnsemble,
}

/// Everything that defines one workload.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Concurrent streams.
    pub streams: usize,
    /// Labelled sessions (`stream` field in JSONL) or one unlabelled one.
    pub labelled: bool,
    /// Mean gap between bursts, in samples.
    pub gap: usize,
    /// Gaps are drawn uniformly from `gap ± jitter`.
    pub jitter: usize,
    /// Burst kinds, repeated in this order.
    pub cycle: &'static [Kind],
    /// How the reader releases input.
    pub pacing: Pacing,
    /// Classify with `DetectionPipeline::standard` (all 16 features)
    /// instead of the bare cumulant detector.
    pub ensemble: bool,
    /// Samples per stream in one scan repetition (paced workloads size
    /// their streams from the run length instead).
    pub rep_samples: usize,
    /// Length of the shared background-noise pool the gaps are cut from.
    pub noise_pool: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ScanSparse,
        Workload::ScanDense,
        Workload::LiveEnsemble,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ScanSparse => "scan_sparse",
            Workload::ScanDense => "scan_dense",
            Workload::LiveEnsemble => "live_ensemble",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's definition.
    pub fn spec(self) -> Spec {
        const ALTERNATE: &[Kind] = &[Kind::Authentic, Kind::Forged];
        const ENSEMBLE_CYCLE: &[Kind] =
            &[Kind::Authentic, Kind::Forged, Kind::Authentic, Kind::Noise];
        match self {
            Workload::ScanSparse => Spec {
                streams: 1,
                labelled: false,
                gap: 100_000,
                jitter: 6_000,
                cycle: ALTERNATE,
                pacing: Pacing::Free,
                ensemble: false,
                rep_samples: 32 << 20,
                noise_pool: 1 << 18,
            },
            Workload::ScanDense => Spec {
                streams: 1,
                labelled: false,
                gap: 2_000,
                jitter: 250,
                cycle: ALTERNATE,
                pacing: Pacing::Window {
                    ahead: 3 * ctc_dsp::io::DEFAULT_CHUNK_SAMPLES as u64,
                },
                ensemble: false,
                rep_samples: 4 << 20,
                noise_pool: 1 << 16,
            },
            Workload::LiveEnsemble => Spec {
                streams: 2,
                labelled: true,
                // 8k rather than 4k-sample gaps: at 4k the lone worker ran
                // near capacity, and on a contended host it shed up to 15%
                // of the bursts, so the run measured the host's load.
                gap: 8_000,
                jitter: 1_000,
                cycle: ENSEMBLE_CYCLE,
                pacing: Pacing::Paced { rate: 4e6 },
                ensemble: true,
                rep_samples: 0,
                noise_pool: 1 << 16,
            },
        }
    }
}

impl Spec {
    /// The stream label of stream `index` (`None` when unlabelled).
    pub fn label(&self, index: usize) -> Option<String> {
        self.labelled.then(|| format!("ch{index}"))
    }

    /// The detector every workload uses: the cumulant test at threshold `q`.
    pub fn detector(&self, q: f64) -> Detector {
        Detector::new(ChannelAssumption::Ideal).with_threshold(q)
    }

    /// The workload's gateway configuration: shipped defaults except one
    /// worker (fixed so the configuration does not follow the host), the
    /// explicit threshold `q`, and the ensemble pipeline where asked.
    pub fn gateway_config(&self, q: f64) -> Result<GatewayConfig, GatewayError> {
        let builder = GatewayConfig::builder()
            .workers(1)
            .detector(self.detector(q));
        let builder = if self.ensemble {
            builder.detection_pipeline(Arc::new(DetectionPipeline::standard(self.detector(q))))
        } else {
            builder
        };
        builder.build()
    }

    /// Builds the workload's gateway: configuration, detection pipeline,
    /// server, and the receiver's one-time template initialisation (a
    /// decode of a silent preamble-length probe). This is what `setup_s`
    /// times.
    pub fn build_gateway(&self, q: f64) -> Result<GatewayServer, GatewayError> {
        let config = self.gateway_config(q)?;
        let probe = vec![Complex::ZERO; 256];
        std::hint::black_box(config.receiver.receive(&probe));
        Ok(GatewayServer::new(ServerConfig::from(config)))
    }
}

/// The rendered cf32 bytes every stream of a run is cut from.
#[derive(Debug)]
pub struct Templates {
    /// `bursts[kind][variant]`.
    bursts: [Vec<Vec<u8>>; 3],
    /// Background noise the gaps are sliced from.
    noise: Vec<u8>,
}

impl Templates {
    /// Renders the bursts and the noise pool for `spec` from `seed`.
    pub fn render(spec: &Spec, seed: u64) -> Templates {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed_0f7e_5a1a_7e00);
        let authentic = ctc_zigbee::Transmitter::new()
            .transmit_payload(PAYLOAD)
            .expect("a 5-byte payload is frameable");
        let emulator = Emulator::new();
        let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
        let noisy = |clean: &[Complex], variance: f64, rng: &mut StdRng| {
            let samples: Vec<Complex> = clean
                .iter()
                .map(|&s| s + complex_gaussian(rng, variance))
                .collect();
            to_bytes(&samples)
        };
        let silent = vec![Complex::ZERO; authentic.len()];
        let bursts = [
            (0..VARIANTS)
                .map(|_| noisy(&authentic, NOISE_VARIANCE, &mut rng))
                .collect(),
            (0..VARIANTS)
                .map(|_| noisy(&forged, NOISE_VARIANCE, &mut rng))
                .collect(),
            (0..VARIANTS)
                .map(|_| noisy(&silent, LOUD_NOISE_VARIANCE, &mut rng))
                .collect(),
        ];
        let noise: Vec<Complex> = (0..spec.noise_pool)
            .map(|_| complex_gaussian(&mut rng, NOISE_VARIANCE))
            .collect();
        Templates {
            bursts,
            noise: to_bytes(&noise),
        }
    }

    /// The bytes of one burst variant.
    pub fn burst(&self, kind: Kind, variant: usize) -> &[u8] {
        &self.bursts[kind.index()][variant]
    }

    /// `len` samples of background noise starting at sample `offset`.
    pub fn gap(&self, offset: usize, len: usize) -> &[u8] {
        &self.noise[offset * 8..(offset + len) * 8]
    }
}

fn to_bytes(samples: &[Complex]) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(samples.len() * 8);
    write_cf32(&mut bytes, samples).expect("writing to a Vec cannot fail");
    bytes
}

/// One event of a stream: a gap, then a burst.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// What the burst is.
    pub kind: Kind,
    /// Which noisy render of it.
    pub variant: usize,
    /// Where the gap starts in the noise pool, in samples.
    pub gap_offset: usize,
    /// Gap length in samples.
    pub gap_len: usize,
    /// Stream index of the burst's first sample.
    pub start: u64,
    /// Stream index one past the burst's last sample.
    pub end: u64,
}

/// One stream's seeded schedule: its ground truth.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The events, in stream order.
    pub events: Vec<Event>,
    /// Total samples in the stream, quiet tail included.
    pub samples: u64,
}

impl Plan {
    /// The schedule of stream `index`, at least `samples` long.
    pub fn build(spec: &Spec, t: &Templates, seed: u64, index: usize, samples: u64) -> Plan {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(index as u64 + 1),
        );
        // Streams start at different points of the cycle.
        let phase = rng.gen_range(0..spec.cycle.len());
        let mut events = Vec::new();
        let mut at = 0u64;
        while at < samples {
            let kind = spec.cycle[(phase + events.len()) % spec.cycle.len()];
            let variant = rng.gen_range(0..VARIANTS);
            let gap_len = rng.gen_range(spec.gap - spec.jitter..=spec.gap + spec.jitter);
            let gap_offset = rng.gen_range(0..=spec.noise_pool - gap_len);
            let start = at + gap_len as u64;
            let end = start + (t.burst(kind, variant).len() / 8) as u64;
            events.push(Event {
                kind,
                variant,
                gap_offset,
                gap_len,
                start,
                end,
            });
            at = end;
        }
        Plan {
            events,
            samples: at + TAIL_SAMPLES as u64,
        }
    }

    /// Quiet tail after the last burst, in samples.
    pub fn tail(&self) -> usize {
        TAIL_SAMPLES
    }
}
