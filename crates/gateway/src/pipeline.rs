//! The single-stream gateway API: configuration, the run report, and the
//! deprecated [`Gateway`] front door.
//!
//! The pipeline itself (ingest → shard queues → worker pool → ordering
//! sink) lives in [`crate::server`]; since the multi-stream redesign,
//! [`Gateway::run`] is a thin one-session wrapper over
//! [`crate::server::GatewayServer`] kept for callers that
//! monitor exactly one stream.

use crate::error::GatewayError;
use crate::metrics::MetricsSnapshot;
use crate::server::{GatewayServer, NamedStream, ServerConfig};
use ctc_core::attack::EnergyDetector;
use ctc_core::defense::{DetectionPipeline, Detector};
use ctc_dsp::io::DEFAULT_CHUNK_SAMPLES;
use ctc_zigbee::Receiver;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;

/// Gateway configuration: transport-independent pipeline knobs plus the
/// three detection stages.
///
/// Construct via [`GatewayConfig::builder`] (validates at build time) or
/// [`GatewayConfig::default`]; the fields stay public for
/// record-update syntax over a known-good base.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Samples per ingest chunk.
    pub chunk_samples: usize,
    /// Decode/classify worker threads.
    pub workers: usize,
    /// Bounded work-queue depth per shard, in bursts.
    pub queue_depth: usize,
    /// Burst-length cap in samples (continuous transmissions are split),
    /// bounding per-burst memory.
    pub max_burst: usize,
    /// Emit a stats line this often (`None`: only the final one).
    pub stats_interval: Option<Duration>,
    /// Energy/burst detection stage.
    pub energy: EnergyDetector,
    /// Frame decoding stage.
    pub receiver: Receiver,
    /// Classification stage.
    pub detector: Detector,
    /// Feature-ensemble classification stage (`None`: the legacy
    /// single-statistic `detector` path, byte-for-byte). When set, every
    /// burst is scored by the pipeline and events carry per-feature
    /// scores.
    pub pipeline: Option<Arc<DetectionPipeline>>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            chunk_samples: DEFAULT_CHUNK_SAMPLES,
            workers: default_workers(),
            queue_depth: 64,
            max_burst: 1 << 20,
            stats_interval: Some(Duration::from_secs(5)),
            energy: EnergyDetector::default(),
            receiver: Receiver::usrp().with_sync_search(96),
            // Fail closed: the calibrated threshold, not the paper's 0.5,
            // which passes every forgery of the Fig. 12 sweep.
            detector: Detector::new(ctc_core::defense::ChannelAssumption::Ideal)
                .with_threshold(Detector::CALIBRATED_THRESHOLD),
            pipeline: None,
        }
    }
}

impl GatewayConfig {
    /// A validating builder starting from [`GatewayConfig::default`].
    pub fn builder() -> GatewayConfigBuilder {
        GatewayConfigBuilder {
            config: GatewayConfig::default(),
        }
    }
}

/// Builder for [`GatewayConfig`] that rejects nonsense at
/// [`build`](GatewayConfigBuilder::build) time instead of panicking (or
/// hanging) deep inside a run.
#[derive(Debug, Clone)]
pub struct GatewayConfigBuilder {
    config: GatewayConfig,
}

impl GatewayConfigBuilder {
    /// Samples per ingest chunk.
    pub fn chunk_samples(mut self, samples: usize) -> Self {
        self.config.chunk_samples = samples;
        self
    }

    /// Decode/classify worker threads.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bounded work-queue depth per shard, in bursts.
    pub fn queue_depth(mut self, depth: usize) -> Self {
        self.config.queue_depth = depth;
        self
    }

    /// Burst-length cap in samples.
    pub fn max_burst(mut self, max: usize) -> Self {
        self.config.max_burst = max;
        self
    }

    /// Stats-line cadence (`None`: only the final line).
    pub fn stats_interval(mut self, interval: Option<Duration>) -> Self {
        self.config.stats_interval = interval;
        self
    }

    /// Energy/burst detection stage.
    pub fn energy(mut self, energy: EnergyDetector) -> Self {
        self.config.energy = energy;
        self
    }

    /// Frame decoding stage.
    pub fn receiver(mut self, receiver: Receiver) -> Self {
        self.config.receiver = receiver;
        self
    }

    /// Classification stage.
    pub fn detector(mut self, detector: Detector) -> Self {
        self.config.detector = detector;
        self
    }

    /// Feature-ensemble classification stage (see
    /// [`GatewayConfig::pipeline`]).
    pub fn detection_pipeline(mut self, pipeline: Arc<DetectionPipeline>) -> Self {
        self.config.pipeline = Some(pipeline);
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// [`GatewayError::Config`] when any of these hold:
    /// `workers == 0` (no one would ever decode), `queue_depth == 0`
    /// (every burst would be shed), `chunk_samples == 0` (ingest could
    /// not make progress), `energy.window == 0` (the splitter would
    /// panic), or `max_burst < energy.min_len` (the splitter would
    /// reject it).
    pub fn build(self) -> Result<GatewayConfig, GatewayError> {
        let c = &self.config;
        if c.workers == 0 {
            return Err(GatewayError::Config("workers must be > 0".into()));
        }
        if c.queue_depth == 0 {
            return Err(GatewayError::Config("queue depth must be > 0".into()));
        }
        if c.chunk_samples == 0 {
            return Err(GatewayError::Config("chunk size must be > 0".into()));
        }
        if c.energy.window == 0 {
            return Err(GatewayError::Config(
                "energy detection window must be > 0".into(),
            ));
        }
        if c.max_burst < c.energy.min_len {
            return Err(GatewayError::Config(format!(
                "max burst ({}) below the energy detector's min_len ({})",
                c.max_burst, c.energy.min_len
            )));
        }
        Ok(self.config)
    }
}

/// Default worker count: leave a core for ingest, cap the fan-out.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1))
        .unwrap_or(2)
        .clamp(1, 8)
}

/// Final tally of one gateway run.
#[derive(Debug, Clone, Copy)]
pub struct GatewayReport {
    /// Counters at end of stream.
    pub metrics: MetricsSnapshot,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
}

impl GatewayReport {
    /// Ingest rate in megasamples per second.
    pub fn msamples_per_sec(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs <= 0.0 {
            return 0.0;
        }
        self.metrics.samples_in as f64 / secs / 1e6
    }

    /// True when at least one decoded frame was attributed to the
    /// attacker — what a shell pipeline branches on.
    pub fn forgery_detected(&self) -> bool {
        self.metrics.forgeries > 0
    }
}

/// The single-stream detection gateway (deprecated front door).
///
/// # Examples
///
/// ```no_run
/// use ctc_gateway::{GatewayError, NamedStream, ServerConfig, GatewayServer};
///
/// let server = GatewayServer::new(ServerConfig::default());
/// let input = std::fs::File::open("recording.cf32").map_err(|source| {
///     GatewayError::Open { input: "recording.cf32".into(), source }
/// })?;
/// let report = server.run_streams(
///     vec![NamedStream::unlabelled(input)],
///     &mut std::io::stdout(),
///     &mut std::io::stderr(),
/// )?;
/// eprintln!("{:.1} Msamples/s", report.msamples_per_sec());
/// # Ok::<(), GatewayError>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct Gateway {
    config: GatewayConfig,
    /// Registry the run's counters are published into (collectors are
    /// registered at `run()` start).
    #[cfg(feature = "telemetry")]
    registry: Option<std::sync::Arc<ctc_obs::Registry>>,
    /// Span log receiving per-stage trace records.
    #[cfg(feature = "telemetry")]
    trace: Option<std::sync::Arc<ctc_obs::TraceSink>>,
}

impl Gateway {
    /// Gateway with the given configuration.
    pub fn new(config: GatewayConfig) -> Self {
        Gateway {
            config,
            #[cfg(feature = "telemetry")]
            registry: None,
            #[cfg(feature = "telemetry")]
            trace: None,
        }
    }

    /// Publishes this gateway's runs into `registry` under the canonical
    /// `ctc_*` metric names (see [`crate::obs::register_run`]).
    #[cfg(feature = "telemetry")]
    pub fn with_registry(mut self, registry: std::sync::Arc<ctc_obs::Registry>) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Records per-stage span intervals into `trace` (JSONL; see
    /// [`ctc_obs::trace`]). Without a sink, tracing costs nothing.
    #[cfg(feature = "telemetry")]
    pub fn with_trace_sink(mut self, trace: std::sync::Arc<ctc_obs::TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The configuration in use.
    pub fn config(&self) -> &GatewayConfig {
        &self.config
    }

    /// Runs the pipeline until `input` reaches end of stream: frame events
    /// as JSON lines onto `events`, periodic + final stats lines onto
    /// `stats`.
    ///
    /// Deprecated — this is now a one-session wrapper over the
    /// multi-stream server. One-line migration:
    ///
    /// ```text
    /// -  Gateway::new(config).run(input, &mut out, &mut err)?
    /// +  GatewayServer::new(ServerConfig::from(config))
    /// +      .run_streams(vec![NamedStream::unlabelled(input)], &mut out, &mut err)?
    /// ```
    ///
    /// Events and the final stats line are byte-identical between the two
    /// forms for an unlabelled single stream.
    ///
    /// # Errors
    ///
    /// Input read errors ([`GatewayError::Read`]) and event/stats write
    /// errors ([`GatewayError::SinkWrite`]). Detection state is internal;
    /// a malformed *stream* (partial trailing sample) is an error after
    /// all complete samples were processed.
    #[deprecated(
        since = "0.6.0",
        note = "use GatewayServer::run_streams with one NamedStream::unlabelled(input) \
                (identical output for a single unlabelled stream)"
    )]
    pub fn run<R, W, E>(
        &self,
        input: R,
        events: &mut W,
        stats: &mut E,
    ) -> Result<GatewayReport, GatewayError>
    where
        R: Read + Send,
        W: Write + Send,
        E: Write,
    {
        // One stream has no cross-session fairness to arbitrate: a single
        // shard reproduces the original single-queue pipeline exactly.
        let config = ServerConfig {
            shards: 1,
            ..ServerConfig::from(self.config.clone())
        };
        #[allow(unused_mut)]
        let mut server = GatewayServer::new(config);
        #[cfg(feature = "telemetry")]
        {
            if let Some(registry) = &self.registry {
                server = server.with_registry(registry.clone());
            }
            if let Some(trace) = &self.trace {
                server = server.with_trace_sink(trace.clone());
            }
        }
        let report = server.run_streams(vec![NamedStream::unlabelled(input)], events, stats)?;
        Ok(GatewayReport {
            metrics: report.metrics,
            elapsed: report.elapsed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_the_default_shape() {
        let config = GatewayConfig::builder()
            .chunk_samples(1000)
            .workers(2)
            .queue_depth(8)
            .stats_interval(None)
            .build()
            .unwrap();
        assert_eq!(config.chunk_samples, 1000);
        assert_eq!(config.workers, 2);
        assert_eq!(config.queue_depth, 8);
        assert_eq!(config.stats_interval, None);
    }

    #[test]
    fn builder_rejects_degenerate_configs() {
        for (builder, needle) in [
            (GatewayConfig::builder().workers(0), "workers"),
            (GatewayConfig::builder().queue_depth(0), "queue depth"),
            (GatewayConfig::builder().chunk_samples(0), "chunk size"),
            (GatewayConfig::builder().max_burst(1), "min_len"),
        ] {
            match builder.build() {
                Err(GatewayError::Config(reason)) => {
                    assert!(reason.contains(needle), "{reason}");
                }
                other => panic!("expected Config error about {needle}, got {other:?}"),
            }
        }
    }

    #[test]
    fn builder_errors_map_to_the_config_exit_code() {
        let err = GatewayConfig::builder().workers(0).build().unwrap_err();
        assert_eq!(err.exit_code(), 10);
    }
}
