//! The traced replay: a workload's input run on one thread through the
//! same public calls, in the same order, that the server makes, with a
//! span around each call. Spans stay in memory until the end.

use crate::e2e::Input;
use crate::feed::{nanos_since, Feed};
use crate::verdicts::{Due, Tally, VerdictSink};
use crate::workload::Plan;
use ctc_core::defense::features::{constellation_from_reception, Features};
use ctc_core::defense::{BurstCapture, FrameProcessor, MonitorFactory, StreamEvent};
use ctc_dsp::cumulants::Cumulants;
use ctc_dsp::io::Cf32Reader;
use ctc_gateway::json::{hex, JsonObject};
use ctc_gateway::{Evicted, GatewayError, ShardQueue};
use std::hint::black_box;
use std::io::Write;
use std::sync::atomic::AtomicU64;
use std::time::{Duration, Instant};

/// A traced layer. The first group is the server's path; the probes are
/// extra calls the server does not make, timed to split a layer further.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One ingest step (parent of `Io`, `Split`, `QueuePush`).
    Chunk,
    /// `Cf32Reader::read_chunk`.
    Io,
    /// `BurstSplitter::push_into` / `finish_into`.
    Split,
    /// `ShardQueue::push` of one chunk's captures.
    QueuePush,
    /// `ShardQueue::try_pop` until empty.
    QueuePop,
    /// One burst's worker step (parent of `Decode`, `Classify`, `Emit`).
    Burst,
    /// `FrameProcessor::decode`.
    Decode,
    /// `FrameProcessor::classify`.
    Classify,
    /// `JsonObject` rendering of the frame line.
    Emit,
    /// Probe: the same decode with `with_sync_search(0)`.
    DecodeNoSync,
    /// Probe: `constellation_from_reception` + `Features::estimate`.
    Features,
    /// Probe: `Cumulants::estimate` on the same points.
    Cumulants,
}

impl Layer {
    const COUNT: usize = 12;

    fn index(self) -> usize {
        self as usize
    }

    /// The span name written to the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Chunk => "chunk",
            Layer::Io => "dsp.io.read_chunk",
            Layer::Split => "core.stream.split",
            Layer::QueuePush => "gateway.session.push",
            Layer::QueuePop => "gateway.session.try_pop",
            Layer::Burst => "burst",
            Layer::Decode => "zigbee.rx.decode",
            Layer::Classify => "core.pipeline.classify",
            Layer::Emit => "gateway.json.emit",
            Layer::DecodeNoSync => "probe.decode_no_sync",
            Layer::Features => "probe.features",
            Layer::Cumulants => "probe.cumulants",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was called.
    pub layer: Layer,
    /// Start, ns after the replay began.
    pub start_ns: u64,
    /// End, ns after the replay began.
    pub end_ns: u64,
    /// The chunk or burst the call worked on.
    pub id: u64,
    /// Index of the enclosing span ([`NO_PARENT`] at top level).
    pub parent: u32,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now(&self) -> u64 {
        nanos_since(self.origin, Instant::now())
    }

    fn open(&mut self, layer: Layer, id: u64, parent: u32) -> u32 {
        let start_ns = self.now();
        self.spans.push(Span {
            layer,
            start_ns,
            end_ns: start_ns,
            id,
            parent,
        });
        (self.spans.len() - 1) as u32
    }

    fn close(&mut self, span: u32) {
        let end = self.now();
        self.spans[span as usize].end_ns = end;
    }

    fn time<T>(&mut self, layer: Layer, id: u64, parent: u32, f: impl FnOnce() -> T) -> T {
        let span = self.open(layer, id, parent);
        let out = f();
        self.close(span);
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per layer: total self time (span time minus child span time) in ns.
    pub fn self_ns(&self) -> [u64; Layer::COUNT] {
        let mut total = [0i64; Layer::COUNT];
        for s in &self.spans {
            let d = (s.end_ns - s.start_ns) as i64;
            total[s.layer.index()] += d;
            if s.parent != NO_PARENT {
                total[self.spans[s.parent as usize].layer.index()] -= d;
            }
        }
        total.map(|t| t.max(0) as u64)
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let mut line = JsonObject::new()
                .string("span", s.layer.name())
                .uint("start_ns", s.start_ns)
                .uint("end_ns", s.end_ns)
                .uint("id", s.id);
            if s.parent != NO_PARENT {
                line = line.uint("parent", s.parent as u64);
            }
            writeln!(out, "{}", line.finish())?;
        }
        out.flush()
    }
}

/// Knobs for self-tests of the replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplayOptions {
    /// Busy-waits this long inside every replayed decode span.
    pub decode_delay: Duration,
}

/// What the replay did, besides its spans.
pub struct Replay {
    /// The spans.
    pub tracer: Tracer,
    /// Samples read.
    pub samples: u64,
    /// Bursts split out.
    pub bursts: u64,
    /// Bursts whose frame decoded.
    pub decoded: u64,
    /// Bursts classified `attack`.
    pub attacks: u64,
    /// Bursts that got no verdict.
    pub classify_errors: u64,
    /// Constellation points over all bursts.
    pub points: u64,
    /// Queue calls: pushes, and pops including the one that found the
    /// queue empty.
    pub queue_ops: u64,
    /// Bytes of rendered frame lines.
    pub emit_bytes: u64,
    /// Capture-pool checkouts that had to allocate.
    pub pool_misses: u64,
    /// The replay's own verdicts, reconciled with the ground truth.
    pub tally: Tally,
}

/// Replays `plans` on one thread, as the workload's gateway would run
/// them.
pub fn replay(
    input: &Input,
    plans: &[Plan],
    q: f64,
    opts: ReplayOptions,
) -> Result<Replay, GatewayError> {
    let spec = &input.spec;
    let config = spec.gateway_config(q)?;
    let mut factory = MonitorFactory::new(config.energy, config.receiver.clone(), config.detector)
        .with_max_burst(config.max_burst);
    if let Some(pipeline) = &config.pipeline {
        factory = factory.with_pipeline(pipeline.clone());
    }
    let processor = factory.processor().clone();
    let no_sync = FrameProcessor::new(config.receiver.clone().with_sync_search(0), config.detector);
    let shard: ShardQueue<(usize, u64, BurstCapture)> = ShardQueue::new(config.queue_depth);
    let released: Vec<Vec<AtomicU64>> = plans
        .iter()
        .map(|p| p.events.iter().map(|_| AtomicU64::new(0)).collect())
        .collect();
    let origin = Instant::now();
    let mut sink = VerdictSink::new(origin, None);
    let labels: Vec<Option<String>> = (0..plans.len()).map(|i| spec.label(i)).collect();
    let mut readers = Vec::with_capacity(plans.len());
    let mut splitters = Vec::with_capacity(plans.len());
    for (i, (plan, released)) in plans.iter().zip(&released).enumerate() {
        sink.expect(labels[i].clone(), plan, Due::Released(released));
        let feed = Feed::new(plan, &input.templates, origin).with_release_log(released);
        readers.push(Cf32Reader::new(feed).with_chunk_samples(config.chunk_samples));
        splitters.push(factory.splitter());
    }

    let mut tracer = Tracer::new();
    let mut r = Replay {
        tracer: Tracer::new(),
        samples: 0,
        bursts: 0,
        decoded: 0,
        attacks: 0,
        classify_errors: 0,
        points: 0,
        queue_ops: 0,
        emit_bytes: 0,
        pool_misses: 0,
        tally: Tally::default(),
    };
    let mut live = vec![true; plans.len()];
    let mut seqs = vec![0u64; plans.len()];
    let mut chunk = Vec::new();
    let mut captures = Vec::new();
    let mut popped = Vec::new();
    let (mut chunk_id, mut burst_id) = (0u64, 0u64);
    while live.iter().any(|&l| l) {
        for s in 0..plans.len() {
            if !live[s] {
                continue;
            }
            // Ingest side: read, split, enqueue.
            chunk_id += 1;
            let step = tracer.open(Layer::Chunk, chunk_id, NO_PARENT);
            let read = tracer.time(Layer::Io, chunk_id, step, || {
                readers[s].read_chunk(&mut chunk)
            });
            let n = read.map_err(|source| GatewayError::Read {
                stream: format!("#{}", s + 1),
                source,
            })?;
            if n == 0 {
                tracer.time(Layer::Split, chunk_id, step, || {
                    splitters[s].finish_into(&mut captures)
                });
                live[s] = false;
            } else {
                r.samples += n as u64;
                tracer.time(Layer::Split, chunk_id, step, || {
                    splitters[s].push_into(&chunk, &mut captures)
                });
            }
            let pushed = captures.len() as u64;
            tracer.time(Layer::QueuePush, chunk_id, step, || {
                for capture in captures.drain(..) {
                    seqs[s] += 1;
                    let item = (s, seqs[s], capture);
                    if let Evicted::Item { .. } = shard.push(s as u64 + 1, item) {
                        unreachable!("the replay drains the queue after every chunk");
                    }
                }
            });
            tracer.close(step);

            // Worker side: dequeue, decode, classify, render.
            let pops = tracer.time(Layer::QueuePop, chunk_id, NO_PARENT, || {
                let mut calls = 1;
                while let Some((_, item)) = shard.try_pop() {
                    popped.push(item);
                    calls += 1;
                }
                calls
            });
            r.queue_ops += pushed + pops;
            for (stream, seq, capture) in popped.drain(..) {
                burst_id += 1;
                r.bursts += 1;
                let step = tracer.open(Layer::Burst, burst_id, NO_PARENT);
                let reception = tracer.time(Layer::Decode, burst_id, step, || {
                    let reception = processor.decode(&capture);
                    spin(opts.decode_delay);
                    reception
                });
                let event = tracer.time(Layer::Classify, burst_id, step, || {
                    processor.classify(&capture, reception)
                });
                let line = tracer.time(Layer::Emit, burst_id, step, || {
                    frame_line(labels[stream].as_deref(), seq, &event)
                });
                tracer.close(step);

                // Probes, after the server path so they cannot warm it.
                black_box(tracer.time(Layer::DecodeNoSync, burst_id, NO_PARENT, || {
                    no_sync.decode(&capture)
                }));
                let points = tracer.time(Layer::Features, burst_id, NO_PARENT, || {
                    let points = constellation_from_reception(&event.reception);
                    black_box(Features::estimate(&points).ok());
                    points
                });
                black_box(tracer.time(Layer::Cumulants, burst_id, NO_PARENT, || {
                    Cumulants::estimate(&points).ok()
                }));

                r.decoded += event.payload.is_some() as u64;
                r.attacks += event.verdict.is_some_and(|v| v.is_attack) as u64;
                r.classify_errors += event.verdict.is_none() as u64;
                r.points += points.len() as u64;
                r.emit_bytes += line.len() as u64;
                sink.handle_line(line.as_bytes(), Instant::now());
            }
        }
    }
    r.pool_misses = factory.pool().misses();
    r.tally = sink.tally(1.0);
    r.tracer = tracer;
    Ok(r)
}

/// Busy-waits for `d` (a sleep would let the core idle and blur the
/// slowdown the self-test injects).
fn spin(d: Duration) {
    if d.is_zero() {
        return;
    }
    let until = Instant::now() + d;
    while Instant::now() < until {
        std::hint::spin_loop();
    }
}

/// A frame line shaped like the server's: the same fields, in the same
/// order, with the feature vector on pipeline runs.
fn frame_line(stream: Option<&str>, seq: u64, event: &StreamEvent) -> String {
    let latency = JsonObject::new()
        .uint("queue_us", 0)
        .uint("decode_us", 0)
        .uint("classify_us", 0)
        .uint("total_us", 0)
        .finish();
    let line = JsonObject::new()
        .string("type", "frame")
        .string_if("stream", stream)
        .uint("seq", seq)
        .uint("burst_start", event.burst.start as u64)
        .uint("burst_end", event.burst.end as u64)
        .bool("truncated", event.truncated)
        .opt("payload_hex", event.payload.as_deref(), |o, k, p| {
            o.string(k, &hex(p))
        })
        .opt(
            "de2",
            event.verdict.map(|v| v.de_squared),
            JsonObject::float,
        )
        .opt("verdict", event.verdict, |o, k, v| {
            o.string(k, if v.is_attack { "attack" } else { "authentic" })
        });
    let line = match &event.scores {
        Some(scores) => {
            let mut features = JsonObject::new();
            for (name, value) in scores.features.entries() {
                features = features.float(name, *value);
            }
            line.float("score", scores.fused)
                .raw("features", &features.finish())
        }
        None => line,
    };
    line.bool("accepted_forgery", event.accepted_forgery())
        .raw("latency", &latency)
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Workload, Q};

    /// Per-burst time of each server-path layer, in µs.
    fn rows(r: &Replay) -> Vec<(&'static str, f64)> {
        let ns = r.tracer.self_ns();
        let per_burst = |layers: &[Layer]| {
            layers.iter().map(|l| ns[*l as usize]).sum::<u64>() as f64 / r.bursts as f64 / 1e3
        };
        vec![
            ("io", per_burst(&[Layer::Io])),
            ("split", per_burst(&[Layer::Split])),
            ("queue", per_burst(&[Layer::QueuePush, Layer::QueuePop])),
            ("decode", per_burst(&[Layer::Decode])),
            ("classify", per_burst(&[Layer::Classify])),
            ("emit", per_burst(&[Layer::Emit])),
            ("features", per_burst(&[Layer::Features])),
            ("cumulants", per_burst(&[Layer::Cumulants])),
        ]
    }

    #[test]
    fn a_slower_decode_shows_in_the_decode_row_only() {
        let input = Input::new(Workload::ScanDense.spec(), 5);
        let plans = input.plans(300_000, 0);
        let delay = Duration::from_micros(300);
        // Best of three per side, so a busy host cannot fake a move.
        let best = |opts: ReplayOptions| {
            let runs: Vec<Vec<(&str, f64)>> = (0..3)
                .map(|_| rows(&replay(&input, &plans, Q, opts).unwrap()))
                .collect();
            (0..runs[0].len())
                .map(|i| {
                    let min = runs.iter().map(|r| r[i].1).fold(f64::INFINITY, f64::min);
                    (runs[0][i].0, min)
                })
                .collect::<Vec<_>>()
        };
        let base = best(ReplayOptions::default());
        let slow = best(ReplayOptions {
            decode_delay: delay,
        });
        for ((name, before), (_, after)) in base.iter().zip(&slow) {
            let moved = after - before;
            if *name == "decode" {
                assert!(moved >= 290.0, "decode moved only {moved:.1} µs");
            } else {
                assert!(
                    moved.abs() < 0.15 * 300.0_f64.max(*before),
                    "{name} moved {moved:.1} µs ({before:.1} -> {after:.1})"
                );
            }
        }
    }

    #[test]
    fn self_time_excludes_child_spans() {
        let mut t = Tracer::new();
        let parent = t.open(Layer::Burst, 1, NO_PARENT);
        t.time(Layer::Decode, 1, parent, || spin(Duration::from_millis(2)));
        t.close(parent);
        let ns = t.self_ns();
        assert!(ns[Layer::Decode as usize] >= 2_000_000);
        assert!(ns[Layer::Burst as usize] < 1_000_000);
    }

    #[test]
    fn the_replay_gets_every_verdict_right() {
        let input = Input::new(Workload::LiveEnsemble.spec(), 2);
        let plans = input.plans(60_000, 0);
        let r = replay(&input, &plans, Q, ReplayOptions::default()).unwrap();
        assert!(r.tally.correct(), "{:?}", r.tally);
        assert_eq!(r.tally.lost, 0);
        assert_eq!(r.tally.forgery_recall(), 1.0);
        assert_eq!(
            r.bursts,
            plans.iter().map(|p| p.events.len() as u64).sum::<u64>()
        );
    }
}
