//! Benchmark of the `ctc-gateway` detection pipeline.
//!
//! ```text
//! ctc-perfbench --workload <scan_sparse|scan_dense|live_ensemble>
//!               --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` times the workload end to end through
//! `GatewayServer::run_streams` and prints the end-to-end metrics;
//! `--trace 1` adds a traced single-thread replay of the same input and
//! prints the per-layer metrics instead. Either way every verdict is
//! checked against the generator's ground truth, and the last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. See `README.md` beside this package.

mod alloc;
mod e2e;
mod feed;
mod host;
mod stats;
mod trace;
mod verdicts;
mod workload;

use e2e::{Input, Rep};
use host::Host;
use stats::{quartiles, Histogram};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::{Layer, Replay, ReplayOptions};
use workload::{Workload, Q};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Fresh processes timed per run for `setup_s`: one-time initialisation
/// happens once per process, so each set-up gets its own.
const SETUP_PROBES: usize = 21;

/// Command-line arguments.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    setup_probe: bool,
    rustc: String,
    git_sha: String,
    source_digest: String,
    spans_dir: Option<PathBuf>,
}

impl Args {
    fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: Workload::ScanSparse,
            seed: 1,
            seconds: 10.0,
            trace: false,
            setup_probe: false,
            rustc: "unknown".into(),
            git_sha: "unknown".into(),
            source_digest: "unknown".into(),
            spans_dir: None,
        };
        let mut workload = None;
        while let Some(flag) = it.next() {
            if flag == "--setup-probe" {
                args.setup_probe = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |what: &str| format!("bad {flag} value {value:?}: {what}");
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or_else(|| {
                            bad("expected scan_sparse, scan_dense or live_ensemble")
                        })?)
                }
                "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad("expected seconds"))?;
                    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                        return Err(bad("expected 0 < seconds <= 120"));
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad("expected 0 or 1")),
                    }
                }
                "--rustc" => args.rustc = value,
                "--git-sha" => args.git_sha = value,
                "--source-digest" => args.source_digest = value,
                "--spans-dir" => args.spans_dir = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// One reported number, with its spread where it has one.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// `(q1, q3, n)`: quartiles and the sample count behind `value`.
    spread: Option<(f64, f64, usize)>,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name,
            unit,
            value,
            spread: None,
        }
    }

    fn spread(mut self, q1: f64, q3: f64, n: usize) -> Metric {
        self.spread = Some((q1, q3, n));
        self
    }

    /// The median of `values`, with its quartiles.
    fn median_of(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
        let (q1, median, q3) = quartiles(values);
        Metric::new(name, unit, median).spread(q1, q3, values.len())
    }
}

/// What a run reports.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// The metrics `BENCHMARK.json` names for this mode.
    metrics: Vec<Metric>,
    /// Further numbers printed for people but not part of the result.
    extra: Vec<Metric>,
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.setup_probe {
        setup_probe(args.workload)
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Times one gateway set-up in this (fresh) process and prints seconds.
fn setup_probe(workload: Workload) -> Result<(), String> {
    let spec = workload.spec();
    prefault_mapped_pages();
    std::hint::black_box(vec![0u8; 1 << 20]);
    let started = Instant::now();
    let server = spec.build_gateway(Q).map_err(|e| e.to_string())?;
    let seconds = started.elapsed().as_secs_f64();
    std::hint::black_box(server);
    println!("{seconds}");
    Ok(())
}

/// Reads one byte of every page of this binary's file mappings, so that
/// a set-up probe times the set-up work rather than the page faults of
/// a process that has just started.
fn prefault_mapped_pages() {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap_or_default();
    let exe = std::env::current_exe().ok();
    let exe = exe.as_deref().and_then(|p| p.to_str()).unwrap_or("\u{0}");
    for line in maps.lines().filter(|l| l.ends_with(exe)) {
        let mut f = line.split_whitespace();
        let (Some(range), Some(perms)) = (f.next(), f.next()) else {
            continue;
        };
        let Some((lo, hi)) = range.split_once('-') else {
            continue;
        };
        let (Ok(lo), Ok(hi)) = (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16))
        else {
            continue;
        };
        if !perms.starts_with('r') {
            continue;
        }
        for page in (lo..hi).step_by(4096) {
            // SAFETY: the page lies in a readable mapping of this process's
            // own executable, listed by the kernel just now; nothing unmaps it.
            std::hint::black_box(unsafe { std::ptr::read_volatile(page as *const u8) });
        }
    }
}

/// Runs [`SETUP_PROBES`] set-up probes, one process each, sequentially.
fn setup_seconds(workload: Workload) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark binary: {e}"))?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", workload.name()])
                .output()
                .map_err(|e| format!("running a set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr).trim()
                ));
            }
            String::from_utf8_lossy(&out.stdout)
                .trim()
                .parse::<f64>()
                .map_err(|e| format!("set-up probe printed no time: {e}"))
        })
        .collect()
}

fn run(args: &Args) -> Result<(), String> {
    let host = Host::probe(
        args.rustc.clone(),
        args.git_sha.clone(),
        args.source_digest.clone(),
    );
    let input = Input::new(args.workload.spec(), args.seed);
    let server = input.spec.build_gateway(Q).map_err(|e| e.to_string())?;
    let outcome = if args.trace {
        traced(args, &input, &server)?
    } else {
        timed(args, &input, &server, &setup_seconds(args.workload)?)?
    };
    print_outcome(args, &host, &outcome);
    Ok(())
}

/// The end-to-end run (`--trace 0`).
fn timed(
    args: &Args,
    input: &Input,
    server: &ctc_gateway::GatewayServer,
    setup: &[f64],
) -> Result<Outcome, String> {
    let m = e2e::measure(input, server, args.seconds).map_err(|e| e.to_string())?;
    let reps = &m.reps;
    let tally = &m.tally;
    let samples_ok = reps.iter().all(|r| r.samples_ok);
    let stalls: u64 = reps.iter().map(|r| r.stalls).sum();
    let msamples = reps.iter().map(|r| r.samples).sum::<u64>() as f64 / 1e6;
    let wall_s: f64 = reps.iter().map(|r| r.wall.as_secs_f64()).sum();
    let wall_ref_s: f64 = reps.iter().map(|r| r.wall.as_secs_f64() * r.scale).sum();
    let cpu_ms: f64 = reps.iter().map(|r| r.cpu_ms).sum();
    let cpu_ref_ms: f64 = reps.iter().map(|r| r.cpu_ms * r.scale).sum();
    let per_call = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let throughput = per_call(&|r| r.msps());
    let throughput_ref = per_call(&|r| r.msps() / r.scale);
    let cpu = per_call(&|r| r.cpu_ms / (r.samples as f64 / 1e6));
    let cpu_ref = per_call(&|r| r.cpu_ms * r.scale / (r.samples as f64 / 1e6));
    let reference = per_call(&|r| r.reference_ms);
    let pooled_with = |name, unit, value: f64, calls: &[f64]| {
        let (q1, _, q3) = quartiles(calls);
        Metric::new(name, unit, value).spread(q1, q3, calls.len())
    };
    let latency = |name, h: &Histogram, p: f64, lo: f64, hi: f64| {
        Metric::new(name, "ms", h.percentile_ms(p)).spread(
            h.percentile_ms(lo),
            h.percentile_ms(hi),
            h.count() as usize,
        )
    };
    let metrics = vec![
        pooled_with(
            "throughput_msps",
            "Msamples/s",
            msamples / wall_ref_s,
            &throughput_ref,
        ),
        pooled_with("cpu_ms_per_msample", "ms", cpu_ref_ms / msamples, &cpu_ref),
        Metric::new("peak_rss_mb", "MiB", host::peak_rss_mib()),
        Metric::median_of("setup_s", "s", setup),
        Metric::new("forgery_recall", "ratio", tally.forgery_recall()),
    ];
    let extra = vec![
        latency(
            "verdict_latency_p50_ms",
            &tally.latency_ref,
            50.0,
            25.0,
            75.0,
        ),
        latency(
            "verdict_latency_p99_ms",
            &tally.latency_ref,
            99.0,
            98.0,
            99.5,
        ),
        Metric::new("false_alarm_rate", "ratio", tally.false_alarm_rate()),
        Metric::new("frame_loss", "ratio", tally.frame_loss()),
        Metric::new("bursts_shed", "count", tally.dropped as f64),
        pooled_with(
            "throughput_msps.measured",
            "Msamples/s",
            msamples / wall_s,
            &throughput,
        ),
        pooled_with("cpu_ms_per_msample.measured", "ms", cpu_ms / msamples, &cpu),
        latency(
            "verdict_latency_p50_ms.measured",
            &tally.latency,
            50.0,
            25.0,
            75.0,
        ),
        latency(
            "verdict_latency_p99_ms.measured",
            &tally.latency,
            99.0,
            98.0,
            99.5,
        ),
        Metric::median_of("reference_loop_ms", "ms", &reference),
        Metric::new("calls", "count", reps.len() as f64),
        Metric::new("window_stalls", "count", stalls as f64),
    ];
    Ok(Outcome {
        correct: tally.correct() && samples_ok,
        attempted: tally.frames_sent,
        failed: tally.lost,
        metrics,
        extra,
    })
}

/// The traced run (`--trace 1`): a timed run of half the length, then
/// the single-thread replay of the same input.
fn traced(
    args: &Args,
    input: &Input,
    server: &ctc_gateway::GatewayServer,
) -> Result<Outcome, String> {
    let m = e2e::measure(input, server, args.seconds / 2.0).map_err(|e| e.to_string())?;
    let reps = &m.reps;
    let replay =
        trace::replay(input, &m.plans, Q, ReplayOptions::default()).map_err(|e| e.to_string())?;
    if let Some(dir) = &args.spans_dir {
        write_spans(dir, args, &replay)
            .map_err(|e| format!("writing spans to {}: {e}", dir.display()))?;
    }
    let samples_ok = reps.iter().all(|r| r.samples_ok);
    let n = reps.len() as f64;
    let walls: Vec<f64> = reps.iter().map(|r| r.wall.as_secs_f64() * 1e3).collect();
    let wall_ms = quartiles(&walls).1;
    let cpu_ms = reps.iter().map(|r| r.cpu_ms).sum::<f64>() / n;
    let allocs = reps.iter().map(|r| r.allocs).sum::<u64>() as f64 / n;
    let bursts: u64 = reps.iter().map(|r| r.bursts).sum();
    let dropped: u64 = reps.iter().map(|r| r.bursts_dropped).sum();
    let (lag, tally) = (&m.lag, &m.tally);

    let mut metrics = layer_metrics(&replay);
    let ns = replay.tracer.self_ns();
    let busy = |layers: &[Layer]| layers.iter().map(|l| ns[*l as usize]).sum::<u64>() as f64 / 1e6;
    let ingest_ms = busy(&[Layer::Io, Layer::Split, Layer::QueuePush]);
    let worker_ms = busy(&[Layer::QueuePop, Layer::Decode, Layer::Classify, Layer::Emit]);
    metrics.extend([
        Metric::new(
            "queue.shed_ratio",
            "ratio",
            dropped as f64 / bursts.max(1) as f64,
        ),
        Metric::new("server.ingest_busy_share", "ratio", ingest_ms / wall_ms),
        Metric::new("server.worker_busy_share", "ratio", worker_ms / wall_ms),
        Metric::new("server.overhead_ms", "ms", cpu_ms - ingest_ms - worker_ms),
        Metric::new(
            "server.allocs_per_burst",
            "count",
            allocs / (bursts as f64 / n).max(1.0),
        ),
        Metric::new("server.ingest_lag_p99_ms", "ms", lag.percentile_ms(99.0)),
    ]);
    print_profile_table(args.workload, &replay);
    let extra = vec![
        Metric::new("server.run_wall_ms", "ms", wall_ms),
        Metric::new("server.run_cpu_ms", "ms", cpu_ms),
        Metric::new("replay.bursts", "count", replay.bursts as f64),
        Metric::new(
            "replay.forgery_recall",
            "ratio",
            replay.tally.forgery_recall(),
        ),
    ];
    Ok(Outcome {
        correct: tally.correct() && replay.tally.correct() && samples_ok,
        attempted: tally.frames_sent,
        failed: tally.lost,
        metrics,
        extra,
    })
}

/// The per-layer rows the replay alone determines.
fn layer_metrics(r: &Replay) -> Vec<Metric> {
    let ns = r.tracer.self_ns();
    let at = |l: Layer| ns[l as usize] as f64;
    let bursts = r.bursts.max(1) as f64;
    let samples = r.samples.max(1) as f64;
    let us_per_burst = |l: Layer| at(l) / bursts / 1e3;
    vec![
        Metric::new("io.parse_ns_per_sample", "ns", at(Layer::Io) / samples),
        Metric::new("split.ns_per_sample", "ns", at(Layer::Split) / samples),
        Metric::new(
            "split.bursts_per_msample",
            "1/Msample",
            r.bursts as f64 / (samples / 1e6),
        ),
        Metric::new("split.pool_misses", "count", r.pool_misses as f64),
        Metric::new("decode.us_per_burst", "us", us_per_burst(Layer::Decode)),
        Metric::new(
            "decode.sync_us_per_burst",
            "us",
            us_per_burst(Layer::Decode) - us_per_burst(Layer::DecodeNoSync),
        ),
        Metric::new("decode.ok_ratio", "ratio", r.decoded as f64 / bursts),
        Metric::new("features.us_per_burst", "us", us_per_burst(Layer::Features)),
        Metric::new(
            "features.cumulants_us_per_burst",
            "us",
            us_per_burst(Layer::Cumulants),
        ),
        Metric::new(
            "features.points_per_burst",
            "count",
            r.points as f64 / bursts,
        ),
        Metric::new("classify.us_per_burst", "us", us_per_burst(Layer::Classify)),
        Metric::new("classify.attack_ratio", "ratio", r.attacks as f64 / bursts),
        Metric::new("classify.errors", "count", r.classify_errors as f64),
        Metric::new(
            "queue.ns_per_op",
            "ns",
            (at(Layer::QueuePush) + at(Layer::QueuePop)) / r.queue_ops.max(1) as f64,
        ),
        Metric::new("emit.ns_per_line", "ns", at(Layer::Emit) / bursts),
        Metric::new("emit.bytes_per_line", "B", r.emit_bytes as f64 / bursts),
    ]
}

/// The replay in the units of ROADMAP's "Per-layer profile" table.
fn print_profile_table(workload: Workload, r: &Replay) {
    let ns = r.tracer.self_ns();
    let ms = |l: Layer| ns[l as usize] as f64 / 1e6;
    let bursts = r.bursts.max(1) as f64;
    let per_frame = |l: Layer| ns[l as usize] as f64 / bursts / 1e3;
    let msps = |l: Layer| r.samples as f64 / (ns[l as usize].max(1) as f64 / 1e3);
    println!(
        "Per-layer profile, {}: {} samples containing {} bursts",
        workload.name(),
        r.samples,
        r.bursts
    );
    println!("| Layer | Time |");
    println!("|---|---|");
    println!(
        "| Splitter | {:.1} ms ({:.0} M/s) |",
        ms(Layer::Split),
        msps(Layer::Split)
    );
    println!(
        "| Decode | {:.1} ms ({:.0} µs/frame; {:.0} µs/frame without the sync search) |",
        ms(Layer::Decode),
        per_frame(Layer::Decode),
        per_frame(Layer::DecodeNoSync)
    );
    println!(
        "| Classify | {:.1} ms ({:.0} µs/frame) |",
        ms(Layer::Classify),
        per_frame(Layer::Classify)
    );
    println!(
        "| — `Features::estimate` | {:.0} µs/frame |",
        per_frame(Layer::Features)
    );
    println!(
        "| — cumulants alone | {:.1} µs/frame |",
        per_frame(Layer::Cumulants)
    );
    println!("| cf32 parse, chunked | {:.0} M/s |", msps(Layer::Io));
}

fn write_spans(dir: &std::path::Path, args: &Args, replay: &Replay) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!(
        "{}-seed{}.spans.jsonl",
        args.workload.name(),
        args.seed
    ));
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path)?);
    replay.tracer.write_jsonl(&mut out)?;
    out.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    eprintln!(
        "{} spans written to {}",
        replay.tracer.spans().len(),
        path.display()
    );
    Ok(())
}

fn print_outcome(args: &Args, host: &Host, o: &Outcome) {
    use ctc_gateway::json::JsonObject;
    println!(
        "{} seed {} ({}, {} on {} CPUs)",
        args.workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end to end" },
        host.flavour(),
        host.nproc
    );
    let mut detail = JsonObject::new();
    for m in o.metrics.iter().chain(&o.extra) {
        let mut d = JsonObject::new()
            .float("value", m.value)
            .string("unit", m.unit);
        match m.spread {
            Some((q1, q3, n)) => {
                println!(
                    "  {:<34} {:>14.6} {:<11} q1 {:.6}  q3 {:.6}  n {}",
                    m.name, m.value, m.unit, q1, q3, n
                );
                d = d.float("q1", q1).float("q3", q3).uint("n", n as u64);
            }
            None => println!("  {:<34} {:>14.6} {}", m.name, m.value, m.unit),
        }
        detail = detail.raw(m.name, &d.finish());
    }
    println!(
        "  correct {}  attempted {}  failed {}",
        o.correct, o.attempted, o.failed
    );
    println!(
        "{}",
        JsonObject::new()
            .string("workload", args.workload.name())
            .uint("seed", args.seed)
            .bool("trace", args.trace)
            .raw("host", &host.to_json())
            .raw("detail", &detail.finish())
            .finish()
    );
    let mut metrics = JsonObject::new();
    for m in &o.metrics {
        metrics = metrics.raw(
            m.name,
            &JsonObject::new()
                .float("value", m.value)
                .string("unit", m.unit)
                .finish(),
        );
    }
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", o.correct)
            .uint("attempted", o.attempted)
            .uint("failed", o.failed)
            .raw("metrics", &metrics.finish())
            .finish()
    );
}
