//! End-to-end tests for the multi-stream gateway server: session
//! labelling and per-session sequence order over the interleaved JSONL
//! stream, isolation of a stalled stream, session churn against the
//! shared buffer pool, and concurrent TCP fan-in.

use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::defense::{ChannelAssumption, Detector};
use ctc_dsp::io::write_cf32;
use ctc_dsp::Complex;
use ctc_gateway::{GatewayConfig, GatewayServer, Input, Listener, NamedStream, ServerConfig};
use ctc_zigbee::Transmitter;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeMap;
use std::io::Write;
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// noise | authentic frame | noise | forged frame | noise, as cf32 bytes.
fn synthetic_capture(seed: u64) -> (Vec<u8>, usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let mut stream: Vec<Complex> = Vec::new();
    let mut noise = |n: usize, stream: &mut Vec<Complex>| {
        stream.extend((0..n).map(|_| complex_gaussian(&mut rng, sigma2)));
    };
    noise(700, &mut stream);
    stream.extend_from_slice(&authentic);
    noise(700, &mut stream);
    stream.extend_from_slice(&forged);
    noise(700, &mut stream);
    let total = stream.len();
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();
    (bytes, total)
}

fn config() -> GatewayConfig {
    GatewayConfig::builder()
        .detector(Detector::new(ChannelAssumption::Ideal).with_threshold(0.25))
        .stats_interval(None)
        .build()
        .unwrap()
}

/// The shipped defaults must fail closed: every forged frame of a 30 dB
/// probe has DE² below the paper's Q = 0.5, so a default-config gateway
/// flags all of them only because it ships the calibrated threshold.
#[test]
fn default_config_flags_every_forgery() {
    let mut rng = StdRng::seed_from_u64(23);
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    let mut stream: Vec<Complex> = Vec::new();
    for _ in 0..5 {
        stream.extend((0..700).map(|_| complex_gaussian(&mut rng, 1e-3)));
        stream.extend(forged.iter().map(|&v| v + complex_gaussian(&mut rng, 1e-3)));
    }
    stream.extend((0..700).map(|_| complex_gaussian(&mut rng, 1e-3)));
    let mut bytes = Vec::new();
    write_cf32(&mut bytes, &stream).unwrap();

    let config = GatewayConfig::builder()
        .stats_interval(None)
        .build()
        .unwrap();
    assert_eq!(config.detector.threshold(), Detector::CALIBRATED_THRESHOLD);
    let report = GatewayServer::new(ServerConfig::from(config))
        .run_streams(
            vec![NamedStream::new("probe", &bytes[..])],
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.frames_decoded, 5);
    assert_eq!(report.metrics.forgeries, 5);
}

/// Extracts `"key":value` (raw JSON text) from a rendered line.
fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let pat = format!("\"{key}\":");
    let at = line.find(&pat).unwrap_or_else(|| panic!("{key} in {line}"));
    let rest = &line[at + pat.len()..];
    let end = if let Some(inner) = rest.strip_prefix('"') {
        inner.find('"').map(|i| i + 2).unwrap()
    } else {
        rest.find([',', '}']).unwrap()
    };
    &rest[..end]
}

/// Groups an interleaved event stream by `stream` label and checks each
/// session's discipline: `open` at seq 0, frames in contiguous ascending
/// order, `close` as the final seq. Returns events per label.
fn check_session_order(events: &str) -> BTreeMap<String, Vec<String>> {
    let mut by_stream: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for line in events.lines() {
        let label = field(line, "stream").trim_matches('"').to_string();
        by_stream.entry(label).or_default().push(line.to_string());
    }
    for (label, lines) in &by_stream {
        for (i, line) in lines.iter().enumerate() {
            assert_eq!(
                field(line, "seq"),
                i.to_string(),
                "stream {label} out of order at {line}"
            );
        }
        let first = &lines[0];
        assert_eq!(field(first, "type"), "\"session\"", "{first}");
        assert_eq!(field(first, "event"), "\"open\"", "{first}");
        let last = lines.last().unwrap();
        assert_eq!(field(last, "type"), "\"session\"", "{last}");
        assert_eq!(field(last, "event"), "\"close\"", "{last}");
    }
    by_stream
}

/// A `Write` events sink the test can inspect while the server still
/// holds it — how we observe one session finishing while another stalls.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl SharedBuf {
    fn contents(&self) -> String {
        String::from_utf8(self.0.lock().unwrap().clone()).unwrap()
    }
}

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[test]
fn labelled_streams_interleave_with_per_session_order() {
    let (bytes, total) = synthetic_capture(21);
    let server = GatewayServer::new(ServerConfig::from(config()));
    let mut events = Vec::new();
    let report = server
        .run_streams(
            vec![
                NamedStream::new("alpha", &bytes[..]),
                NamedStream::new("beta", &bytes[..]),
                NamedStream::new("gamma", &bytes[..]),
            ],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap();

    // Aggregate counters are the sum over sessions.
    assert_eq!(report.metrics.samples_in as usize, 3 * total);
    assert_eq!(report.metrics.bursts, 6);
    assert_eq!(report.metrics.frames_decoded, 6);
    assert_eq!(report.metrics.forgeries, 3);
    assert!(report.forgery_detected());
    assert_eq!(report.server.sessions_opened, 3);
    assert_eq!(report.server.sessions_closed, 3);
    assert_eq!(report.server.sessions_errored, 0);

    // Per-session summaries carry each stream's own tallies.
    assert_eq!(report.sessions.len(), 3);
    for label in ["alpha", "beta", "gamma"] {
        let s = report.session(label).unwrap();
        assert_eq!(s.metrics.samples_in as usize, total, "{label}");
        assert_eq!(s.metrics.bursts, 2, "{label}");
        assert_eq!(s.metrics.forgeries, 1, "{label}");
    }

    // Every event is stream-tagged and per-session seq-ordered.
    let events = String::from_utf8(events).unwrap();
    let by_stream = check_session_order(&events);
    assert_eq!(by_stream.len(), 3, "{events}");
    for label in ["alpha", "beta", "gamma"] {
        let lines = &by_stream[label];
        // open + 2 frames + close
        assert_eq!(lines.len(), 4, "{label}: {lines:?}");
        assert_eq!(field(&lines[1], "verdict"), "\"authentic\"");
        assert_eq!(field(&lines[2], "verdict"), "\"attack\"");
        let close = lines.last().unwrap();
        assert_eq!(field(close, "frames_decoded"), "2");
        assert_eq!(field(close, "forgeries"), "1");
    }
}

/// A stalled client must not delay another stream's events: session
/// isolation is the whole point of shards + per-session ordering.
#[test]
fn stalled_stream_does_not_block_another() {
    let (bytes, _) = synthetic_capture(22);
    let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let addr = listener
        .local_display()
        .strip_prefix("tcp://")
        .unwrap()
        .to_string();
    let server = GatewayServer::new(ServerConfig::from(config()));
    let shutdown = server.shutdown_handle();
    let events = SharedBuf::default();
    let events_for_server = events.clone();
    let handle = std::thread::spawn(move || {
        let mut sink = events_for_server;
        server.serve(listener, &mut sink, &mut std::io::sink())
    });

    // First connection stalls: connected, never writes, never closes.
    let stalled = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(150));
    // Second connection streams a full capture and hangs up.
    {
        let mut live = TcpStream::connect(&addr).unwrap();
        live.write_all(&bytes).unwrap();
    }

    // The live session's close event (with both frames decoded) must land
    // while the stalled client still holds its connection open.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let text = events.contents();
        let done = text
            .lines()
            .any(|l| l.contains("\"event\":\"close\"") && l.contains("\"frames_decoded\":2"));
        if done {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "live session did not finish behind a stalled peer:\n{text}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    let mid_run = events.contents();
    let closes = mid_run.matches("\"event\":\"close\"").count();
    assert_eq!(closes, 1, "stalled session must still be open:\n{mid_run}");

    // Shutdown unwedges the stalled session (EOF at its next poll).
    shutdown.shutdown();
    let report = handle.join().unwrap().unwrap();
    drop(stalled);
    assert_eq!(report.server.sessions_opened, 2);
    assert_eq!(report.server.sessions_closed, 2);
    assert_eq!(report.server.sessions_errored, 0);
    check_session_order(&events.contents());
}

/// Session churn must not leak pooled capture buffers: every buffer a
/// session checked out is back in the shared pool by end of run.
#[test]
fn session_churn_returns_every_pooled_buffer() {
    let (bytes, _) = synthetic_capture(23);
    let streams: Vec<NamedStream<'_>> = (0..8)
        .map(|i| NamedStream::new(format!("s{i}"), &bytes[..]))
        .collect();
    let server = GatewayServer::new(ServerConfig::from(config()));
    let report = server
        .run_streams(streams, &mut Vec::new(), &mut Vec::new())
        .unwrap();

    assert_eq!(report.metrics.bursts, 16);
    // One pool checkout per burst, and every buffer came back: the pool's
    // idle count equals the number of buffers ever allocated.
    assert_eq!(report.pool.hits + report.pool.misses, 16);
    assert_eq!(report.pool.idle as u64, report.pool.misses);
}

/// One server process sustains 32 concurrent TCP cf32 streams with
/// per-session ordering intact (release builds only: 32 decode pipelines
/// of debug-mode DSP would dominate CI time).
#[cfg(not(debug_assertions))]
#[test]
fn serves_32_concurrent_tcp_streams() {
    let (bytes, total) = synthetic_capture(24);
    let listener = Listener::bind(&Input::parse("tcp://127.0.0.1:0").unwrap()).unwrap();
    let addr = listener
        .local_display()
        .strip_prefix("tcp://")
        .unwrap()
        .to_string();
    let mut server_config = ServerConfig::from(config());
    server_config.max_streams = 64;
    server_config.stop_after = Some(32);
    let server = GatewayServer::new(server_config);
    let events = SharedBuf::default();
    let events_for_server = events.clone();
    let handle = std::thread::spawn(move || {
        let mut sink = events_for_server;
        server.serve(listener, &mut sink, &mut std::io::sink())
    });

    let clients: Vec<_> = (0..32)
        .map(|_| {
            let addr = addr.clone();
            let bytes = bytes.clone();
            std::thread::spawn(move || {
                let mut conn = TcpStream::connect(&addr).unwrap();
                conn.write_all(&bytes).unwrap();
            })
        })
        .collect();
    for c in clients {
        c.join().unwrap();
    }

    let report = handle.join().unwrap().unwrap();
    assert_eq!(report.server.sessions_opened, 32);
    assert_eq!(report.server.sessions_closed, 32);
    assert_eq!(report.metrics.samples_in as usize, 32 * total);
    assert_eq!(report.metrics.forgeries, 32);
    let by_stream = check_session_order(&events.contents());
    assert_eq!(by_stream.len(), 32);
}

/// A pipeline-equipped run emits the fused score plus the named feature
/// vector on every frame line, keeps the legacy verdicts (the standard
/// pipeline thresholds the same DE² statistic), and publishes
/// `ctc_detector_score{feature=...}` gauges — while the legacy
/// configuration's lines stay byte-identical (no `score`/`features`).
#[cfg(feature = "telemetry")]
#[test]
fn pipeline_run_carries_per_feature_scores() {
    use ctc_core::defense::DetectionPipeline;

    let (bytes, _) = synthetic_capture(26);
    let detector = Detector::new(ChannelAssumption::Ideal).with_threshold(0.25);

    let mut legacy_events = Vec::new();
    GatewayServer::new(ServerConfig::from(config()))
        .run_streams(
            vec![NamedStream::new("cap", &bytes[..])],
            &mut legacy_events,
            &mut Vec::new(),
        )
        .unwrap();
    let legacy = String::from_utf8(legacy_events).unwrap();
    assert!(!legacy.contains("\"score\""), "{legacy}");
    assert!(!legacy.contains("\"features\""), "{legacy}");

    let mut gw = config();
    gw.pipeline = Some(DetectionPipeline::standard(detector).shared());
    let registry = Arc::new(ctc_obs::Registry::new());
    let server = GatewayServer::new(ServerConfig::from(gw)).with_registry(Arc::clone(&registry));
    let mut events = Vec::new();
    let report = server
        .run_streams(
            vec![NamedStream::new("cap", &bytes[..])],
            &mut events,
            &mut Vec::new(),
        )
        .unwrap();
    assert_eq!(report.metrics.frames_decoded, 2);
    assert_eq!(report.metrics.forgeries, 1);

    let events = String::from_utf8(events).unwrap();
    let frames: Vec<&str> = events
        .lines()
        .filter(|l| l.contains("\"type\":\"frame\""))
        .collect();
    assert_eq!(frames.len(), 2, "{events}");
    // Verdicts match the legacy run line-for-line; scores ride alongside.
    for (frame, legacy_frame) in frames
        .iter()
        .zip(legacy.lines().filter(|l| l.contains("\"type\":\"frame\"")))
    {
        assert_eq!(field(frame, "verdict"), field(legacy_frame, "verdict"));
        assert_eq!(field(frame, "de2"), field(legacy_frame, "de2"));
        let score: f64 = field(frame, "score").parse().unwrap();
        assert!(score.is_finite(), "{frame}");
        for feature in ["de2_ideal", "clustered_evm", "cp_similarity", "rssi_db"] {
            assert!(
                frame.contains(&format!("\"{feature}\":")),
                "{feature} missing from {frame}"
            );
        }
    }
    assert_eq!(field(frames[0], "verdict"), "\"authentic\"");
    assert_eq!(field(frames[1], "verdict"), "\"attack\"");

    let text = registry.render();
    assert!(text.contains("# TYPE ctc_detector_score gauge"), "{text}");
    assert!(text.contains("ctc_detector_score{feature=\"de2_ideal\"}"));
    assert!(text.contains("ctc_detector_score{feature=\"fused\"}"));
}

/// Per-stream metrics land in the registry labelled `{stream="..."}`,
/// next to the unlabelled aggregates and the session lifecycle counters.
#[cfg(feature = "telemetry")]
#[test]
fn per_stream_metrics_are_scrapeable() {
    let (bytes, total) = synthetic_capture(25);
    let registry = Arc::new(ctc_obs::Registry::new());
    let server =
        GatewayServer::new(ServerConfig::from(config())).with_registry(Arc::clone(&registry));
    server
        .run_streams(
            vec![
                NamedStream::new("up", &bytes[..]),
                NamedStream::new("down", &bytes[..]),
            ],
            &mut Vec::new(),
            &mut Vec::new(),
        )
        .unwrap();

    let text = registry.render();
    assert!(
        text.contains(&format!("ctc_gateway_samples_total {}", 2 * total)),
        "{text}"
    );
    assert!(text.contains(&format!(
        "ctc_gateway_samples_total{{stream=\"up\"}} {total}"
    )));
    assert!(text.contains(&format!(
        "ctc_gateway_samples_total{{stream=\"down\"}} {total}"
    )));
    assert!(text.contains("ctc_gateway_bursts_total{stream=\"up\"} 2"));
    assert!(text.contains("ctc_sessions_opened_total 2"));
    assert!(text.contains("ctc_sessions_active 0"));
}
