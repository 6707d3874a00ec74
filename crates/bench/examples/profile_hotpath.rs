//! Scratch profiler for the gateway hot path (dev tool, not a bench).
use ctc_channel::noise::complex_gaussian;
use ctc_core::attack::Emulator;
use ctc_core::attack::EnergyDetector;
use ctc_core::defense::features::{constellation_from_reception, Features};
use ctc_core::defense::stream::BurstSplitter;
use ctc_core::defense::{ChannelAssumption, Detector};
use ctc_dsp::Complex;
use ctc_zigbee::{Receiver, Transmitter};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn main() {
    let mut rng = StdRng::seed_from_u64(29);
    let sigma2 = 1e-3;
    let authentic = Transmitter::new().transmit_payload(b"00000").unwrap();
    let emulator = Emulator::new();
    let forged = emulator.received_at_zigbee(&emulator.emulate(&authentic));
    println!(
        "frame len: authentic {} forged {}",
        authentic.len(),
        forged.len()
    );
    let total = 1 << 20;
    let mut stream: Vec<Complex> = Vec::with_capacity(total);
    let mut forge = false;
    while stream.len() < total {
        stream.extend((0..20_000).map(|_| complex_gaussian(&mut rng, sigma2)));
        stream.extend_from_slice(if forge { &forged } else { &authentic });
        forge = !forge;
    }
    stream.truncate(total);

    // Ingest: burst splitting over the whole stream.
    let t0 = Instant::now();
    let mut splitter = BurstSplitter::new(EnergyDetector::default());
    let mut captures = Vec::new();
    for chunk in stream.chunks(16384) {
        splitter.push_into(chunk, &mut captures);
    }
    splitter.finish_into(&mut captures);
    let t_split = t0.elapsed();
    println!(
        "splitter: {:?} for {} samples -> {} captures ({:.1} M/s)",
        t_split,
        total,
        captures.len(),
        total as f64 / t_split.as_secs_f64() / 1e6
    );

    // Decode each capture.
    let rx = Receiver::usrp().with_sync_search(96);
    let t0 = Instant::now();
    let receptions: Vec<_> = captures.iter().map(|c| rx.receive(&c.samples)).collect();
    let t_decode = t0.elapsed();
    println!(
        "decode: {:?} total, {:?}/frame",
        t_decode,
        t_decode / captures.len() as u32
    );

    // Sync alone: receive on a no-correction receiver to bound sync cost.
    let rx_nosync = Receiver::usrp().with_sync_search(0);
    let t0 = Instant::now();
    let _r2: Vec<_> = captures
        .iter()
        .map(|c| rx_nosync.receive(&c.samples))
        .collect();
    let t_nosearch = t0.elapsed();
    println!("decode w/o timing search: {:?} total", t_nosearch);

    // Classify, as the gateway does by default: the Ideal detector at the
    // calibrated threshold, which reads the cumulants alone.
    let detector =
        Detector::new(ChannelAssumption::Ideal).with_threshold(Detector::CALIBRATED_THRESHOLD);
    let t0 = Instant::now();
    let mut attacks = 0usize;
    for r in &receptions {
        attacks += detector.detect(r).is_ok_and(|v| v.is_attack) as usize;
    }
    let t_classify = t0.elapsed();
    println!(
        "classify: {:?} total, {:?}/frame ({attacks} attacks)",
        t_classify,
        t_classify / receptions.len() as u32
    );

    // Full features with the |C40| line search (the Real detector and the
    // feature ensemble).
    let t0 = Instant::now();
    let mut acc = 0.0;
    for r in &receptions {
        let pts = constellation_from_reception(r);
        let f = Features::estimate(&pts).unwrap();
        acc += f.c40_magnitude;
    }
    let t_features = t0.elapsed();
    println!(
        "full features: {:?} total, {:?}/frame (acc {acc:.3})",
        t_features,
        t_features / receptions.len() as u32
    );
    let pts = constellation_from_reception(&receptions[0]);
    println!("constellation points/frame: {}", pts.len());

    // Line-search cost alone vs cumulants.
    let t0 = Instant::now();
    for _ in 0..100 {
        let c = ctc_dsp::cumulants::Cumulants::estimate(&pts).unwrap();
        std::hint::black_box(c);
    }
    println!("cumulants alone: {:?}/frame", t0.elapsed() / 100);

    let t0 = Instant::now();
    for _ in 0..100 {
        let f = Features::estimate(&pts).unwrap();
        std::hint::black_box(f);
    }
    println!("features alone: {:?}/frame", t0.elapsed() / 100);

    // cf32 parse cost (the gateway bench feeds bytes, so this is on the
    // measured path).
    let mut bytes = Vec::with_capacity(total * 8);
    ctc_dsp::io::write_cf32(&mut bytes, &stream).unwrap();
    let t0 = Instant::now();
    let parsed = ctc_dsp::io::read_cf32(&bytes[..]).unwrap();
    let t_parse = t0.elapsed();
    println!(
        "cf32 parse: {:?} for {} samples ({:.1} M/s)",
        t_parse,
        parsed.len(),
        parsed.len() as f64 / t_parse.as_secs_f64() / 1e6
    );

    // Steady-state chunked parse with a reused buffer (the server path).
    let t0 = Instant::now();
    let mut reader = ctc_dsp::io::Cf32Reader::new(&bytes[..]);
    let mut chunk = Vec::new();
    let mut n = 0usize;
    while reader.read_chunk(&mut chunk).unwrap() > 0 {
        n += chunk.len();
    }
    let t_chunked = t0.elapsed();
    println!(
        "cf32 chunked parse: {:?} for {} samples ({:.1} M/s)",
        t_chunked,
        n,
        n as f64 / t_chunked.as_secs_f64() / 1e6
    );

    // Splitter on pure noise (no bursts): bounds the idle per-sample cost.
    let mut rng2 = StdRng::seed_from_u64(31);
    let noise: Vec<Complex> = (0..total)
        .map(|_| complex_gaussian(&mut rng2, 1e-3))
        .collect();
    let t0 = Instant::now();
    let mut splitter = BurstSplitter::new(EnergyDetector::default());
    let mut caps = Vec::new();
    for chunk in noise.chunks(16384) {
        splitter.push_into(chunk, &mut caps);
    }
    splitter.finish_into(&mut caps);
    let t_idle = t0.elapsed();
    println!(
        "splitter idle: {:?} ({:.1} M/s)",
        t_idle,
        total as f64 / t_idle.as_secs_f64() / 1e6
    );

    // Component breakdown: energy stream alone, history VecDeque alone.
    let t0 = Instant::now();
    let mut es = EnergyDetector::default().stream();
    let mut nbursts = 0usize;
    for chunk in noise.chunks(16384) {
        es.push_each(chunk, |_| nbursts += 1);
    }
    es.finish();
    println!(
        "energy stream alone: {:?} ({} bursts)",
        t0.elapsed(),
        nbursts
    );

    let t0 = Instant::now();
    let mut dq: std::collections::VecDeque<Complex> = std::collections::VecDeque::new();
    for chunk in noise.chunks(16384) {
        dq.extend(chunk.iter().copied());
        if dq.len() > 4096 {
            dq.drain(..dq.len() - 4096);
        }
    }
    println!("history deque alone: {:?} (len {})", t0.elapsed(), dq.len());

    let t0 = Instant::now();
    let mut scratch = Vec::new();
    for chunk in noise.chunks(16384) {
        ctc_dsp::simd::norm_sqr_into(chunk, &mut scratch);
        std::hint::black_box(scratch.last());
    }
    println!("norm_sqr_into alone: {:?}", t0.elapsed());

    // Scan kernel alone (no bookkeeping).
    let mut ring = vec![0.0; 16];
    let mut st = ctc_dsp::simd::GateScanState {
        slot: 0,
        acc: 0.0,
        floor: 1e-3,
        gate: 4e-3,
        threshold: 4.0,
        alpha: 1.0 / 64.0,
        floor_eps: 1e-12,
        inv_w: 1.0 / 16.0,
    };
    let mut active = vec![0u8; 16384];
    let t0 = Instant::now();
    for chunk in noise.chunks(16384) {
        ctc_dsp::simd::gated_power_scan(chunk, &mut ring, &mut st, &mut active[..chunk.len()]);
        std::hint::black_box(active.last());
    }
    println!(
        "gated_power_scan alone: {:?} (floor {:.3e})",
        t0.elapsed(),
        st.floor
    );
}
