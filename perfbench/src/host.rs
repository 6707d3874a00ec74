//! What a result was measured on, and the process counters it reads.

use ctc_gateway::json::JsonObject;

/// Process user+system CPU time in milliseconds, from `/proc/self/stat`
/// (fields 14 and 15, in clock ticks of 1/100 s, Linux's fixed `USER_HZ`).
pub fn cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may hold spaces; fields are counted after its ')'.
    let after = stat.rsplit_once(')').map(|(_, rest)| rest).unwrap_or("");
    let fields: Vec<&str> = after.split_whitespace().collect();
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .unwrap_or(0)
    };
    // After ')' the state is field 3, so utime (14) is index 11.
    (tick(11) + tick(12)) as f64 * 10.0
}

/// Peak resident memory (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .unwrap_or(f64::NAN)
}

/// One pass of [`Reference`] at the reference host speed: a closed-loop
/// metric reads as it would on a host that runs the pass in 4 ms.
pub const REFERENCE_MS: f64 = 4.0;

/// A fixed amount of work this benchmark owns, timed before every call to
/// track the host's speed from moment to moment. It
/// mixes the two kinds of work the gateway does: complex
/// multiply-accumulate over a cache-resident block (decode, features) and
/// a pass that widens cf32 bytes to f64 and runs a gated power floor over
/// them (parse, split). Its code never changes with the gateway's, so a
/// gateway time divided by the reference time moves only when the gateway
/// does. Its buffers are small, so it does not show in `peak_rss_mb`.
pub struct Reference {
    block: Vec<[f64; 2]>,
    bytes: Vec<u8>,
}

impl Reference {
    /// Allocates the loop's buffers.
    pub fn new() -> Reference {
        Reference {
            block: (0..2048)
                .map(|i| [(i as f64).sin(), (i as f64).cos()])
                .collect(),
            bytes: (0..(256usize << 10)).map(|i| (i * 7 % 251) as u8).collect(),
        }
    }

    fn pass(&self) -> f64 {
        let mut acc = [[0.0f64; 2]; 8];
        for _ in 0..160 {
            for chunk in std::hint::black_box(&self.block).chunks_exact(8) {
                for (a, x) in acc.iter_mut().zip(chunk) {
                    a[0] = x[0].mul_add(x[0], a[0]) - x[1] * x[1];
                    a[1] = (2.0 * x[0]).mul_add(x[1], a[1]);
                }
            }
        }
        let (mut floor, mut runs) = (1.0f64, 0u32);
        for _ in 0..12 {
            for b in std::hint::black_box(&self.bytes).chunks_exact(8) {
                let re = f32::from_le_bytes([b[0], b[1], b[2], b[3]]) as f64;
                let im = f32::from_le_bytes([b[4], b[5], b[6], b[7]]) as f64;
                let p = (re * re + im * im).min(1e6);
                if p > 4.0 * floor {
                    runs += 1;
                } else {
                    floor += (p - floor) / 64.0;
                }
            }
        }
        acc.iter().map(|a| a[0] + a[1]).sum::<f64>() + floor + runs as f64
    }

    /// Milliseconds one pass takes now: the median of three passes on
    /// each of two threads run side by side (the gateway keeps two CPUs
    /// busy), averaged over the threads.
    pub fn time_ms(&self) -> f64 {
        let one = || {
            let mut t = [0.0; 3];
            for slot in &mut t {
                let started = std::time::Instant::now();
                std::hint::black_box(self.pass());
                *slot = started.elapsed().as_secs_f64() * 1e3;
            }
            t.sort_by(f64::total_cmp);
            t[1]
        };
        std::thread::scope(|s| {
            let other = s.spawn(one);
            let here = one();
            (here + other.join().expect("reference thread panicked")) / 2.0
        })
    }
}

/// The host and build a result came from. Results of different
/// [`flavour`](Host::flavour)s are never compared with each other.
#[derive(Debug, Clone)]
pub struct Host {
    /// Logical CPUs available to the process.
    pub nproc: usize,
    /// CPU model from `/proc/cpuinfo`.
    pub cpu_model: String,
    /// Whether the `simd` feature was compiled in.
    pub simd_feature: bool,
    /// Whether the CPU has AVX2 and FMA (the SIMD kernels' dispatch test).
    pub avx2_fma: bool,
    /// `rustc --version` of the compiler on the path.
    pub rustc: String,
    /// Git commit of the source tree (`unknown` outside a git checkout).
    pub git_sha: String,
    /// Digest of the repository's sources, for checkouts without git.
    pub source_digest: String,
}

impl Host {
    /// Probes the running host; `rustc`, `git_sha` and `source_digest`
    /// come from the launcher.
    pub fn probe(rustc: String, git_sha: String, source_digest: String) -> Host {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        Host {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu_model,
            simd_feature: cfg!(feature = "simd"),
            avx2_fma: avx2_fma(),
            rustc,
            git_sha,
            source_digest,
        }
    }

    /// The SIMD path the kernels actually dispatch to.
    pub fn flavour(&self) -> &'static str {
        match (self.simd_feature, self.avx2_fma) {
            (true, true) => "simd-avx2-fma",
            (true, false) => "simd-feature-scalar-cpu",
            (false, _) => "scalar",
        }
    }

    /// The host as a JSON object.
    pub fn to_json(&self) -> String {
        JsonObject::new()
            .uint("nproc", self.nproc as u64)
            .string("cpu_model", &self.cpu_model)
            .bool("simd_feature", self.simd_feature)
            .bool("avx2_fma", self.avx2_fma)
            .string("flavour", self.flavour())
            .string("rustc", &self.rustc)
            .string("git_sha", &self.git_sha)
            .string("source_digest", &self.source_digest)
            .finish()
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_fma() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn avx2_fma() -> bool {
    false
}
