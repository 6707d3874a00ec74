//! The benchmark's input side: a `Read` that streams one [`Plan`] from the
//! rendered template slices, free-running, windowed or paced, and records
//! when each burst was handed over and how late the gateway pulled input.

use crate::stats::Histogram;
use crate::workload::{Pacing, Plan, Templates};
use std::io::{self, Read};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a windowed reader waits for the gateway to report progress
/// before it releases input anyway (counted as a stall), so a lost burst
/// can never deadlock a run.
const WINDOW_STALL: Duration = Duration::from_secs(2);

/// How much input a blocked windowed reader waits to be allowed before
/// it resumes: one gateway chunk.
const WINDOW_BATCH_SAMPLES: u64 = ctc_dsp::io::DEFAULT_CHUNK_SAMPLES as u64;

/// The smallest batch a paced reader sleeps for, so that a gateway polling
/// faster than the sample clock does not turn every read into a syscall.
const PACED_BATCH_SAMPLES: u64 = 4_000;

/// The last `burst_end` the gateway has reported, shared between the
/// verdict writer (which advances it) and a windowed reader (which waits
/// on it).
#[derive(Debug)]
pub struct Frontier {
    state: Mutex<FrontierState>,
    moved: Condvar,
}

#[derive(Debug, Clone, Copy)]
struct FrontierState {
    end: u64,
    /// When `end` last advanced.
    at: Instant,
    /// The `end` a blocked reader waits for (0: nobody waits).
    wanted: u64,
    stalls: u64,
}

impl Frontier {
    /// A frontier at sample 0.
    pub fn new() -> Self {
        Frontier {
            state: Mutex::new(FrontierState {
                end: 0,
                at: Instant::now(),
                wanted: 0,
                stalls: 0,
            }),
            moved: Condvar::new(),
        }
    }

    /// Records a reported burst end.
    pub fn advance(&self, end: u64) {
        let mut s = self.state.lock().expect("frontier poisoned");
        if end > s.end {
            s.end = end;
            s.at = Instant::now();
            if s.wanted != 0 && end >= s.wanted {
                s.wanted = 0;
                self.moved.notify_all();
            }
        }
    }

    /// Blocks until the window allows input beyond sample `pos`; returns
    /// how many samples may be released and when the window opened. A
    /// blocked reader resumes only once `batch` more samples are allowed,
    /// so it wakes once per batch rather than once per reported burst.
    fn wait_beyond(&self, pos: u64, ahead: u64, batch: u64) -> (u64, Instant) {
        let mut s = self.state.lock().expect("frontier poisoned");
        if s.end + ahead > pos {
            return (s.end + ahead - pos, s.at);
        }
        let started = Instant::now();
        let resume = (pos + batch).saturating_sub(ahead);
        loop {
            if s.end >= resume {
                return (s.end + ahead - pos, s.at);
            }
            if started.elapsed() >= WINDOW_STALL {
                s.stalls += 1;
                return (batch, Instant::now());
            }
            s.wanted = resume;
            s = self
                .moved
                .wait_timeout(s, Duration::from_millis(50))
                .expect("frontier poisoned")
                .0;
        }
    }

    /// Times a reader gave up waiting for progress.
    pub fn stalls(&self) -> u64 {
        self.state.lock().expect("frontier poisoned").stalls
    }
}

impl Default for Frontier {
    fn default() -> Self {
        Frontier::new()
    }
}

/// Nanoseconds from `origin` to `at` (0 if `at` is earlier).
pub fn nanos_since(origin: Instant, at: Instant) -> u64 {
    at.saturating_duration_since(origin).as_nanos() as u64
}

/// Streams one plan as cf32 bytes.
pub struct Feed<'a> {
    plan: &'a Plan,
    templates: &'a Templates,
    /// Next piece: `2i` is event `i`'s gap, `2i + 1` its burst, `2n` the
    /// quiet tail.
    piece: usize,
    rest: &'a [u8],
    sent_bytes: u64,
    pacing: Pacing,
    frontier: Option<&'a Frontier>,
    origin: Instant,
    /// Per event: when its last byte was handed over (ns after `origin`).
    released: Option<&'a [AtomicU64]>,
    last_return: Instant,
    lag: Option<Histogram>,
    lag_out: Option<&'a Mutex<Histogram>>,
}

impl<'a> Feed<'a> {
    /// A free-running reader over `plan` (what the traced replay uses).
    pub fn new(plan: &'a Plan, templates: &'a Templates, origin: Instant) -> Self {
        Feed {
            plan,
            templates,
            piece: 0,
            rest: &[],
            sent_bytes: 0,
            pacing: Pacing::Free,
            frontier: None,
            origin,
            released: None,
            last_return: origin,
            lag: None,
            lag_out: None,
        }
    }

    /// Serves input as `pacing` says; a windowed reader waits on
    /// `frontier`.
    pub fn with_pacing(mut self, pacing: Pacing, frontier: Option<&'a Frontier>) -> Self {
        assert!(
            !matches!(pacing, Pacing::Window { .. }) || frontier.is_some(),
            "a windowed reader needs a frontier"
        );
        self.pacing = pacing;
        self.frontier = frontier;
        self
    }

    /// Records per event when its last byte was handed over.
    pub fn with_release_log(mut self, released: &'a [AtomicU64]) -> Self {
        self.released = Some(released);
        self
    }

    /// Records, per read call, how long input that was already due
    /// waited for the gateway to pull it; the log lands in `out` when the
    /// reader is dropped.
    pub fn with_lag_log(mut self, out: &'a Mutex<Histogram>) -> Self {
        self.lag = Some(Histogram::default());
        self.lag_out = Some(out);
        self
    }

    /// Moves to the next non-empty piece; false at end of stream.
    fn next_piece(&mut self) -> bool {
        let events = &self.plan.events;
        while self.rest.is_empty() {
            let p = self.piece;
            if p > 2 * events.len() {
                return false;
            }
            self.rest = if p == 2 * events.len() {
                self.templates.gap(0, self.plan.tail())
            } else {
                let e = &events[p / 2];
                if p.is_multiple_of(2) {
                    self.templates.gap(e.gap_offset, e.gap_len)
                } else {
                    self.templates.burst(e.kind, e.variant)
                }
            };
            self.piece += 1;
        }
        true
    }

    /// Bytes that may be released now, waiting as the pacing demands, and
    /// the instant the first of them became available.
    fn admit(&mut self, now: Instant) -> (u64, Instant) {
        let pos = self.sent_bytes / 8;
        match self.pacing {
            Pacing::Free => (u64::MAX, self.last_return),
            Pacing::Window { ahead } => {
                let frontier = self.frontier.expect("checked in with_pacing");
                let (samples, opened) = frontier.wait_beyond(pos, ahead, WINDOW_BATCH_SAMPLES);
                (samples * 8, opened.max(self.last_return))
            }
            Pacing::Paced { rate } => {
                let origin = self.origin;
                let due_at = |sample: u64| origin + Duration::from_secs_f64(sample as f64 / rate);
                let due_by =
                    |t: Instant| (t.saturating_duration_since(origin).as_secs_f64() * rate) as u64;
                let mut due = due_by(now);
                while due <= pos {
                    std::thread::sleep(
                        due_at(pos + PACED_BATCH_SAMPLES).saturating_duration_since(Instant::now()),
                    );
                    due = due_by(Instant::now());
                }
                (due.saturating_sub(pos) * 8, due_at(pos + 1))
            }
        }
    }
}

impl Read for Feed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() || !self.next_piece() {
            return Ok(0);
        }
        let called = Instant::now();
        let (allowed, available) = self.admit(called);
        if let Some(lag) = &mut self.lag {
            lag.record(nanos_since(available, called) as f64);
        }
        let n = buf.len().min(self.rest.len()).min(allowed as usize);
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        self.sent_bytes += n as u64;
        let now = Instant::now();
        // A burst piece just ran out: its last sample is now in the
        // gateway's hands.
        if self.rest.is_empty()
            && self.piece.is_multiple_of(2)
            && self.piece <= 2 * self.plan.events.len()
        {
            if let Some(released) = self.released {
                released[self.piece / 2 - 1].store(nanos_since(self.origin, now), Relaxed);
            }
        }
        self.last_return = now;
        Ok(n)
    }
}

impl Drop for Feed<'_> {
    fn drop(&mut self) {
        if let (Some(out), Some(lag)) = (self.lag_out, &self.lag) {
            if let Ok(mut out) = out.lock() {
                out.merge(lag);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    #[test]
    fn feed_streams_exactly_the_plan() {
        let spec = Workload::ScanDense.spec();
        let t = Templates::render(&spec, 3);
        let plan = Plan::build(&spec, &t, 3, 0, 40_000);
        let released: Vec<AtomicU64> = plan.events.iter().map(|_| AtomicU64::new(0)).collect();
        let mut feed = Feed::new(&plan, &t, Instant::now()).with_release_log(&released);
        let mut bytes = Vec::new();
        feed.read_to_end(&mut bytes).unwrap();
        assert_eq!(bytes.len() as u64, plan.samples * 8);
        let e = plan.events[1];
        assert_eq!(
            &bytes[e.start as usize * 8..e.end as usize * 8],
            t.burst(e.kind, e.variant)
        );
        assert!(released.iter().all(|r| r.load(Relaxed) > 0));
    }
}
