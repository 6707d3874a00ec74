//! The benchmark's output side: a `Write` that receives the gateway's
//! JSONL, timestamps each `frame` line as it arrives, and reconciles every
//! line against the generator's ground truth.

use crate::feed::{nanos_since, Frontier};
use crate::stats::Histogram;
use crate::workload::{Kind, Plan, PAYLOAD};
use std::io::{self, Write};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

/// How far (in samples) a detected burst edge may sit from the generated
/// one: the energy detector's window plus hang, with room to spare.
const EDGE_TOLERANCE: u64 = 256;

/// What the gateway said about one generated burst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Outcome {
    /// No line named this burst.
    #[default]
    Missing,
    /// Shed by the queue's drop budget (`dropped` line).
    Dropped,
    /// A `frame` line.
    Frame {
        decoded: bool,
        payload_ok: bool,
        attack: bool,
        accepted_forgery: bool,
    },
}

/// When a burst's last sample was due.
#[derive(Debug, Clone, Copy)]
pub enum Due<'a> {
    /// Closed loop: when the reader handed the sample over.
    Released(&'a [AtomicU64]),
    /// Open loop: on the schedule, `end / rate` after the start.
    Schedule { rate: f64 },
}

/// One stream's ground truth and what the gateway reported for it.
struct Ledger<'a> {
    label: Option<String>,
    plan: &'a Plan,
    due: Due<'a>,
    outcome: Vec<Outcome>,
    verdict_ns: Vec<u64>,
    duplicates: u64,
}

impl Ledger<'_> {
    /// The event a detected burst `[start, end)` belongs to.
    fn find(&self, start: u64, end: u64) -> Option<usize> {
        let events = &self.plan.events;
        let idx = events
            .partition_point(|e| e.start <= start + EDGE_TOLERANCE)
            .checked_sub(1)?;
        let e = &events[idx];
        (end <= e.end + EDGE_TOLERANCE && end + EDGE_TOLERANCE >= e.end).then_some(idx)
    }

    fn due_ns(&self, idx: usize) -> u64 {
        match self.due {
            Due::Released(released) => released[idx].load(Relaxed),
            Due::Schedule { rate } => (self.plan.events[idx].end as f64 / rate * 1e9) as u64,
        }
    }
}

/// Counts from reconciling a run's JSONL against its ground truth.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Authentic plus forged bursts sent (whole frames only).
    pub frames_sent: u64,
    /// Forged frames sent.
    pub forged_sent: u64,
    /// Authentic frames sent.
    pub authentic_sent: u64,
    /// Forged frames reported with `accepted_forgery: true`.
    pub forged_flagged: u64,
    /// Forged frames that decoded and were not flagged.
    pub forged_passed: u64,
    /// Authentic frames reported with verdict `attack`.
    pub authentic_flagged: u64,
    /// Frames without a decoded `frame` line: shed, never split out, or
    /// failed to decode.
    pub lost: u64,
    /// Bursts of any kind shed by the drop budget.
    pub dropped: u64,
    /// Noise bursts that decoded as frames.
    pub noise_decoded: u64,
    /// Decoded frames whose payload is not the one sent.
    pub wrong_payload: u64,
    /// Bursts named by more than one line.
    pub duplicates: u64,
    /// Lines that match no generated burst.
    pub spurious: u64,
    /// Due-to-verdict latency of every `frame` line.
    pub latency: Histogram,
    /// The same latencies scaled to the reference host speed.
    pub latency_ref: Histogram,
}

impl Tally {
    /// Forged frames flagged ÷ forged frames sent.
    pub fn forgery_recall(&self) -> f64 {
        ratio(self.forged_flagged, self.forged_sent)
    }

    /// Authentic frames flagged as `attack` ÷ authentic frames sent.
    pub fn false_alarm_rate(&self) -> f64 {
        ratio(self.authentic_flagged, self.authentic_sent)
    }

    /// Frames without a decoded `frame` line ÷ frames sent.
    pub fn frame_loss(&self) -> f64 {
        ratio(self.lost, self.frames_sent)
    }

    /// True when every line the gateway wrote is right: each names one
    /// generated burst once, carries the sent payload, and gives the
    /// verdict the burst's kind demands. Lost frames are counted as
    /// failures, not as wrong output.
    pub fn correct(&self) -> bool {
        self.forged_passed == 0
            && self.authentic_flagged == 0
            && self.noise_decoded == 0
            && self.wrong_payload == 0
            && self.duplicates == 0
            && self.spurious == 0
    }

    /// Adds another run's counts to this one.
    pub fn merge(&mut self, other: Tally) {
        self.frames_sent += other.frames_sent;
        self.forged_sent += other.forged_sent;
        self.authentic_sent += other.authentic_sent;
        self.forged_flagged += other.forged_flagged;
        self.forged_passed += other.forged_passed;
        self.authentic_flagged += other.authentic_flagged;
        self.lost += other.lost;
        self.dropped += other.dropped;
        self.noise_decoded += other.noise_decoded;
        self.wrong_payload += other.wrong_payload;
        self.duplicates += other.duplicates;
        self.spurious += other.spurious;
        self.latency.merge(&other.latency);
        self.latency_ref.merge(&other.latency_ref);
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The gateway's event sink: timestamps and checks every line.
pub struct VerdictSink<'a> {
    origin: Instant,
    line: Vec<u8>,
    ledgers: Vec<Ledger<'a>>,
    frontier: Option<&'a Frontier>,
    spurious: u64,
    payload_hex: String,
}

impl<'a> VerdictSink<'a> {
    /// A sink whose timestamps count from `origin`; a windowed run passes
    /// the frontier its reader waits on.
    pub fn new(origin: Instant, frontier: Option<&'a Frontier>) -> Self {
        VerdictSink {
            origin,
            line: Vec::with_capacity(4096),
            ledgers: Vec::new(),
            frontier,
            spurious: 0,
            payload_hex: ctc_gateway::json::hex(PAYLOAD),
        }
    }

    /// Adds the ground truth of one stream (in session order).
    pub fn expect(&mut self, label: Option<String>, plan: &'a Plan, due: Due<'a>) {
        let n = plan.events.len();
        self.ledgers.push(Ledger {
            label,
            plan,
            due,
            outcome: vec![Outcome::Missing; n],
            verdict_ns: vec![0; n],
            duplicates: 0,
        });
    }

    /// Checks one complete line, received at `at`.
    pub fn handle_line(&mut self, line: &[u8], at: Instant) {
        let is_frame = line.starts_with(br#"{"type":"frame""#);
        if !is_frame && !line.starts_with(br#"{"type":"dropped""#) {
            return;
        }
        let ledger = match field_str(line, br#""stream":""#) {
            Some(label) => self
                .ledgers
                .iter()
                .position(|l| l.label.as_deref().map(str::as_bytes) == Some(label)),
            None => (self.ledgers.len() == 1 && self.ledgers[0].label.is_none()).then_some(0),
        };
        let bounds = field_u64(line, br#""burst_start":"#).zip(field_u64(line, br#""burst_end":"#));
        let (Some(li), Some((start, end))) = (ledger, bounds) else {
            self.spurious += 1;
            return;
        };
        if let Some(frontier) = self.frontier {
            frontier.advance(end);
        }
        let ledger = &mut self.ledgers[li];
        let Some(idx) = ledger.find(start, end) else {
            self.spurious += 1;
            return;
        };
        if ledger.outcome[idx] != Outcome::Missing {
            ledger.duplicates += 1;
            return;
        }
        ledger.outcome[idx] = if is_frame {
            let payload = field_str(line, br#""payload_hex":""#);
            ledger.verdict_ns[idx] = nanos_since(self.origin, at).max(1);
            Outcome::Frame {
                decoded: payload.is_some(),
                payload_ok: payload == Some(self.payload_hex.as_bytes()),
                attack: contains(line, br#""verdict":"attack""#),
                accepted_forgery: contains(line, br#""accepted_forgery":true"#),
            }
        } else {
            Outcome::Dropped
        };
    }

    /// Reconciles everything received against the ground truth;
    /// `scale` converts this run's durations to the reference host speed.
    pub fn tally(&self, scale: f64) -> Tally {
        let mut t = Tally {
            spurious: self.spurious,
            ..Tally::default()
        };
        for ledger in &self.ledgers {
            t.duplicates += ledger.duplicates;
            for (idx, (event, outcome)) in
                ledger.plan.events.iter().zip(&ledger.outcome).enumerate()
            {
                match event.kind {
                    Kind::Authentic => t.authentic_sent += 1,
                    Kind::Forged => t.forged_sent += 1,
                    Kind::Noise => {}
                }
                if event.kind.is_frame() {
                    t.frames_sent += 1;
                }
                match *outcome {
                    Outcome::Missing => t.lost += event.kind.is_frame() as u64,
                    Outcome::Dropped => {
                        t.dropped += 1;
                        t.lost += event.kind.is_frame() as u64;
                    }
                    Outcome::Frame {
                        decoded,
                        payload_ok,
                        attack,
                        accepted_forgery,
                    } => {
                        let due = ledger.due_ns(idx);
                        let ns = ledger.verdict_ns[idx].saturating_sub(due) as f64;
                        t.latency.record(ns);
                        t.latency_ref.record(ns * scale);
                        if decoded && !payload_ok {
                            t.wrong_payload += 1;
                        }
                        match event.kind {
                            Kind::Noise => t.noise_decoded += decoded as u64,
                            _ if !decoded => t.lost += 1,
                            Kind::Authentic => t.authentic_flagged += attack as u64,
                            Kind::Forged if accepted_forgery => t.forged_flagged += 1,
                            Kind::Forged => t.forged_passed += 1,
                        }
                    }
                }
            }
        }
        t
    }
}

impl Write for VerdictSink<'_> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut rest = buf;
        while let Some(nl) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..nl]);
            let line = std::mem::take(&mut self.line);
            self.handle_line(&line, Instant::now());
            self.line = line;
            self.line.clear();
            rest = &rest[nl + 1..];
        }
        self.line.extend_from_slice(rest);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn contains(hay: &[u8], needle: &[u8]) -> bool {
    find(hay, needle).is_some()
}

/// The unsigned integer after `key` (which includes the colon).
fn field_u64(line: &[u8], key: &[u8]) -> Option<u64> {
    let at = find(line, key)? + key.len();
    let digits = line[at..].iter().take_while(|b| b.is_ascii_digit()).count();
    std::str::from_utf8(&line[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

/// The string value after `key` (which includes the opening quote).
fn field_str<'l>(line: &'l [u8], key: &[u8]) -> Option<&'l [u8]> {
    let at = find(line, key)? + key.len();
    let len = line[at..].iter().position(|&b| b == b'"')?;
    Some(&line[at..at + len])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Templates, Workload};

    #[test]
    fn lines_are_matched_to_their_bursts() {
        let spec = Workload::ScanDense.spec();
        let t = Templates::render(&spec, 1);
        let plan = Plan::build(&spec, &t, 1, 0, 20_000);
        let origin = Instant::now();
        let released: Vec<AtomicU64> = plan.events.iter().map(|_| AtomicU64::new(0)).collect();
        let mut sink = VerdictSink::new(origin, None);
        sink.expect(None, &plan, Due::Released(&released));
        let hex = ctc_gateway::json::hex(PAYLOAD);
        for (i, e) in plan.events.iter().enumerate() {
            let verdict = if e.kind == Kind::Forged {
                "attack"
            } else {
                "authentic"
            };
            let line = format!(
                r#"{{"type":"frame","seq":{i},"burst_start":{},"burst_end":{},"truncated":false,"payload_hex":"{hex}","de2":0.1,"verdict":"{verdict}","accepted_forgery":{}}}"#,
                e.start + 3,
                e.end - 5,
                e.kind == Kind::Forged
            );
            if i != 1 {
                writeln!(sink, "{line}").unwrap();
            }
        }
        writeln!(
            sink,
            r#"{{"type":"frame","seq":99,"burst_start":5,"burst_end":9}}"#
        )
        .unwrap();
        let tally = sink.tally(1.0);
        assert_eq!(tally.frames_sent, plan.events.len() as u64);
        assert_eq!(tally.lost, 1, "event 1 never reported");
        assert_eq!(tally.spurious, 1, "a line inside a gap matches nothing");
        assert!(!tally.correct());
        assert_eq!(tally.false_alarm_rate(), 0.0);
        assert_eq!(
            tally.forged_flagged,
            tally.forged_sent - (plan.events[1].kind == Kind::Forged) as u64
        );
    }
}
