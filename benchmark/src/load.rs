//! The sender: one thread that generates the stream and writes it to the
//! ingest connections, closed loop (as fast as the server takes it) or open
//! loop (on a fixed schedule, each chunk timed from when it was due).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::clock::now_ns;
use crate::gen::Generator;
use crate::wire::Ingest;

/// One stretch of the stream: `events` at `rate` per second, or as fast as
/// the server accepts them when `rate` is `None`.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    pub rate: Option<u64>,
    pub events: u64,
}

/// What the sender did, chunk by chunk.
#[derive(Debug, Default)]
pub struct SendLog {
    /// Events per chunk (every step is a whole number of chunks).
    pub chunk: u64,
    /// When each chunk was due; equals `sent_ns` in a closed loop.
    pub due_ns: Vec<u64>,
    /// When the write of each chunk began.
    pub sent_ns: Vec<u64>,
    /// The steps ran on a schedule, not as fast as the server took them.
    pub open_loop: bool,
    /// Index of the first chunk of each step.
    pub step_starts: Vec<usize>,
    /// Time spent generating, plus — in an open loop, where a write that
    /// blocks makes the sender late — writing. A closed loop's writes block
    /// by design and are not counted.
    pub busy_ns: u64,
    pub first_byte_ns: u64,
    pub last_byte_ns: u64,
    pub bytes: u64,
    pub events: u64,
}

impl SendLog {
    /// When the event at stream index `index` was due to be sent.
    pub fn due_of(&self, index: u64) -> u64 {
        let chunk = ((index / self.chunk) as usize).min(self.due_ns.len().saturating_sub(1));
        self.due_ns[chunk]
    }

    /// How late each chunk's write began, in ms.
    pub fn late_ms(&self) -> Vec<f64> {
        self.due_ns
            .iter()
            .zip(&self.sent_ns)
            .map(|(due, sent)| sent.saturating_sub(*due) as f64 / 1e6)
            .collect()
    }

    pub fn busy_share(&self) -> f64 {
        self.busy_ns as f64 / (self.last_byte_ns - self.first_byte_ns).max(1) as f64
    }
}

/// Send `steps` over `conn`. `progress` counts events handed to the socket,
/// for a poller to read.
pub fn send(
    gen: &mut Generator,
    conn: &mut Ingest,
    steps: &[Step],
    chunk: usize,
    progress: &AtomicU64,
) -> Result<SendLog, String> {
    let mut log = SendLog {
        chunk: chunk as u64,
        open_loop: steps.iter().any(|s| s.rate.is_some()),
        ..SendLog::default()
    };
    let mut buf: Vec<u8> = Vec::with_capacity(chunk * 256);
    let mut step_start_ns = now_ns();
    log.first_byte_ns = step_start_ns;
    for step in steps {
        assert!(step.events % chunk as u64 == 0, "steps are whole chunks");
        log.step_starts.push(log.due_ns.len());
        let chunks = step.events / chunk as u64;
        let period_ns = step.rate.map(|r| chunk as u64 * 1_000_000_000 / r);
        for k in 0..chunks {
            let began = now_ns();
            buf.clear();
            gen.fill(chunk, &mut buf);
            let mut busy = now_ns() - began;
            let due = period_ns.map(|period| step_start_ns + k * period);
            if let Some(due) = due {
                let now = now_ns();
                if due > now {
                    std::thread::sleep(Duration::from_nanos(due - now));
                }
            }
            let sent = now_ns();
            conn.write(&buf)?;
            if period_ns.is_some() {
                busy += now_ns() - sent;
            }
            log.due_ns.push(due.unwrap_or(sent));
            log.sent_ns.push(sent);
            log.busy_ns += busy;
            log.bytes += buf.len() as u64;
            log.events += chunk as u64;
            progress.store(log.events, Ordering::Relaxed);
        }
        if let Some(period) = period_ns {
            step_start_ns += chunks * period;
        } else {
            step_start_ns = now_ns();
        }
    }
    log.last_byte_ns = now_ns();
    Ok(log)
}
