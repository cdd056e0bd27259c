//! Machine-speed calibration.
//!
//! The sandbox this benchmark runs in changes speed by a factor of two to
//! three over minutes (a fixed CPU-bound job measured 0.7 s to 2.4 s within
//! one hour, with no steal time: neighbours on the host slow the core
//! itself). A timing taken at one moment cannot be compared with one taken
//! ten minutes later, so every timed section runs beside a calibrator: a
//! thread that, ten times a second, does a fixed piece of work — rendering
//! 2,000 events with the load generator — and notes how long it took. The
//! median of those notes, against the same work on the quiet
//! sandbox, is the run's speed; end-to-end timings are reported corrected to
//! reference speed, and the raw values ride along as per-layer metrics.
//!
//! The calibrator costs under 1% of one core. A sample is short (well under
//! a scheduler time slice) and a thread that wakes from sleep runs at once,
//! so even with the server saturating both cores few samples are preempted,
//! and the median ignores those.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::gen::Generator;
use crate::stats::median;

/// Events rendered per calibration sample.
const KERNEL_EVENTS: usize = 2000;
/// Nanoseconds the kernel takes on the quiet sandbox (the median of its
/// quiet phases): the unit that makes a quiet run's speed read 1.0.
const REFERENCE_KERNEL_NS: f64 = 540_000.0;
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// A running calibrator; [`finish`](Self::finish) stops it and yields the speed.
pub struct Calibrator {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<f64>>,
}

impl Calibrator {
    pub fn start() -> Calibrator {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut gen = Generator::new(0xCA11_B8A7E);
            let mut buf = Vec::with_capacity(KERNEL_EVENTS * 256);
            let mut samples = Vec::new();
            loop {
                // the thread wakes with cold caches: render once to warm
                // them, time the second rendering
                buf.clear();
                gen.fill(KERNEL_EVENTS, &mut buf);
                buf.clear();
                let began = Instant::now();
                gen.fill(KERNEL_EVENTS, &mut buf);
                std::hint::black_box(buf.len());
                samples.push(began.elapsed().as_nanos() as f64);
                if stopped.load(Ordering::Relaxed) {
                    return samples;
                }
                std::thread::sleep(SAMPLE_EVERY);
            }
        });
        Calibrator { stop, handle }
    }

    /// The machine's speed over the calibrator's life, 1.0 being the quiet
    /// sandbox: `(speed, samples taken)`.
    pub fn finish(self) -> (f64, usize) {
        self.stop.store(true, Ordering::Relaxed);
        let samples = self.handle.join().unwrap_or_default();
        let speed = median(&samples).map_or(1.0, |ns| REFERENCE_KERNEL_NS / ns.max(1.0));
        (speed, samples.len())
    }
}
