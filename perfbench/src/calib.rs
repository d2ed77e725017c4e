//! Host-speed reference for the wall-time readings.
//!
//! The benchmark's hosts are shared: the same fixed computation can
//! take half as long again for seconds at a time. Wall times are
//! therefore booked in *nominal-host* time as well: a short reference
//! kernel is timed every few thousand events (or every 100 ms on a
//! gauge thread), and wall time is scaled by how much slower or faster
//! than [`NOMINAL_PROBE_S`] the kernel ran. The kernel uses none of the
//! middleware's code, so a change to the middleware moves the scaled
//! readings as it moves the raw ones. The raw medians go to the run
//! record next to the scaled ones.

use react_runtime::Stopwatch;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Wall seconds of one probe on the nominal host.
pub const NOMINAL_PROBE_S: f64 = 0.00096;

/// Iterations of the probe kernel.
const PROBE_STEPS: usize = 150_000;

/// The probe's table: 64 KiB, so its dependent random accesses stay in
/// the L2 cache and leave the work it calibrates cache-warm. Of the
/// kernels tried (integer-only, floating-point, 1 MiB table) this one
/// tracked the round-to-round speed of the scheduler best.
fn probe_table() -> Vec<u64> {
    (0..8192u64).collect()
}

/// One pass of the kernel; returns the factor from wall time now to
/// nominal-host time.
fn probe(table: &mut [u64]) -> f64 {
    let clock = Stopwatch::start();
    let mask = table.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..PROBE_STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x ^ acc) as usize & mask;
        acc = acc.wrapping_add(table[i]).rotate_left(5) ^ x;
        table[i] = acc;
    }
    std::hint::black_box(acc);
    NOMINAL_PROBE_S / clock.elapsed_secs().max(1e-9)
}

/// Tracks the host's speed from the thread doing the work, and books
/// wall time into nominal-host time.
pub struct HostSpeed {
    clock: Stopwatch,
    table: Vec<u64>,
    /// Wall instant (since `clock` started) the last probe ended.
    last: f64,
    factor: f64,
    nominal_s: f64,
    raw_s: f64,
}

impl HostSpeed {
    /// Starts tracking with a first probe.
    pub fn start() -> Self {
        let mut table = probe_table();
        let factor = probe(&mut table);
        let clock = Stopwatch::start();
        HostSpeed {
            clock,
            table,
            last: 0.0,
            factor,
            nominal_s: 0.0,
            raw_s: 0.0,
        }
    }

    /// Books the wall time since the last probe at the mean of the
    /// factors measured at its two ends, then probes again. The probes'
    /// own time is booked nowhere.
    pub fn probe(&mut self) {
        let wall = self.clock.elapsed_secs() - self.last;
        let factor = probe(&mut self.table);
        self.nominal_s += wall * (self.factor + factor) / 2.0;
        self.raw_s += wall;
        self.factor = factor;
        self.last = self.clock.elapsed_secs();
    }

    /// The factor from wall time to nominal-host time at the last probe.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Probes, then returns the (nominal, wall) seconds booked so far.
    pub fn booked(&mut self) -> (f64, f64) {
        self.probe();
        (self.nominal_s, self.raw_s)
    }
}

/// A thread that probes the host every 100 ms and publishes the latest
/// factor, for work spread over threads the benchmark does not run.
pub struct SpeedGauge {
    factor: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    thread: JoinHandle<()>,
}

/// A read handle on a [`SpeedGauge`].
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// The latest wall-to-nominal factor.
    pub fn factor(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

impl SpeedGauge {
    pub fn start() -> SpeedGauge {
        let mut table = probe_table();
        let factor = Arc::new(AtomicU64::new(probe(&mut table).to_bits()));
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let (factor, stop) = (Arc::clone(&factor), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(100));
                    factor.store(probe(&mut table).to_bits(), Ordering::Relaxed);
                }
            })
        };
        SpeedGauge {
            factor,
            stop,
            thread,
        }
    }

    pub fn gauge(&self) -> Gauge {
        Gauge(Arc::clone(&self.factor))
    }

    /// Stops the thread and waits for it.
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("speed gauge thread panicked");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn booked_time_tracks_wall_time() {
        let mut speed = HostSpeed::start();
        let spin = Stopwatch::start();
        while spin.elapsed_secs() < 0.02 {}
        let (nominal, raw) = speed.booked();
        assert!(raw >= 0.02, "{raw}");
        assert!(nominal > 0.0 && speed.factor() > 0.0);
        // The ratio is the host's speed factor, within a wide band.
        assert!((0.05..20.0).contains(&(nominal / raw)), "{nominal} / {raw}");
    }

    #[test]
    fn gauge_publishes_a_factor_and_stops() {
        let gauge = SpeedGauge::start();
        assert!(gauge.gauge().factor() > 0.0);
        gauge.stop();
    }
}
