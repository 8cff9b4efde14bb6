//! Facts about the machine a result was measured on.

use crate::stats::Dist;
use std::hint::black_box;
use std::num::NonZeroUsize;
use std::time::Instant;

/// Logical CPUs the process may use (`available_parallelism`).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// A CPU-bound loop with no memory traffic: `iters` xorshift rounds.
fn spin(iters: u64) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Measured speed-up of two threads over one on a CPU-bound loop:
/// `2 * t(one thread, W) / t(two threads, W each)`, median of three
/// trials. About 2 on two idle cores; about 1 when the two threads
/// share one core's worth of time.
pub fn two_thread_speedup() -> f64 {
    const ITERS: u64 = 40_000_000;
    let timed = |threads: usize| {
        let started = Instant::now();
        std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..threads).map(|_| scope.spawn(|| black_box(spin(black_box(ITERS))))).collect();
            for h in handles {
                black_box(h.join().expect("spin thread panicked"));
            }
        });
        started.elapsed().as_secs_f64()
    };
    let trials: Vec<f64> = (0..3).map(|_| 2.0 * timed(1) / timed(2)).collect();
    Dist::new(trials).p(50.0)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kib / 1024.0)
}
