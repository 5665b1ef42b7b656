//! The run loop and the host-side measurements every workload shares.

use crate::stats::median;
use std::hint::black_box;
use std::time::Instant;

/// Seconds spent repeating a workload's set-up for `setup_s`. A single
/// set-up takes 0.1 ms (server start) to 0.1 s (`dp_huge`), so one
/// sample would mostly measure the host.
const SETUP_SECONDS: f64 = 1.0;

/// Set-ups timed at least, however long they take.
const SETUP_MIN_REPS: usize = 5;

/// Runs `op(rep)` at least `min_reps` times, then for as long as one
/// more repetition — predicted to take as long as the last — still ends
/// within `seconds` of the start. Returns the repetitions run.
pub fn repeat(seconds: f64, min_reps: usize, mut op: impl FnMut(usize)) -> usize {
    let start = Instant::now();
    let mut last = 0.0;
    let mut reps = 0;
    while reps < min_reps || start.elapsed().as_secs_f64() + last <= seconds {
        let t = Instant::now();
        op(reps);
        last = t.elapsed().as_secs_f64();
        reps += 1;
    }
    reps
}

/// Repeats a set-up step for [`SETUP_SECONDS`], or the run's measuring
/// time `seconds` if shorter, and at least [`SETUP_MIN_REPS`] times;
/// `op` returns the seconds of the part that counts as set-up. Returns
/// their median.
pub fn setup_s(seconds: f64, mut op: impl FnMut() -> f64) -> f64 {
    let mut times = Vec::new();
    repeat(SETUP_SECONDS.min(seconds), SETUP_MIN_REPS, |_| {
        times.push(op())
    });
    median(&times)
}

/// Milliseconds a fixed single-threaded integer/float loop takes: a
/// drift diagnostic for the host, reported beside the metrics and never
/// used to normalise them.
pub fn host_ref_ms() -> f64 {
    let t = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15_u64);
    let mut acc = 0.0f64;
    for i in 0..2_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc += (x >> 40) as f64 * 1e-9 + i as f64 * 1e-12;
    }
    black_box(acc);
    t.elapsed().as_secs_f64() * 1e3
}

/// Resets the process's peak-RSS watermark to the current RSS (Linux
/// `clear_refs` mode 5). Returns whether the kernel accepted it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident set size since the last reset, in bytes (`VmHWM`); 0,
/// meaning not measured, where `/proc` is unavailable.
pub fn peak_rss_bytes() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeat_honours_min_reps_and_the_time_budget() {
        let mut seen = Vec::new();
        assert_eq!(repeat(0.0, 3, |r| seen.push(r)), 3);
        assert_eq!(seen, [0, 1, 2]);
        let sleepy = repeat(0.05, 1, |_| {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        assert!((1..=3).contains(&sleepy), "{sleepy} reps of 20 ms in 50 ms");
    }

    #[test]
    fn host_probes_read_sane_values() {
        assert!(host_ref_ms() > 0.0);
        if reset_peak_rss() {
            assert!(peak_rss_bytes() > 0.0);
        }
    }
}
