//! Host-speed calibration.
//!
//! Small shared machines change speed by half or more over minutes, as
//! other tenants come and go, which swamps any regression bound on raw
//! times. The benchmark therefore times a fixed probe kernel — CPU work
//! that shares no code with the program under test — next to every slice
//! of measured traffic, and rescales that slice's times to a host on
//! which the probe takes [`REFERENCE_US`]. A change to the program moves
//! the measured times and leaves the probe alone, so it still shows in
//! full; a change in host speed moves both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// Probe time, µs, of the reference host the figures are scaled to.
pub const REFERENCE_US: f64 = 2000.0;

/// Largest ratio between the probes on either side of a slice for the
/// host to count as steady through it.
pub const STEADY: f64 = 1.05;

/// Passes of the probe kernel over its table.
const PASSES: usize = 640;

/// Probe repeats per reading; the fastest counts, so a preemption in one
/// of them does not read as a slow host.
const REPEATS: usize = 3;

/// Time the probe kernel, µs: the fastest of [`REPEATS`] runs.
pub fn probe() -> f64 {
    (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            black_box(kernel(black_box(PASSES)));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .fold(f64::INFINITY, f64::min)
}

/// How much slower than the reference host the host ran during a probe
/// that took `probe_us`: divide a measured time by it (multiply a rate).
pub fn slowdown(probe_us: f64) -> f64 {
    probe_us / REFERENCE_US
}

/// Integer mixing, table reads and writes at data-dependent indices and
/// a floating-point min-plus recurrence over an L1-resident table: the
/// kinds of work the planner's inner loops do.
fn kernel(passes: usize) -> u64 {
    let mut table = [0u64; 1024];
    let mut best = [0.0f64; 64];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for _ in 0..passes {
        for i in 0..table.len() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let j = (x as usize) & (table.len() - 1);
            table[i] = table[i].wrapping_add(table[j] ^ x);
            let k = i & (best.len() - 1);
            let cost = (x >> 44) as f64 * 1e-3;
            best[k] = best[k].min(best[(k + 1) & (best.len() - 1)] + cost) * 0.5 + cost;
        }
    }
    table.iter().fold(0, |a, &t| a ^ t) ^ best.iter().map(|b| b.to_bits()).fold(0, |a, b| a ^ b)
}

/// Pin the calling thread, and so every thread it starts afterwards, to
/// the lowest-numbered CPU it may run on. With the client, the daemon
/// and the probe on one CPU, every run measures the same hand-offs
/// between them, rather than whichever placement the scheduler picked,
/// and the probe reads the speed of the CPU that did the work. Where
/// pinning is not available, the threads stay where they are.
pub fn pin_to_one_cpu() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
            fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
        }
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: both calls read or write at most `size` bytes of `mask`,
        // and pid 0 names the calling thread.
        unsafe {
            if sched_getaffinity(0, size, mask.as_mut_ptr()) != 0 {
                return;
            }
            if let Some(cpu) = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1) {
                let mut one = [0u64; 16];
                one[cpu / 64] = 1 << (cpu % 64);
                sched_setaffinity(0, size, one.as_ptr());
            }
        }
    }
}
