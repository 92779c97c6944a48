//! Measurements of the host rather than of the program: how fast it is
//! running right now, and the process's peak resident set.
//!
//! The host shares its cores with other tenants, and its speed drifts by
//! tens of percent over minutes. A fixed reference kernel, timed just
//! before and after each measured phase, measures that drift, so host
//! times can be scaled to a nominal host speed. The kernel is
//! memory-latency bound over a working set of the engine's size, like
//! the engine's event and channel tables; a cache-resident or pure-ALU
//! kernel tracked the simulator worse.

use std::hint::black_box;
use std::time::Instant;

use crate::workloads::median;

/// Words in each kernel copy's buffer: 40 MiB, above the largest size
/// the allocator serves from its heap, so the buffer is returned to the
/// system when the kernel ends.
const KERNEL_WORDS: usize = 5 << 20;

/// Read-modify-writes per timed pass (about 28 ms on the reference
/// host).
const KERNEL_STEPS: u32 = 1_500_000;

/// Timed passes per kernel run; their median resists the kernel's own
/// spikes.
const KERNEL_PASSES: usize = 5;

/// The kernel's median pass time on the 2-core host the baseline in
/// README.md was recorded on; see [`host_scale`].
pub const REFERENCE_KERNEL_S: f64 = 0.028;

/// Median seconds of one pass of the reference kernel.
fn kernel() -> f64 {
    let mut v: Vec<u64> = (0..KERNEL_WORDS as u64).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut passes = [0.0; KERNEL_PASSES];
    for pass in &mut passes {
        let t0 = Instant::now();
        for _ in 0..KERNEL_STEPS {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let i = (x >> 32) as usize % KERNEL_WORDS;
            v[i] = v[i].wrapping_add(x ^ (x >> 17));
        }
        *pass = t0.elapsed().as_secs_f64();
    }
    black_box(&v);
    median(&passes)
}

/// The kernel's pass time, averaged over `threads` copies run at once,
/// so a workload on two threads is compared with the host's speed on
/// two.
pub fn kernel_seconds(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let copies: Vec<_> = (0..threads).map(|_| s.spawn(kernel)).collect();
        let total: f64 = copies
            .into_iter()
            .map(|c| c.join().expect("the reference kernel does not panic"))
            .sum();
        total / threads as f64
    })
}

/// How much slower than nominal the host ran, from the kernel times
/// taken around a measurement: a rate measured at this moment times
/// this factor is the rate at the nominal host speed.
pub fn host_scale(before_s: f64, after_s: f64) -> f64 {
    (before_s + after_s) / 2.0 / REFERENCE_KERNEL_S
}

fn status_kib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process (`VmHWM`) since start or since the
/// last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_kib("VmHWM:").map(|kib| kib / 1024.0)
}

/// Lowers the peak mark to the current resident set, so the kernel's
/// buffer, already returned to the system, is not counted as the
/// workload's memory.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}
