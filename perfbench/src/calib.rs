//! Host-speed calibration: a fixed kernel, timed between the windows of
//! the timed phase, that says how fast the host is running right now.
//!
//! The 2-vCPU KVM host this benchmark was tuned on switches between a
//! slow and a fast speed (up to ~1.8× apart) from one second to the
//! next and for minutes at a time, with no hypervisor steal reported.
//! Runs of the same code then spread far beyond any useful bound, and no
//! estimator over a run's own operations fixes that. The kernel slows
//! down with the host, so each window's operations are scaled by the
//! kernel's time next to that window over its nominal time: the
//! reported figures read as they would at the kernel's nominal speed.
//!
//! The kernel is the benchmark's own code and calls nothing in the
//! program under test, so a change to the program moves the scaled
//! figures as it moves the raw ones. It has two halves of about equal
//! time, because the host's slow spells hit different work differently:
//! an arithmetic loop (the profile sweep of `solve-matrix` tracks it)
//! and small short-lived heap allocations (the per-state analyses behind
//! `solve-gworst`'s `complete_info` track those, and slow down about
//! 1.5× as much as the arithmetic does). Its blind spot: the allocation
//! half shares the process's allocator and heap with the program, so a
//! change to the global allocator, or to the state the program leaves
//! the heap in, moves the kernel too.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the arithmetic half (~2.5 ms at the nominal speed).
const ARITH_ITERS: u64 = 1_350_000;
/// Allocations of the allocation half (~2.5 ms at the nominal speed).
const ALLOCS: usize = 85_000;
/// The kernel's time at the nominal speed, about its median on the
/// tuning host (4.3 ms in fast spells, 5.5 ms in slow ones). Only the
/// ratio of a run's kernel times to this matters, and only between runs
/// on one host.
pub const NOMINAL_NS: f64 = 5.0e6;

/// Runs the kernel once and returns the host's slowness now: the
/// kernel's time over [`NOMINAL_NS`] (above 1 when the host is slow).
pub fn slowness() -> f64 {
    let t = Instant::now();
    black_box(arith(ARITH_ITERS));
    black_box(allocs(ALLOCS));
    t.elapsed().as_nanos() as f64 / NOMINAL_NS
}

/// SplitMix64 steps, xor-folded.
fn arith(iters: u64) -> u64 {
    let (mut acc, mut x) = (0u64, 1u64);
    for _ in 0..iters {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        acc ^= z ^ (z >> 31);
    }
    acc
}

/// Vectors of 3–63 words, each kept alive among the last 64 made.
fn allocs(n: usize) -> u64 {
    let mut acc = 0u64;
    let mut live: Vec<Vec<u64>> = Vec::with_capacity(65);
    for i in 0..n {
        let v: Vec<u64> = (0..(i % 61 + 3) as u64).collect();
        acc = acc.wrapping_add(v[v.len() / 2]);
        live.push(v);
        if live.len() > 64 {
            live.swap_remove(i % 64);
        }
    }
    acc
}
