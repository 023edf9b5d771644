//! The reference kernel: a fixed piece of work that measures how fast
//! the host runs at the moment it is timed.
//!
//! The host is shared, and its speed drifts by a factor of up to 1.7
//! within seconds; every layer of the program slows together. The
//! benchmark times this kernel between the timed calls, and `run.py`
//! scales their times to a host on which the kernel takes 1 ms. The
//! kernel is code of this benchmark and calls nothing of the program,
//! so a change to the program cannot change its time.

use std::hint::black_box;
use std::time::Instant;

/// 2 MiB: past the private caches, so the kernel feels the shared-cache
/// contention that slows the simulator. A table that fits in L1 tracks
/// the program's slowdowns less well.
const TABLE_WORDS: usize = 1 << 18;
/// About 1/3 ms of work on the 2-core x86_64 baseline host.
const STEPS: u32 = 50_000;
/// Timed runs per reading; the reading is their median, so that one run
/// cut by an interrupt does not stand for the host's speed.
const RUNS: usize = 3;

pub struct Reference {
    table: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let table = (0..TABLE_WORDS as u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        Reference { table }
    }

    /// Run the kernel once untimed, so the table is back in cache
    /// whatever the program left there, then `RUNS` times timed; return
    /// the median timed run's host time times `RUNS`, in microseconds.
    pub fn time_us(&self) -> f64 {
        black_box(kernel(&self.table));
        let mut times = [0.0; RUNS];
        for t in &mut times {
            // mct-tidy: allow(D002) -- benchmark timer; feeds no program result
            let start = Instant::now();
            black_box(kernel(black_box(&self.table)));
            *t = start.elapsed().as_secs_f64() * 1e6;
        }
        times.sort_by(f64::total_cmp);
        times[RUNS / 2] * RUNS as f64
    }
}

/// Random reads over the table with a data-independent branch: the same
/// work on every call.
fn kernel(table: &[u64]) -> u64 {
    let mask = table.len() - 1;
    let mut x = 0x2545_F491_4F6C_DD1Du64;
    let mut acc = 0u64;
    let mut f = 0.0f64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let v = table[x as usize & mask];
        acc = acc.wrapping_add(v);
        if x & 1 == 0 {
            f += (v >> 11) as f64 * 1e-9;
        } else {
            f *= 0.999;
        }
    }
    acc ^ f.to_bits()
}
