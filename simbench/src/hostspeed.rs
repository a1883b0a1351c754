//! Host-speed reference: a fixed kernel timed right before and right after
//! every timed block, so host times can be scaled to one reference speed.
//!
//! On a shared host the speed of a vCPU wanders by ±20% over stretches of
//! seconds to minutes (neighbours on the same cores), for every piece of
//! code alike. A pass timed in a slow stretch reads slow whatever the
//! program does, so medians of raw wall times differ between runs by far
//! more than any bound worth checking. The kernel here is part of the
//! benchmark, not of the program: a change to the simulator cannot move
//! it. Timing it on the same number of threads as the workload, on both
//! sides of a timed block, measures the host's speed in that stretch, and
//!
//! ```text
//! scaled = raw × NOMINAL_S / mean(kernel before, kernel after)
//! ```
//!
//! is the block's time on a host where the kernel takes [`NOMINAL_S`].

use std::time::Instant;

/// Kernel seconds at the reference host speed: about the kernel's time on
/// two threads of the 2-vCPU Intel Xeon (2.0 GHz) the bounds were set on,
/// which over an hour ranged from 0.15 to 0.21 s. The value only fixes the
/// unit: every run is scaled to it, so scaled times compare across runs.
pub const NOMINAL_S: f64 = 0.2;

/// Steps of the kernel per thread (about 0.2 s at [`NOMINAL_S`]).
const STEPS: u64 = 14_000_000;

/// The reference kernel, run on a fixed number of threads.
pub struct Reference {
    threads: usize,
}

impl Reference {
    /// A reference run on `threads` threads, as many as the workload's
    /// workers.
    pub fn new(threads: usize) -> Reference {
        Reference {
            threads: threads.max(1),
        }
    }

    /// Run the kernel once on every thread; host seconds until the last
    /// thread is done.
    pub fn measure(&self) -> f64 {
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..self.threads {
                scope.spawn(|| std::hint::black_box(kernel(STEPS)));
            }
        });
        start.elapsed().as_secs_f64()
    }
}

/// Factor that scales a time measured between two kernel timings to the
/// reference host speed.
pub fn factor(before_s: f64, after_s: f64) -> f64 {
    NOMINAL_S / ((before_s + after_s) / 2.0)
}

/// A set-associative LRU cache model over a mostly sequential address
/// stream with random jumps, plus a store into a 512 KiB table: the same
/// mix of short loops, data-dependent branches and L2-sized working set
/// as the simulator's per-cycle work. Returns a value derived from every
/// step so none of it can be optimised away.
fn kernel(steps: u64) -> u64 {
    const SETS: usize = 512;
    const WAYS: usize = 4;
    const TABLE: usize = 1 << 16;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut ages = vec![0u64; SETS * WAYS];
    let mut table = vec![0u64; TABLE];
    let (mut x, mut addr, mut hits) = (0x9e37_79b9_7f4a_7c15u64, 0u64, 0u64);
    for step in 0..steps {
        // xorshift64
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        addr = if x & 7 == 0 {
            x & 0xff_ffff
        } else {
            addr.wrapping_add(8 + (x >> 60))
        };
        let line = addr >> 6;
        let base = (line as usize & (SETS - 1)) * WAYS;
        let tag = line >> 9;
        let way = match (0..WAYS).find(|&w| tags[base + w] == tag) {
            Some(w) => {
                hits += 1;
                w
            }
            None => {
                let victim = (1..WAYS).fold(0, |v, w| {
                    if ages[base + w] < ages[base + v] {
                        w
                    } else {
                        v
                    }
                });
                tags[base + victim] = tag;
                victim
            }
        };
        ages[base + way] = step;
        let slot = (addr as usize >> 3) & (TABLE - 1);
        table[slot] = table[slot].wrapping_add(x | 1);
    }
    hits ^ table[x as usize & (TABLE - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(10_000), kernel(10_000));
        assert_ne!(kernel(10_000), kernel(10_001));
    }

    #[test]
    fn factor_is_one_at_nominal_speed() {
        assert_eq!(factor(NOMINAL_S, NOMINAL_S), 1.0);
        // A host twice as slow halves the scaled time.
        assert_eq!(factor(2.0 * NOMINAL_S, 2.0 * NOMINAL_S), 0.5);
    }
}
