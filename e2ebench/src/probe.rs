//! Host-speed probe: a fixed compute kernel, timed between the workload's
//! own operations, that turns host wall time into reference-host time.
//!
//! A shared host's speed moves by 10–25% for identical work, on a scale
//! from well under a second to minutes. The probe is the benchmark's own
//! code and calls no memlp crate, so a change to the program cannot change
//! it: what moves its time is the host alone. The benchmark times the probe
//! before and after every timed operation (every solve; every 32 requests
//! on serve) and reports each host time scaled by `PROBE_REF_US` ÷ the probe
//! time around it. A program that is 10% slower still reads 10% slower; a
//! host that is 10% slower does not. Raw host figures are printed beside
//! the scaled ones.

use std::time::Instant;

/// Side of the probe's dense matrix: 50 KiB of `f64`, cache-resident. Of
/// the kernels tried (this one, the same at side 176, a quantized
/// matrix–vector loop), it followed both solvers' speed best as the host
/// drifted: their time moved 1.0× the probe's.
const N: usize = 80;

/// Eliminations per sample, so that a sample takes about 0.7 ms.
const ELIMINATIONS: usize = 6;

/// One probe sample on the reference host (a 2-vCPU KVM guest on a Xeon),
/// µs. Scaled host times read in that host's seconds.
pub const PROBE_REF_US: f64 = 700.0;

/// The kernel: Gaussian elimination, without pivoting, of a fixed
/// diagonally dominant matrix.
pub struct Probe {
    a0: Vec<f64>,
    a: Vec<f64>,
}

impl Default for Probe {
    fn default() -> Self {
        let a0 = (0..N * N)
            .map(|k| {
                let off = ((k * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5;
                if k % (N + 1) == 0 {
                    off + N as f64
                } else {
                    off
                }
            })
            .collect();
        Probe {
            a0,
            a: vec![0.0; N * N],
        }
    }
}

impl Probe {
    /// Times [`ELIMINATIONS`] kernel calls, µs.
    pub fn sample(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..ELIMINATIONS {
            self.a.copy_from_slice(std::hint::black_box(&self.a0));
            let a = &mut self.a;
            for k in 0..N {
                let piv = a[k * N + k];
                for i in k + 1..N {
                    let l = a[i * N + k] / piv;
                    a[i * N + k] = l;
                    for j in k + 1..N {
                        a[i * N + j] -= l * a[k * N + j];
                    }
                }
            }
            std::hint::black_box(a[N * N - 1]);
        }
        start.elapsed().as_secs_f64() * 1e6
    }
}

/// Probe samples in time order: sample `k` is taken just before timed
/// operation `k` and sample `k + 1` just after it.
#[derive(Debug, Default, Clone)]
pub struct Track {
    us: Vec<f64>,
}

impl Track {
    pub fn push(&mut self, us: f64) {
        self.us.push(us);
    }

    /// How much slower than the reference host the host ran around
    /// operation `k`: the geometric mean of the samples on either side of
    /// it, ÷ [`PROBE_REF_US`]. Divide the operation's host time by it.
    pub fn slowness(&self, k: usize) -> f64 {
        let last = self.us.len() - 1;
        (self.us[k.min(last)] * self.us[(k + 1).min(last)]).sqrt() / PROBE_REF_US
    }

    /// Median of every sample, µs.
    pub fn median_us(&self) -> f64 {
        crate::stats::median(&self.us)
    }
}

/// Probe ticks spread through a long span (a set-up): the span's host
/// time is scaled by the median tick, and the ticks' own time is left out.
#[derive(Default)]
pub struct SpanClock {
    probe: Probe,
    ticks: Vec<f64>,
    ticks_s: f64,
}

impl SpanClock {
    /// Takes one probe sample.
    pub fn tick(&mut self) {
        let start = Instant::now();
        self.ticks.push(self.probe.sample());
        self.ticks_s += start.elapsed().as_secs_f64();
    }

    /// Runs `f`, which ticks the clock as it goes, and returns its result,
    /// its raw host time and its reference-host time, in seconds, the
    /// ticks excluded from both.
    pub fn time<T>(f: impl FnOnce(&mut SpanClock) -> T) -> (T, f64, f64) {
        let mut clock = SpanClock::default();
        let start = Instant::now();
        let out = f(&mut clock);
        let raw_s = start.elapsed().as_secs_f64() - clock.ticks_s;
        clock.tick();
        let slowness = crate::stats::median(&clock.ticks) / PROBE_REF_US;
        (out, raw_s, raw_s / slowness)
    }
}
