//! Small statistics, hashing and seeding helpers shared by the workloads.

use memlp_crossbar::OpCounts;

/// Median of `v` (mean of the two middle values for even lengths); 0 for
/// an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let s = sorted(v);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Arithmetic mean; 0 for an empty slice.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// The tail of a latency sample: the highest percentile that still has
/// at least [`TAIL_BEYOND`] samples above it. Returns the value, the
/// percentile it sits at, and the sample count. With fewer than
/// `TAIL_BEYOND + 1` samples no such percentile exists and the maximum is
/// returned at the 100th percentile.
pub fn tail(v: &[f64]) -> Tail {
    let s = sorted(v);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let idx = n.saturating_sub(TAIL_BEYOND + 1);
    let idx = if n > TAIL_BEYOND { idx } else { n - 1 };
    Tail {
        value: s[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        samples: n,
    }
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency with the percentile and sample count it was read at.
#[derive(Debug, Clone, Copy)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over the simulated outputs of a pass. Floats enter by their bit
/// patterns, so two digests agree only if every hashed output is bitwise
/// identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for &x in v {
            self.f64(x);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        for b in s.bytes() {
            self.u64(u64::from(b));
        }
    }

    /// Every ledger counter, field by field (a counter added later does
    /// not change the digest of an unchanged simulation).
    pub fn counts(&mut self, c: &OpCounts) {
        for v in [
            c.setup_writes,
            c.update_writes,
            c.skipped_writes,
            c.rebuilds_avoided,
            c.factorizations,
            c.factor_flops,
            c.factor_nnz,
            c.mvm_ops,
            c.solve_ops,
            c.adc_samples,
            c.dac_samples,
            c.noc_transfers,
            c.tiles_elided,
            c.elided_writes,
        ] {
            self.u64(v);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// SplitMix64 step: derives independent, reproducible seeds and draws
/// from the workload seed without depending on a RNG crate's stream.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut z = seed
        .wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from [`mix`].
pub fn unit(seed: u64, a: u64, b: u64) -> f64 {
    (mix(seed, a, b) >> 11) as f64 / (1u64 << 53) as f64
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Field-wise difference of two ledger snapshots (`after − before`).
pub fn counts_since(after: &OpCounts, before: &OpCounts) -> OpCounts {
    OpCounts {
        setup_writes: after.setup_writes - before.setup_writes,
        update_writes: after.update_writes - before.update_writes,
        skipped_writes: after.skipped_writes - before.skipped_writes,
        rebuilds_avoided: after.rebuilds_avoided - before.rebuilds_avoided,
        factorizations: after.factorizations - before.factorizations,
        factor_flops: after.factor_flops - before.factor_flops,
        factor_nnz: after.factor_nnz - before.factor_nnz,
        mvm_ops: after.mvm_ops - before.mvm_ops,
        solve_ops: after.solve_ops - before.solve_ops,
        adc_samples: after.adc_samples - before.adc_samples,
        dac_samples: after.dac_samples - before.dac_samples,
        noc_transfers: after.noc_transfers - before.noc_transfers,
        tiles_elided: after.tiles_elided - before.tiles_elided,
        elided_writes: after.elided_writes - before.elided_writes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let v: Vec<f64> = (1..=64).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(t.value, 54.0);
        assert_eq!(v.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.samples, 64);
        assert_eq!(tail(&[3.0, 1.0, 2.0]).value, 3.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn unit_draws_stay_in_range() {
        for i in 0..1000 {
            let u = unit(7, i, 3);
            assert!((0.0..1.0).contains(&u));
        }
    }
}
