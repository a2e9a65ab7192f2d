//! Small shared helpers for the reproduction harness.

use ioverlay::api::NodeId;

/// Shorthand for a loopback node id.
pub fn n(port: u16) -> NodeId {
    NodeId::loopback(port)
}

/// Prints a header for one experiment.
pub fn banner(id: &str, what: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("================================================================");
}

/// Formats a right-aligned table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = *w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Deterministic uniform sample in `[lo, hi)` from a cheap hash of
/// `(seed, index)` — used for the PlanetLab-style per-node bandwidth
/// draws so that experiment setups never depend on call order.
pub fn uniform(seed: u64, index: u64, lo: f64, hi: f64) -> f64 {
    let mut x = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    let unit = (x >> 11) as f64 / (1u64 << 53) as f64;
    lo + unit * (hi - lo)
}

/// The numeric value of field `key` (for example `"VmRSS:"`) in the text
/// of `/proc/self/status`; 0 if the field is missing.
pub fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find(|l| l.starts_with(key))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Cumulative distribution: for each threshold, the fraction of samples
/// at or below it.
pub fn cdf(samples: &[f64], thresholds: &[f64]) -> Vec<f64> {
    if samples.is_empty() {
        return thresholds.iter().map(|_| 0.0).collect();
    }
    thresholds
        .iter()
        .map(|t| samples.iter().filter(|s| **s <= *t).count() as f64 / samples.len() as f64)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_is_deterministic_and_in_range() {
        for i in 0..100 {
            let a = uniform(7, i, 50.0, 200.0);
            let b = uniform(7, i, 50.0, 200.0);
            assert_eq!(a, b);
            assert!((50.0..200.0).contains(&a));
        }
        assert_ne!(uniform(7, 1, 0.0, 1.0), uniform(8, 1, 0.0, 1.0));
    }

    #[test]
    fn cdf_is_monotone_and_bounded() {
        let samples = [1.0, 2.0, 3.0, 4.0];
        let out = cdf(&samples, &[0.0, 2.0, 5.0]);
        assert_eq!(out, vec![0.0, 0.5, 1.0]);
        assert_eq!(cdf(&[], &[1.0]), vec![0.0]);
    }

    #[test]
    fn status_fields_parse() {
        let text = "Name:\trepro\nVmHWM:\t  2048 kB\nVmRSS:\t  1024 kB\nThreads:\t3\n";
        assert_eq!(status_field(text, "VmRSS:"), 1024);
        assert_eq!(status_field(text, "Threads:"), 3);
        assert_eq!(status_field(text, "VmSwap:"), 0);
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
