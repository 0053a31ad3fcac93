//! # paella-bench
//!
//! Shared plumbing for the per-figure experiment binaries (`fig01` …
//! `fig15`, `table2`) and the Criterion microbenchmarks. Each binary
//! regenerates the corresponding table/figure of the paper as CSV-ish rows
//! on stdout; see EXPERIMENTS.md for the paper-vs-measured record.

pub mod chart;
pub mod claims;
pub mod sweep;

use paella_gpu::DeviceConfig;

/// Scale factor for experiment sizes: set `PAELLA_BENCH_SCALE` (e.g. `0.1`)
/// to shrink request counts for quick smoke runs.
pub fn scale() -> f64 {
    std::env::var("PAELLA_BENCH_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&x: &f64| x > 0.0)
        .unwrap_or(1.0)
}

/// Scales a request count by [`scale`], keeping a sane floor.
pub fn scaled(n: usize) -> usize {
    ((n as f64 * scale()) as usize).max(50)
}

/// The evaluation device (§7 Methodology): an NVIDIA Tesla T4.
pub fn device() -> DeviceConfig {
    DeviceConfig::tesla_t4()
}

/// Prints a figure header.
pub fn header(fig: &str, caption: &str) {
    println!("# {fig}: {caption}");
}

/// Prints one CSV row.
pub fn row(fields: &[String]) {
    println!("{}", fields.join(","));
}

/// Formats a float with sensible precision for tables.
pub fn f(x: f64) -> String {
    if x.abs() >= 1000.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.3}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_defaults_to_one() {
        // The env var is unset in tests (set it only for manual runs).
        assert_eq!(scaled(1000), (1000.0 * scale()) as usize);
    }

    #[test]
    fn format_precision() {
        assert_eq!(f(12345.6), "12346");
        assert_eq!(f(42.34), "42.3");
        assert_eq!(f(1.23456), "1.235");
    }
}
