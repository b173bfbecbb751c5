//! Shared utilities for the experiment binaries (one binary per paper
//! table/figure — see DESIGN.md §4 for the index).
//!
//! Environment knobs honoured by every binary (the full table lives in
//! README "Environment knobs"):
//!
//! * `EBTRAIN_FULL=1` — run the full-fidelity configuration (224² inputs,
//!   all four networks, paper batch sizes). Slow on small machines.
//! * `EBTRAIN_ITERS`, `EBTRAIN_BATCH` — override iteration counts / batch
//!   sizes of the training experiments.
//! * `EBTRAIN_PRETRAIN`, `EBTRAIN_EVAL_EVERY` — fig9's pre-train length
//!   and eval cadence; `EBTRAIN_EB` / `EBTRAIN_W` / `EBTRAIN_REPS` /
//!   `EBTRAIN_BUDGET_MIB` are per-binary overrides.
//! * `RAYON_NUM_THREADS` — worker threads for every parallel path
//!   (codec chunks, GEMM, fig9 branches); defaults to the core count.

pub mod capture;
pub mod grads;
pub mod noisy;
pub mod snapshot;
pub mod table;

/// Read a boolean env flag (`1`/`true` = on).
pub fn env_flag(name: &str) -> bool {
    std::env::var(name)
        .map(|v| v == "1" || v.eq_ignore_ascii_case("true"))
        .unwrap_or(false)
}

/// Read a usize env override.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an f64 env override.
pub fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Human-readable byte count.
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = bytes as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{bytes} B")
    } else {
        format!("{v:.2} {}", UNITS[u])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_bytes_scales_units() {
        assert_eq!(fmt_bytes(512), "512 B");
        assert_eq!(fmt_bytes(2048), "2.00 KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.00 MB");
        assert_eq!(fmt_bytes(10 * 1024 * 1024 * 1024), "10.00 GB");
    }

    #[test]
    fn env_helpers_fall_back() {
        assert_eq!(env_usize("EBTRAIN_DOES_NOT_EXIST", 7), 7);
        assert!(!env_flag("EBTRAIN_DOES_NOT_EXIST"));
        assert_eq!(env_f64("EBTRAIN_DOES_NOT_EXIST", 0.5), 0.5);
    }
}
