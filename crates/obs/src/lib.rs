//! # ebtrain-obs
//!
//! The observability substrate for the whole workspace: one **metrics
//! registry** (counters, gauges, span timings), one **scoped-span**
//! primitive, and one **chrome-trace exporter** — always compiled in,
//! cheap enough to leave on, and a near-no-op when disabled.
//!
//! Three design points (DESIGN.md §9 has the full rationale):
//!
//! * **Thread-local shards.** Counter and span updates land in a shard
//!   owned by the calling thread, so `ebtrain-pool` workers and their
//!   callers never contend on a shared lock in the hot path.
//!   [`snapshot`] merges every live shard plus a *retired* accumulator
//!   that absorbs shards of threads that have exited (client threads,
//!   serve session threads and the workers of a dropped pool), so no
//!   count is ever lost.
//! * **Spans are RAII guards.** [`span!`]`("sz.compress", bytes = n)`
//!   returns a guard; dropping it records its duration into the name's
//!   histogram (which is also its count/total/min/max) and its byte
//!   attribution beside it, and, when tracing is on, a `B`/`E` event
//!   pair into the calling thread's trace buffer. Span names follow the
//!   `crate.operation` convention. When both metrics and tracing are
//!   disabled the guard costs two relaxed atomic loads and skips the
//!   clock read entirely.
//! * **Enablement.** Metrics are **on by default** (`EBTRAIN_METRICS=0`
//!   disables); trace collection is **opt-in** via `EBTRAIN_TRACE=<path>`
//!   and flushed by [`flush_trace`] at the end of the fig binaries.
//!   [`set_metrics_enabled`] / [`set_trace_enabled`] override both
//!   programmatically (the overhead bench flips them per arm).

pub mod flight;
pub mod hist;
mod json_mod;
pub mod netutil;
mod registry;
pub mod serve;
mod span;
mod trace;

pub use flight::{flight_records, flight_step, flush_flight, install_panic_hook, FlightRecord};
pub use hist::{Histogram, Quantiles};
pub use registry::{
    counter_add, gauge_add, gauge_peak_take, gauge_remove, gauge_set, gauge_value, hist_record,
    next_instance_id, snapshot, Snapshot, SpanStats,
};
pub use span::{span, span_with_bytes, SpanGuard};
pub use trace::{clear_trace, flush_trace, trace_env_path, write_trace, write_trace_to};

/// Minimal JSON value/parser used by the trace checker and the exporter
/// tests (the workspace has no serde).
pub mod json {
    pub use crate::json_mod::{parse, Value};
}

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

// 0 = uninitialized (read env on first use), 1 = enabled, 2 = disabled.
static METRICS_STATE: AtomicU8 = AtomicU8::new(0);
static TRACE_STATE: AtomicU8 = AtomicU8::new(0);

fn read_state(state: &AtomicU8, init: fn() -> bool) -> bool {
    match state.load(Ordering::Relaxed) {
        1 => true,
        2 => false,
        _ => {
            let on = init();
            // Racing initializers compute the same env-derived value.
            state.store(if on { 1 } else { 2 }, Ordering::Relaxed);
            on
        }
    }
}

/// True when metric recording is active (default; `EBTRAIN_METRICS=0`
/// or [`set_metrics_enabled`]`(false)` turns it off).
#[inline]
pub fn metrics_enabled() -> bool {
    read_state(&METRICS_STATE, || {
        !matches!(
            std::env::var("EBTRAIN_METRICS").as_deref(),
            Ok("0") | Ok("off") | Ok("false")
        )
    })
}

/// True when span events are being collected for the chrome-trace
/// exporter (off unless `EBTRAIN_TRACE=<path>` is set or
/// [`set_trace_enabled`]`(true)` was called).
#[inline]
pub fn trace_enabled() -> bool {
    read_state(&TRACE_STATE, || {
        trace_env_path_raw().map(|p| !p.is_empty()).unwrap_or(false)
    })
}

/// Programmatically enable/disable metric recording (overrides the env).
pub fn set_metrics_enabled(on: bool) {
    METRICS_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

/// Programmatically enable/disable trace collection (overrides the env).
pub fn set_trace_enabled(on: bool) {
    TRACE_STATE.store(if on { 1 } else { 2 }, Ordering::Relaxed);
}

pub(crate) fn trace_env_path_raw() -> Option<&'static str> {
    static PATH: OnceLock<Option<String>> = OnceLock::new();
    PATH.get_or_init(|| std::env::var("EBTRAIN_TRACE").ok())
        .as_deref()
}

/// One-call env-driven setup for binaries: installs the flight-dump
/// panic hook and, when `EBTRAIN_METRICS_ADDR` is set, starts a
/// process-lifetime [`serve::MetricsServer`]. Returns the endpoint
/// address when one is listening (for self-probes). Idempotent.
pub fn init_from_env() -> Option<std::net::SocketAddr> {
    flight::install_panic_hook();
    static SERVER: OnceLock<Option<serve::MetricsServer>> = OnceLock::new();
    SERVER
        .get_or_init(serve::serve_from_env)
        .as_ref()
        .map(|s| s.addr())
}

/// Open a scoped timing span: `span!("crate.operation")` or
/// `span!("crate.operation", bytes = n)`. Returns a [`SpanGuard`];
/// duration (and the byte attribute) are recorded when it drops.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
    ($name:expr, bytes = $bytes:expr) => {
        $crate::span_with_bytes($name, $bytes as u64)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_delta() {
        set_metrics_enabled(true);
        let before = snapshot();
        counter_add("obs.test.counter_a", 3);
        counter_add("obs.test.counter_a", 4);
        let d = snapshot().delta_since(&before);
        assert_eq!(d.counter("obs.test.counter_a"), 7);
        assert_eq!(d.counter("obs.test.never_touched"), 0);
    }

    #[test]
    fn spans_record_duration_and_bytes() {
        set_metrics_enabled(true);
        let before = snapshot();
        {
            let _g = span!("obs.test.span_a", bytes = 128);
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let d = snapshot().delta_since(&before);
        let st = d.span_stats("obs.test.span_a");
        assert_eq!(st.count, 1);
        assert!(st.total_nanos >= 1_000_000, "span too short: {st:?}");
        assert_eq!(st.total_bytes, 128);
    }

    #[test]
    fn gauges_set_add_remove() {
        set_metrics_enabled(true);
        gauge_set("obs.test.gauge#1", 10);
        gauge_add("obs.test.gauge#1", -3);
        gauge_set("obs.test.gauge#2", 5);
        let s = snapshot();
        assert_eq!(s.gauge("obs.test.gauge#1"), 7);
        assert_eq!(s.gauge_prefix_sum("obs.test.gauge"), 12);
        gauge_remove("obs.test.gauge#1");
        gauge_remove("obs.test.gauge#2");
        assert_eq!(snapshot().gauge("obs.test.gauge#1"), 0);
    }

    #[test]
    fn shards_from_dead_threads_survive() {
        set_metrics_enabled(true);
        let before = snapshot();
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..100 {
                        counter_add("obs.test.dead_thread", 1);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let d = snapshot().delta_since(&before);
        assert_eq!(d.counter("obs.test.dead_thread"), 400);
    }

    #[test]
    fn instance_ids_are_unique() {
        let a = next_instance_id();
        let b = next_instance_id();
        assert_ne!(a, b);
    }
}
