//! RAII timing spans.

use std::time::Instant;

/// Guard returned by [`span`] / the [`span!`](crate::span!) macro.
/// Dropping it records the elapsed time (and the `bytes` attribute)
/// into the registry and, when tracing is active, closes the `B`/`E`
/// event pair in this thread's trace buffer.
#[must_use = "a span measures the scope it is bound to; binding to _ drops it immediately"]
pub struct SpanGuard {
    name: &'static str,
    /// `None` when both metrics and tracing were disabled at open time:
    /// the guard is then a complete no-op (no clock read).
    start: Option<Instant>,
    bytes: u64,
    traced: bool,
}

/// Open a span; see [`span!`](crate::span!).
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    let metrics = crate::metrics_enabled();
    let traced = crate::trace_enabled();
    if !metrics && !traced {
        return SpanGuard {
            name,
            start: None,
            bytes: 0,
            traced: false,
        };
    }
    if traced {
        crate::trace::record_event(name, b'B', 0);
    }
    SpanGuard {
        name,
        start: Some(Instant::now()),
        bytes: 0,
        traced,
    }
}

/// Open a span with an initial byte attribution.
#[inline]
pub fn span_with_bytes(name: &'static str, bytes: u64) -> SpanGuard {
    let mut g = span(name);
    g.bytes = bytes;
    g
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(start) = self.start else {
            return;
        };
        let nanos = start.elapsed().as_nanos() as u64;
        if crate::metrics_enabled() {
            crate::registry::record(self.name, nanos, self.bytes);
        }
        if self.traced {
            crate::trace::record_event(self.name, b'E', self.bytes);
        }
    }
}
