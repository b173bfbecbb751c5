//! The sharded metrics registry.
//!
//! Counters and per-name records (a span's or a value's [`Histogram`]
//! plus its byte sum) live in **per-thread shards**: the hot path locks
//! only the calling thread's own mutex (uncontended except while a
//! snapshot is being taken), so concurrent workers never fight over a
//! shared line. [`snapshot`] merges every live shard plus the
//! *retired* accumulator into which a dying thread folds its shard —
//! client threads, serve session threads and a dropped pool's workers
//! exit while the process runs on, so retirement must be loss-free.
//! Gauges are low-frequency (tier residency, queue depth) and live in
//! one global map keyed by owned strings, which is what lets
//! per-instance keys like `membudget.resident.hot#3` exist.

use crate::hist::{Histogram, Quantiles};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Aggregated timing statistics of one span name — a view of its
/// [`Histogram`] and byte sum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed span instances.
    pub count: u64,
    /// Summed durations in nanoseconds.
    pub total_nanos: u64,
    /// Shortest instance (0 when `count == 0`).
    pub min_nanos: u64,
    /// Longest instance.
    pub max_nanos: u64,
    /// Summed `bytes` attributes.
    pub total_bytes: u64,
}

/// Everything recorded under one name: the histogram of its values
/// (span durations, or [`hist_record`] values) and the summed `bytes`
/// attributes.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Record {
    pub(crate) hist: Histogram,
    pub(crate) bytes: u64,
}

impl Record {
    fn merge(&mut self, other: &Record) {
        self.hist.merge(&other.hist);
        self.bytes += other.bytes;
    }

    pub(crate) fn stats(&self) -> SpanStats {
        SpanStats {
            count: self.hist.count(),
            total_nanos: self.hist.total(),
            min_nanos: self.hist.min(),
            max_nanos: self.hist.max(),
            total_bytes: self.bytes,
        }
    }
}

#[derive(Default)]
pub(crate) struct ShardData {
    counters: HashMap<&'static str, u64>,
    records: HashMap<&'static str, Record>,
}

impl ShardData {
    fn merge(&mut self, other: &ShardData) {
        for (&k, &v) in &other.counters {
            *self.counters.entry(k).or_insert(0) += v;
        }
        for (&k, v) in &other.records {
            self.records.entry(k).or_default().merge(v);
        }
    }
}

/// A gauge is the current level plus a high-water mark since the last
/// [`gauge_peak_take`] — the watermark is what lets a per-step report
/// see e.g. the peak pool queue depth inside the step.
#[derive(Clone, Copy)]
struct GaugeCell {
    value: i64,
    peak: i64,
}

struct Global {
    /// Live per-thread shards (registered on first use per thread).
    shards: Mutex<Vec<Arc<Mutex<ShardData>>>>,
    /// Merged shards of threads that have exited.
    retired: Mutex<ShardData>,
    gauges: Mutex<HashMap<String, GaugeCell>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoning panic can only originate outside our critical
    // sections (they don't call user code); recover the data.
    m.lock().unwrap_or_else(|p| p.into_inner())
}

fn global() -> &'static Global {
    static G: OnceLock<Global> = OnceLock::new();
    G.get_or_init(|| Global {
        shards: Mutex::new(Vec::new()),
        retired: Mutex::new(ShardData::default()),
        gauges: Mutex::new(HashMap::new()),
    })
}

/// Owns this thread's shard registration; the `Drop` runs at thread
/// exit and folds the shard into the retired accumulator so its counts
/// survive the thread.
struct ThreadShard {
    data: Arc<Mutex<ShardData>>,
}

impl Drop for ThreadShard {
    fn drop(&mut self) {
        let g = global();
        // Hold the shard list while merging so a concurrent snapshot
        // sees the counts exactly once (still live, or already retired).
        let mut shards = lock(&g.shards);
        {
            let data = lock(&self.data);
            lock(&g.retired).merge(&data);
        }
        shards.retain(|s| !Arc::ptr_eq(s, &self.data));
    }
}

thread_local! {
    static SHARD: ThreadShard = {
        let data = Arc::new(Mutex::new(ShardData::default()));
        lock(&global().shards).push(Arc::clone(&data));
        ThreadShard { data }
    };
}

fn with_shard(f: impl FnOnce(&mut ShardData)) {
    let mut f = Some(f);
    let _ = SHARD.try_with(|s| f.take().map(|f| f(&mut lock(&s.data))));
    // TLS already destroyed (thread teardown): write through the
    // retired accumulator so nothing is lost.
    if let Some(f) = f {
        f(&mut lock(&global().retired));
    }
}

/// One map update: `v` into the name's histogram, `bytes` into its sum.
pub(crate) fn record(name: &'static str, v: u64, bytes: u64) {
    with_shard(|d| {
        let r = d.records.entry(name).or_default();
        r.hist.record(v);
        r.bytes += bytes;
    });
}

/// Record a value into the named histogram directly — for distributions
/// that aren't span durations (e.g. modeled wire nanos per message).
/// Keys share the namespace with spans; pick distinct names.
pub fn hist_record(name: &'static str, v: u64) {
    if crate::metrics_enabled() {
        record(name, v, 0);
    }
}

/// Add `v` to the named monotonic counter (no-op when metrics are
/// disabled). Keys are `&'static str` by design: hot paths pay one
/// thread-local map update, no allocation.
pub fn counter_add(name: &'static str, v: u64) {
    if v == 0 || !crate::metrics_enabled() {
        return;
    }
    with_shard(|d| *d.counters.entry(name).or_insert(0) += v);
}

/// Add a (possibly negative) delta to a gauge. Gauges are global —
/// deltas from many owners sum naturally (e.g. resident bytes across
/// several arenas).
pub fn gauge_add(name: &str, delta: i64) {
    if delta == 0 || !crate::metrics_enabled() {
        return;
    }
    let mut g = lock(&global().gauges);
    match g.get_mut(name) {
        Some(cell) => {
            cell.value += delta;
            cell.peak = cell.peak.max(cell.value);
        }
        None => {
            g.insert(
                name.to_string(),
                GaugeCell {
                    value: delta,
                    peak: delta.max(0),
                },
            );
        }
    }
}

/// Set a gauge to an absolute value.
pub fn gauge_set(name: &str, v: i64) {
    if !crate::metrics_enabled() {
        return;
    }
    let mut g = lock(&global().gauges);
    match g.get_mut(name) {
        Some(cell) => {
            cell.value = v;
            cell.peak = cell.peak.max(v);
        }
        None => {
            g.insert(name.to_string(), GaugeCell { value: v, peak: v });
        }
    }
}

/// Return the gauge's high-water mark since the previous take (or since
/// creation) and reset the watermark to the current value. Returns the
/// current value for a gauge that was never pushed above it, and 0 for
/// an absent gauge. The watermark is global per name: concurrent takers
/// split the peaks between them.
pub fn gauge_peak_take(name: &str) -> i64 {
    let mut g = lock(&global().gauges);
    match g.get_mut(name) {
        Some(cell) => {
            let peak = cell.peak;
            cell.peak = cell.value;
            peak
        }
        None => 0,
    }
}

/// Remove a gauge (instance-keyed gauges call this from `Drop` so dead
/// instances don't clutter snapshots).
pub fn gauge_remove(name: &str) {
    lock(&global().gauges).remove(name);
}

/// Current value of a gauge straight from the registry (0 when absent).
pub fn gauge_value(name: &str) -> i64 {
    lock(&global().gauges).get(name).map_or(0, |c| c.value)
}

/// Process-unique id for instance-keyed gauge names
/// (`membudget.resident.hot#<id>`).
pub fn next_instance_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A merged, point-in-time view of the whole registry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    counters: BTreeMap<String, u64>,
    records: BTreeMap<String, Record>,
    gauges: BTreeMap<String, i64>,
}

impl Snapshot {
    /// Current value of a counter (0 when never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Aggregated statistics of a span name (zeroed when never opened).
    pub fn span_stats(&self, name: &str) -> SpanStats {
        self.records
            .get(name)
            .map(Record::stats)
            .unwrap_or_default()
    }

    /// Total nanoseconds spent inside a span name.
    pub fn nanos(&self, name: &str) -> u64 {
        self.span_stats(name).total_nanos
    }

    /// Current value of a gauge (0 when absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// Sum of every gauge whose key starts with `prefix` — the
    /// aggregate view over instance-keyed gauges.
    pub fn gauge_prefix_sum(&self, prefix: &str) -> i64 {
        self.gauges
            .iter()
            .filter(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }

    /// Iterate all counters (sorted by name).
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// Iterate the statistics of every recorded name (sorted by name;
    /// a [`hist_record`] value counts as one instance).
    pub fn spans(&self) -> impl Iterator<Item = (&str, SpanStats)> {
        self.records.iter().map(|(k, r)| (k.as_str(), r.stats()))
    }

    /// Iterate all records (sorted by name) — the one walk the
    /// exposition and the flight dump make.
    pub(crate) fn records(&self) -> impl Iterator<Item = (&str, &Record)> {
        self.records.iter().map(|(k, r)| (k.as_str(), r))
    }

    /// Iterate all gauges (sorted by name).
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(k, &v)| (k.as_str(), v))
    }

    /// The histogram recorded under `name` — every span key has one,
    /// and so has every [`hist_record`] name like `dist.wire`.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.records.get(name).map(|r| &r.hist)
    }

    /// p50/p90/p99/max of the named histogram, or `None` when nothing
    /// was recorded under that key (a snapshot holds no empty record).
    pub fn quantiles(&self, name: &str) -> Option<Quantiles> {
        self.histogram(name).map(Quantiles::from_hist)
    }

    /// Monotonic difference since `earlier`: counters, and each
    /// record's buckets, count, sum and bytes, subtract (min and max
    /// stay cumulative); gauges keep this snapshot's values (a gauge is
    /// a level, not a rate). Entries whose delta is zero are dropped.
    pub fn delta_since(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|(k, &v)| {
                let d = v.saturating_sub(earlier.counter(k));
                (d > 0).then(|| (k.clone(), d))
            })
            .collect();
        let records = self
            .records
            .iter()
            .filter_map(|(k, r)| {
                let d = match earlier.records.get(k) {
                    Some(e) => Record {
                        hist: r.hist.delta_since(&e.hist),
                        bytes: r.bytes.saturating_sub(e.bytes),
                    },
                    None => r.clone(),
                };
                (d.hist.count() > 0).then(|| (k.clone(), d))
            })
            .collect();
        Snapshot {
            counters,
            records,
            gauges: self.gauges.clone(),
        }
    }
}

/// Merge every live shard, the retired accumulator, and the gauge map
/// into one consistent [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let g = global();
    let mut agg = ShardData::default();
    {
        let shards = lock(&g.shards);
        agg.merge(&lock(&g.retired));
        for s in shards.iter() {
            agg.merge(&lock(s));
        }
    }
    let gauges = lock(&g.gauges)
        .iter()
        .map(|(k, c)| (k.clone(), c.value))
        .collect();
    fn owned<V>(m: HashMap<&'static str, V>) -> BTreeMap<String, V> {
        m.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
    }
    Snapshot {
        counters: owned(agg.counters),
        records: owned(agg.records),
        gauges,
    }
}
