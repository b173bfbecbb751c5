//! Frozen arena outputs: one fixed call script under three
//! policy/cold-tier configurations, pinning every residency level, the
//! count-valued counters and the bits of every value read back. A
//! representation change that keeps these equal kept every budget
//! charge, tier, counter and byte.

use ebtrain_codec::BoundSpec;
use ebtrain_membudget::{
    ArenaMetrics, BudgetConfig, BudgetedArena, ColdPolicy, EvictionPolicy, FarthestNextUse,
    Fetched, Lru, MembudgetError, Tier,
};
use ebtrain_sz::DataLayout;

const SIDE: usize = 32;
const N: usize = SIDE * SIDE;
/// Room for three raw volumes.
const BUDGET: usize = 3 * N * 4;

/// Smooth volume with a seed-dependent phase and a little LCG noise,
/// so demotion compresses it well but not trivially.
fn volume(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed.wrapping_mul(2_654_435_761).wrapping_add(1);
    (0..n)
        .map(|i| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            let noise = (s >> 8) as f32 / (1u32 << 24) as f32 - 0.5;
            ((i as f32 + seed as f32 * 7.0) * 0.02).sin() + 0.01 * noise
        })
        .collect()
}

/// Uniform noise in [-1, 1): barely compressible at a tight bound.
fn noise(n: usize, seed: u32) -> Vec<f32> {
    let mut s = seed ^ 0x9E37_79B9;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
            (s >> 8) as f32 / (1u32 << 23) as f32 - 1.0
        })
        .collect()
}

/// FNV-1a over 64-bit words.
fn fnv(h: u64, words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .fold(h, |h, w| (h ^ w).wrapping_mul(0x100_0000_01b3))
}

struct Script {
    arena: BudgetedArena<u32>,
    /// One `"<tier> <resident> <peak>"` line per call.
    levels: Vec<String>,
    /// FNV-1a of every value (or error kind) read back, in order.
    read: u64,
}

impl Script {
    fn note(&mut self, key: u32) {
        let tier = match self.arena.tier_of(key) {
            Some(Tier::Hot) => "H",
            Some(Tier::Warm) => "W",
            Some(Tier::Cold) => "C",
            Some(Tier::Dropped) => "D",
            None => "-",
        };
        self.levels.push(format!(
            "{tier} {} {}",
            self.arena.resident_bytes(),
            self.arena.peak_resident_bytes()
        ));
    }

    fn read_back(&mut self, r: Result<Fetched, MembudgetError>) {
        let words: Vec<u64> = match r {
            Ok(Fetched::F32(v)) => v.iter().map(|x| x.to_bits() as u64).collect(),
            Ok(Fetched::Bytes(b)) => b.iter().map(|&x| x as u64 | 1 << 40).collect(),
            Err(MembudgetError::Missing) => vec![u64::MAX],
            Err(MembudgetError::Dropped) => vec![u64::MAX - 1],
            Err(MembudgetError::Codec(_)) => vec![u64::MAX - 2],
        };
        self.read = fnv(self.read, words);
    }

    fn insert(&mut self, key: u32, data: Vec<f32>, bound: Option<BoundSpec>) {
        let layout = DataLayout::D2(data.len() / SIDE, SIDE);
        let tier = self.arena.insert_f32_with(key, data, layout, bound, None);
        self.read = fnv(self.read, [tier as u64]);
        self.note(key);
    }

    fn insert_bytes(&mut self, key: u32, len: usize) {
        let tier = self.arena.insert_bytes(key, vec![key as u8 ^ 0x5A; len]);
        self.read = fnv(self.read, [tier as u64]);
        self.note(key);
    }

    fn fetch_planes(&mut self, key: u32, planes: std::ops::Range<usize>) {
        let r = self.arena.fetch_planes(key, planes).map(Fetched::F32);
        self.read_back(r);
        self.note(key);
    }

    fn load(&mut self, key: u32) {
        let r = self.arena.load(key);
        self.read_back(r);
        self.note(key);
    }

    /// First key in `0..20` whose tier is one of `tiers`.
    fn first_in(&self, tiers: &[Tier]) -> Option<u32> {
        (0..20).find(|&k| self.arena.tier_of(k).is_some_and(|t| tiers.contains(&t)))
    }
}

/// What one run of [`run`] observes.
#[derive(Debug, PartialEq)]
struct Frozen {
    levels: Vec<String>,
    /// `ArenaMetrics` without the wall-clock codec timers, in field order.
    counts: [u64; 17],
    read: u64,
}

fn counts(m: &ArenaMetrics) -> [u64; 17] {
    [
        m.inserts,
        m.loads,
        m.demotions,
        m.evictions_host,
        m.drops,
        m.prefetch_issued,
        m.prefetch_hits,
        m.hot_hits,
        m.warm_hits,
        m.host_hits,
        m.transfer_nanos,
        m.bytes_compressed_raw,
        m.bytes_compressed_out,
        m.over_budget_events,
        m.partial_fetches,
        m.partial_bytes_decoded,
        m.partial_bytes_total,
    ]
}

fn run(policy: Box<dyn EvictionPolicy>, cold: ColdPolicy, prefetch_depth: usize) -> Frozen {
    let mut cfg = BudgetConfig::with_budget(BUDGET);
    cfg.cold = cold;
    cfg.prefetch_depth = prefetch_depth;
    let mut s = Script {
        arena: BudgetedArena::new(cfg, policy),
        levels: Vec::new(),
        read: 0xcbf2_9ce4_8422_2325,
    };
    let eb = Some(BoundSpec::Abs(1e-2));

    // A previous backward's schedule is live during the next forward.
    s.arena.set_schedule(vec![0, 1, 3, 4, 6, 8]);
    s.note(0);
    // Forward-shaped saves under pressure: floats and byte payloads.
    s.insert(0, volume(N, 0), eb);
    s.insert(1, volume(N, 1), eb);
    s.insert_bytes(2, 1000);
    // Larger than the budget and refused by the codec: the raw payload
    // takes the cold path.
    s.insert(7, volume(4 * N, 7), Some(BoundSpec::Lossless));
    s.insert(3, volume(N, 3), None);
    s.insert(4, noise(N, 4), Some(BoundSpec::Abs(1e-4)));
    // Noise under a bound this tight inflates: stepping it down sends
    // the raw payload cold instead of keeping the larger stream.
    s.insert(11, noise(N, 11), Some(BoundSpec::Abs(1e-9)));
    s.insert_bytes(5, 3000);
    s.insert(6, volume(N, 6), eb);
    // A replacement of a live key.
    s.insert(1, volume(N, 11), eb);
    s.insert(8, volume(N, 8), eb);

    // Plane fetches on a warm entry, an off-device entry and bytes.
    let warm = s.first_in(&[Tier::Warm]).expect("a warm entry");
    s.fetch_planes(warm, 8..24);
    let off = s
        .first_in(&[Tier::Cold, Tier::Dropped])
        .expect("an off-device entry");
    s.fetch_planes(off, 0..SIDE);
    s.fetch_planes(2, 0..1);

    let live: Vec<u32> = (0..20).filter(|&k| s.arena.tier_of(k).is_some()).collect();
    s.arena.set_schedule(live.iter().rev().copied().collect());
    s.note(live[0]);
    let freed = s.arena.reclaim_to(BUDGET / 3);
    s.read = fnv(s.read, [freed as u64]);
    s.note(live[0]);
    let renamed = s.arena.rename(6, 12);
    s.read = fnv(s.read, [renamed as u64]);
    s.note(12);
    s.arena.remove(3);
    s.note(3);

    // Backward-shaped reverse loads: prefetch runs ahead of each load.
    s.load(8);
    s.load(1);
    // An in-flight prefetch is charged for its source and its result.
    let flying = (0..20)
        .find(|&k| s.arena.resident_of(k).is_some_and(|r| r > N * 4))
        .expect("a prefetch in flight");
    s.fetch_planes(flying, 0..4);
    s.load(12);
    // Over the budget, with prefetches pinned: lands compressed.
    s.insert(9, volume(5 * N, 9), eb);
    // Over the budget and barely compressible: leaves the device
    // compressed.
    s.insert(10, noise(5 * N, 10), Some(BoundSpec::Abs(1e-5)));
    s.fetch_planes(10, 40..80);
    for k in [7, 5, 4, 2, 0, 9, 10, 13] {
        s.load(k);
    }
    Frozen {
        levels: s.levels,
        counts: counts(&s.arena.metrics()),
        read: s.read,
    }
}

fn check(got: Frozen, levels: &[&str], counts: [u64; 17], read: u64) {
    let want = Frozen {
        levels: levels.iter().map(|l| l.to_string()).collect(),
        counts,
        read,
    };
    assert_eq!(got, want, "\nlevels: {:#?}", got.levels);
}

#[test]
fn lru_host_migrate_script_is_frozen() {
    check(
        run(Box::new(Lru), ColdPolicy::HostMigrate, 2),
        &[
            "- 0 0",
            "H 4096 4096",
            "H 8192 8192",
            "H 9192 9192",
            "C 0 9192",
            "H 4096 9192",
            "H 8192 9192",
            "H 12288 12288",
            "H 11865 12288",
            "H 9688 12288",
            "H 10784 12288",
            "H 11068 12288",
            "W 11068 12288",
            "C 11068 12288",
            "C 11068 12288",
            "C 11068 12288",
            "C 3439 12288",
            "W 3439 12288",
            "- 2766 12288",
            "- 10680 12288",
            "- 6299 12288",
            "H 4380 12288",
            "- 4096 12288",
            "W 1330 12288",
            "C 0 12288",
            "C 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
        ],
        [
            13, 10, 9, 9, 0, 2, 2, 1, 3, 9, 9416, 77824, 34906, 0, 3, 18105, 22573,
        ],
        0x82a3_f3a8_998c_4706,
    );
}

#[test]
fn farthest_next_use_host_migrate_script_is_frozen() {
    check(
        run(Box::new(FarthestNextUse), ColdPolicy::HostMigrate, 2),
        &[
            "- 0 0",
            "H 4096 4096",
            "H 8192 8192",
            "H 9192 9192",
            "C 0 9192",
            "H 4096 9192",
            "H 8192 9192",
            "H 12288 12288",
            "H 11192 12288",
            "H 12288 12288",
            "H 10395 12288",
            "H 11068 12288",
            "W 11068 12288",
            "C 11068 12288",
            "C 11068 12288",
            "C 11068 12288",
            "C 3439 12288",
            "W 3439 12288",
            "- 2766 12288",
            "- 10680 12288",
            "- 6299 12288",
            "H 4380 12288",
            "- 4096 12288",
            "W 1330 12288",
            "C 0 12288",
            "C 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
        ],
        [
            13, 10, 9, 9, 0, 2, 2, 1, 3, 9, 9416, 77824, 34906, 0, 3, 18105, 22573,
        ],
        0x82a3_f3a8_998c_4706,
    );
}

#[test]
fn lru_drop_for_recompute_script_is_frozen() {
    check(
        run(Box::new(Lru), ColdPolicy::DropForRecompute, 2),
        &[
            "- 0 0",
            "H 4096 4096",
            "H 8192 8192",
            "H 9192 9192",
            "D 0 9192",
            "H 4096 9192",
            "H 8192 9192",
            "H 12288 12288",
            "H 11865 12288",
            "H 9688 12288",
            "H 10784 12288",
            "H 11068 12288",
            "W 11068 12288",
            "D 11068 12288",
            "D 11068 12288",
            "D 11068 12288",
            "D 3439 12288",
            "W 3439 12288",
            "- 2766 12288",
            "- 10680 12288",
            "- 6299 12288",
            "H 4380 12288",
            "- 4096 12288",
            "W 1330 12288",
            "D 0 12288",
            "D 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
            "- 0 12288",
        ],
        [
            13, 10, 9, 0, 9, 2, 2, 1, 3, 0, 0, 77824, 34906, 0, 1, 646, 646,
        ],
        0x44e3_1c62_ca2a_485b,
    );
}
