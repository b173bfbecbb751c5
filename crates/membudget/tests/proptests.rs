//! Property tests for the arena's one load-bearing invariant: resident
//! bytes never exceed the budget at any point in a training-step-shaped
//! call sequence — regardless of payload mix, policy, cold tier, budget
//! tightness or schedule.

use ebtrain_codec::{BoundSpec, Codec, SzCodec};
use ebtrain_membudget::{
    BudgetConfig, BudgetedArena, ColdPolicy, FarthestNextUse, Fetched, Lru, MembudgetError,
};
use ebtrain_sz::DataLayout;
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Device-charged bytes the registry currently reports for one arena
/// (its instance-keyed hot + warm residency gauges).
fn obs_device_bytes(obs_id: u64) -> i64 {
    let s = ebtrain_obs::snapshot();
    s.gauge(&format!("membudget.resident.hot#{obs_id}"))
        + s.gauge(&format!("membudget.resident.warm#{obs_id}"))
}

fn run_step(
    budget: usize,
    n_slots: usize,
    elems: Vec<usize>,
    seed: u64,
    lru: bool,
    drop_cold: bool,
    prefetch: usize,
) {
    // The budget invariant is also asserted from the registry side, so
    // metric recording must be on even if the environment disabled it.
    ebtrain_obs::set_metrics_enabled(true);
    let mut cfg = BudgetConfig::with_budget(budget);
    cfg.prefetch_depth = prefetch;
    cfg.cold = if drop_cold {
        ColdPolicy::DropForRecompute
    } else {
        ColdPolicy::HostMigrate
    };
    cfg.bound = BoundSpec::Abs(1e-2);
    let mut arena: BudgetedArena<usize> = if lru {
        BudgetedArena::new(cfg, Box::new(Lru))
    } else {
        BudgetedArena::new(cfg, Box::new(FarthestNextUse))
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // Forward phase: save one payload per slot (a few byte payloads mixed
    // in, like masks, and a few streams kept beside their decode, like
    // the serve store path).
    let codec: Arc<dyn Codec> = Arc::new(SzCodec::dual_quant());
    let mut originals: Vec<Option<Vec<f32>>> = Vec::new();
    for (slot, &n) in elems.iter().take(n_slots).enumerate() {
        if slot % 5 == 4 {
            arena.insert_bytes(slot, vec![slot as u8; n.max(1)]);
            originals.push(None);
        } else {
            let data: Vec<f32> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.4) {
                        0.0
                    } else {
                        rng.gen_range(-2.0f32..2.0)
                    }
                })
                .collect();
            if slot % 5 == 2 {
                let stream = codec
                    .compress(&data, DataLayout::D1(n), &BoundSpec::Abs(1e-2))
                    .unwrap();
                let values = codec.decompress(&stream).unwrap();
                let codec = Arc::clone(&codec);
                arena.insert_stream(slot, values, stream, DataLayout::D1(n), codec);
            } else {
                arena.insert_f32(slot, data.clone(), DataLayout::D1(n), None);
            }
            originals.push(Some(data));
        }
        prop_assert!(
            arena.peak_resident_bytes() <= arena.budget_bytes(),
            "peak {} > budget {} during forward (slot {slot})",
            arena.peak_resident_bytes(),
            arena.budget_bytes()
        );
        // Same invariant as seen through the metrics registry: the
        // hot+warm residency gauges never exceed the budget either.
        let published = obs_device_bytes(arena.obs_id());
        prop_assert!(
            published <= arena.budget_bytes() as i64,
            "registry hot+warm {published} > budget {} during forward (slot {slot})",
            arena.budget_bytes()
        );
    }

    // Backward phase: loads in reverse save order, schedule declared.
    let schedule: Vec<usize> = (0..n_slots).rev().collect();
    arena.set_schedule(schedule.clone());
    for &slot in &schedule {
        match arena.load(slot) {
            Ok(Fetched::F32(v)) => {
                let orig = originals[slot].as_ref().expect("f32 slot");
                prop_assert_eq!(v.len(), orig.len());
                for (x, y) in orig.iter().zip(&v) {
                    // with_budget default has the zero filter on: 2eb
                    // contract for small values, eb elsewhere.
                    prop_assert!((x - y).abs() <= 2.0 * 1e-2 + 1e-6);
                }
            }
            Ok(Fetched::Bytes(b)) => {
                prop_assert!(originals[slot].is_none());
                prop_assert!(b.iter().all(|&x| x == slot as u8));
            }
            Err(MembudgetError::Dropped) => prop_assert!(drop_cold, "drop without drop policy"),
            Err(e) => panic!("unexpected load error: {e}"),
        }
        prop_assert!(
            arena.peak_resident_bytes() <= arena.budget_bytes(),
            "peak {} > budget {} during backward (slot {slot})",
            arena.peak_resident_bytes(),
            arena.budget_bytes()
        );
        let published = obs_device_bytes(arena.obs_id());
        prop_assert!(
            published <= arena.budget_bytes() as i64,
            "registry hot+warm {published} > budget {} during backward (slot {slot})",
            arena.budget_bytes()
        );
    }
    prop_assert!(arena.is_empty());
    prop_assert_eq!(obs_device_bytes(arena.obs_id()), 0);
    prop_assert_eq!(arena.resident_bytes(), 0);
    prop_assert_eq!(arena.metrics().over_budget_events, 0);
    // Host tier never drops; drop tier only under pressure.
    if !drop_cold {
        prop_assert_eq!(arena.metrics().drops, 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn resident_bytes_never_exceed_budget(
        budget_kib in 1usize..64,
        n_slots in 1usize..12,
        elems in prop::collection::vec(16usize..6000, 12..13),
        seed in any::<u64>(),
        lru in any::<bool>(),
        drop_cold in any::<bool>(),
        prefetch in 0usize..4,
    ) {
        run_step(budget_kib << 10, n_slots, elems, seed, lru, drop_cold, prefetch);
    }

    #[test]
    fn interleaved_reloads_hold_the_invariant(
        budget_kib in 1usize..32,
        seed in any::<u64>(),
    ) {
        // Checkpointed-training shape: several small save/load rounds
        // reusing slot ids against one arena.
        let mut cfg = BudgetConfig::with_budget(budget_kib << 10);
        cfg.bound = BoundSpec::Abs(1e-2);
        let mut arena: BudgetedArena<usize> = BudgetedArena::new(cfg, Box::new(Lru));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for _round in 0..4 {
            let slots = rng.gen_range(1..6usize);
            for s in 0..slots {
                let n = rng.gen_range(64..4000usize);
                let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
                arena.insert_f32(s, data, DataLayout::D1(n), Some(1e-2));
                prop_assert!(arena.peak_resident_bytes() <= arena.budget_bytes());
            }
            for s in (0..slots).rev() {
                let _ = arena.load(s);
                prop_assert!(arena.peak_resident_bytes() <= arena.budget_bytes());
            }
            prop_assert_eq!(arena.resident_bytes(), 0);
        }
    }
}
