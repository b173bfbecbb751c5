//! **Figure 11 (measured)** — larger batch under a fixed device-memory
//! capacity, as an *enforced* run instead of a capacity formula.
//!
//! `fig11_throughput` reproduces the paper's throughput curves with the
//! budget applied analytically (measure peak, divide capacity). This
//! binary closes the loop the paper actually ran: training executes with
//! a [`BudgetedStore`] whose arena **enforces** the activation budget —
//! hot entries demote to SZ-compressed, compressed entries evict to host,
//! prefetch decodes the next backward layer's activations on worker
//! threads — and every step asserts the bit-tracked resident peak stayed
//! within the budget. The baseline raw store is *checked* against the
//! same budget (it has no enforcement mechanism, which is the point): the
//! batch sizes where it overflows are exactly the region where only the
//! budgeted framework keeps training.
//!
//! A last row runs the smallest batch under
//! [`ColdPolicy::DropForRecompute`] at half its raw peak: every forward
//! drops payloads, and the step finishes through the gradient-checkpointing
//! fallback inside `train_step`. Its `step_peak` adds the checkpoints,
//! which live outside the store, to the store's peak.
//!
//! `--smoke` (also `EBTRAIN_SMOKE=1`): tiny net, tiny budget, one rep —
//! CI runs this on every push so the enforcement path stays exercised.

use ebtrain_bench::table::Table;
use ebtrain_bench::{env_f64, env_flag, env_usize, fmt_bytes};
use ebtrain_data::{SynthConfig, SynthImageNet};
use ebtrain_dnn::layer::CompressionPlan;
use ebtrain_dnn::layers::SoftmaxCrossEntropy;
use ebtrain_dnn::memsim::DeviceSpec;
use ebtrain_dnn::optimizer::{Sgd, SgdConfig};
use ebtrain_dnn::store::{ActivationStore, BudgetConfig, BudgetedStore, ColdPolicy, RawStore};
use ebtrain_dnn::train::train_step;
use ebtrain_dnn::zoo;
use std::time::Instant;

struct BudgetedPoint {
    /// Largest store residency of a step.
    peak: usize,
    /// Largest reported step peak: the store's, plus the checkpoints of
    /// a step that fell back to recompute.
    step_peak: usize,
    ips: f64,
    demotions: u64,
    evictions: u64,
    drops: u64,
    prefetch_hits: u64,
    ratio: f64,
}

fn measure_raw(data: &SynthImageNet, classes: usize, batch: usize, reps: usize) -> (usize, f64) {
    let mut net = zoo::tiny_vgg(classes, 7);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut store = RawStore::new();
    let plan = CompressionPlan::new();
    let (x, labels) = data.batch(0, batch);
    let r = train_step(
        &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
    )
    .expect("raw step");
    let peak = r.peak_store_bytes;
    let t0 = Instant::now();
    for i in 0..reps {
        let (x, labels) = data.batch((i * batch) as u64 + 500, batch);
        train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .expect("raw step");
    }
    (peak, (reps * batch) as f64 / t0.elapsed().as_secs_f64())
}

fn measure_budgeted(
    data: &SynthImageNet,
    classes: usize,
    batch: usize,
    reps: usize,
    store_budget: usize,
    cold: ColdPolicy,
) -> BudgetedPoint {
    let mut net = zoo::tiny_vgg(classes, 7);
    let head = SoftmaxCrossEntropy::new();
    let mut opt = Sgd::new(SgdConfig::default());
    let mut cfg = BudgetConfig::with_budget(store_budget);
    cfg.bound = ebtrain_dnn::store::BoundSpec::Abs(env_f64("EBTRAIN_EB", 1e-3) as f32);
    cfg.cold = cold;
    let mut store = BudgetedStore::new(cfg, Box::new(ebtrain_dnn::store::FarthestNextUse));
    let plan = CompressionPlan::new();
    let (mut peak, mut step_peak) = (0usize, 0usize);
    // Warmup step outside the timed window, mirroring measure_raw, so
    // the img/s columns are methodologically comparable.
    let mut t0 = Instant::now();
    for i in 0..=reps {
        let (x, labels) = data.batch((i * batch) as u64, batch);
        let r = train_step(
            &mut net, &head, &mut opt, &mut store, &plan, x, &labels, false,
        )
        .expect("budgeted step");
        // The acceptance gate: the *enforced* peak every single step (a
        // recompute fallback's last segment; the arena's tripwire below
        // covers its earlier ones).
        assert!(
            store.peak_bytes() <= store_budget,
            "batch {batch}: step {i} peak {} exceeded budget {store_budget}",
            store.peak_bytes()
        );
        peak = peak.max(store.peak_bytes());
        step_peak = step_peak.max(r.peak_store_bytes);
        if i == 0 {
            t0 = Instant::now();
        }
    }
    let ips = (reps * batch) as f64 / t0.elapsed().as_secs_f64();
    let am = store.arena_metrics();
    assert_eq!(am.over_budget_events, 0, "arena over-budget tripwire");
    // The codec ratio actually achieved under pressure (raw vs emitted
    // bytes of everything the arena demoted). StoreMetrics' stored
    // bytes are save-time residency — mostly Hot under this workload —
    // so they would understate what the warm tier did.
    let ratio = if am.bytes_compressed_out > 0 {
        am.bytes_compressed_raw as f64 / am.bytes_compressed_out as f64
    } else {
        1.0
    };
    BudgetedPoint {
        peak,
        step_peak,
        ips,
        demotions: am.demotions,
        evictions: am.evictions_host,
        drops: am.drops,
        prefetch_hits: am.prefetch_hits,
        ratio,
    }
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke") || env_flag("EBTRAIN_SMOKE");
    // tiny_vgg is built for 32x32 inputs; smoke shrinks everything else.
    let image_hw = 32usize;
    let (classes, batches, reps): (usize, Vec<usize>, usize) = if smoke {
        (4, vec![2, 4], 1)
    } else {
        (10, vec![4, 8, 16, 32, 64], env_usize("EBTRAIN_REPS", 2))
    };
    let data = SynthImageNet::new(SynthConfig {
        classes,
        image_hw,
        noise: 0.2,
        seed: 31,
    });
    // The DeviceSpec capacity covers params + workspace + activations;
    // the store budget is what remains for the activation set. Smoke mode
    // self-scales: half the smallest batch's raw peak, so enforcement is
    // guaranteed to engage on a CI-class machine in seconds.
    let weights3 = zoo::tiny_vgg(classes, 7).weight_bytes() * 3;
    let workspace = 64 << 10;
    let half_first_raw = (measure_raw(&data, classes, batches[0], 1).0 / 2).max(1);
    let store_budget = if smoke {
        half_first_raw
    } else {
        let budget_mib = env_f64("EBTRAIN_BUDGET_MIB", 6.0);
        let capacity = (budget_mib * (1 << 20) as f64) as usize;
        capacity.saturating_sub(weights3 + workspace).max(1)
    };
    let device = DeviceSpec {
        name: "sim-device".into(),
        capacity_bytes: store_budget + weights3 + workspace,
    };
    println!(
        "fig11_budgeted_batch{}: tiny-vgg/{image_hw}px, device {} => activation budget {} \
         (params*3 {} + workspace {})",
        if smoke { " [smoke]" } else { "" },
        fmt_bytes(device.capacity_bytes as u64),
        fmt_bytes(store_budget as u64),
        fmt_bytes(weights3 as u64),
        fmt_bytes(workspace as u64),
    );

    let mut table = Table::new(&[
        "batch",
        "raw_peak",
        "raw_fits",
        "raw_img/s",
        "cold",
        "budget_peak",
        "enforced<=budget",
        "step_peak",
        "demote_ratio",
        "demote/evict/drop",
        "prefetch_hits",
        "budget_img/s",
    ]);
    let mut raw_max_batch = None;
    let mut budget_max_batch = None;
    let mut row = |b: usize, budget: usize, cold: ColdPolicy| {
        let (raw_peak, raw_ips) = measure_raw(&data, classes, b, reps);
        let p = measure_budgeted(&data, classes, b, reps, budget, cold);
        table.row(vec![
            format!("{b}"),
            fmt_bytes(raw_peak as u64),
            format!("{}", (raw_peak <= budget) as u8),
            format!("{raw_ips:.1}"),
            format!("{cold:?}"),
            fmt_bytes(p.peak as u64),
            "yes".into(),
            fmt_bytes(p.step_peak as u64),
            format!("{:.1}x", p.ratio),
            format!("{}/{}/{}", p.demotions, p.evictions, p.drops),
            format!("{}", p.prefetch_hits),
            format!("{:.1}", p.ips),
        ]);
        (raw_peak, p)
    };
    for &b in &batches {
        eprintln!("[fig11b] batch {b} ...");
        let (raw_peak, _) = row(b, store_budget, ColdPolicy::HostMigrate);
        if raw_peak <= store_budget {
            raw_max_batch = Some(b);
        }
        budget_max_batch = Some(b); // asserted: every step stayed in budget
    }
    // The recompute fallback: half the smallest batch's raw peak, which
    // its forward overflows even compressed, so every step drops payloads
    // and finishes by gradient checkpointing, whose segments fit.
    eprintln!("[fig11b] batch {}, drop-for-recompute ...", batches[0]);
    let (_, p) = row(batches[0], half_first_raw, ColdPolicy::DropForRecompute);
    assert!(p.drops > 0, "drop row: no step fell back to recompute");
    table.print("Fig 11 (measured): batch growth under an enforced activation budget");

    println!("\nmax batch within {}:", fmt_bytes(store_budget as u64));
    println!(
        "  raw store (checked)      : {}",
        raw_max_batch.map_or("none".into(), |b| b.to_string())
    );
    println!(
        "  budgeted store (enforced): {} ({})",
        budget_max_batch.map_or("none".into(), |b| b.to_string()),
        match (raw_max_batch, budget_max_batch) {
            (Some(r), Some(c)) if c > r => format!("{:.1}x larger", c as f64 / r as f64),
            (None, Some(_)) => "raw OOMs at every measured batch".into(),
            _ => "no headroom at these sizes".into(),
        }
    );
    // The paper's Fig 11 claim, now measured: the budgeted framework
    // trains at batch sizes whose raw activation set overflows the same
    // capacity, with resident bytes provably within budget every step.
    if let Some(bm) = budget_max_batch {
        if raw_max_batch.is_none_or(|r| bm > r) {
            println!(
                "\nOK: budget enforcement extended the feasible batch past the raw \
                 store's memory cliff."
            );
        } else {
            println!(
                "\nNOTE: budget large enough that the raw store also fits every \
                 measured batch; lower EBTRAIN_BUDGET_MIB to see the cliff."
            );
        }
    }
}
