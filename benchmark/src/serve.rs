//! `serve_mixed_c1`: writes beside reads on one tenant arena.
//!
//! An in-process `ServeDaemon` with two workers, one closed-loop client
//! on the main thread, one tenant. The working set — 16 keys of 1 MiB
//! raw each — is twice the tenant's 8 MiB budget, so every store forces
//! the arena to demote or re-encode something a later fetch needs. Each
//! step is the script `store_stream, fetch, fetch, fetch_planes(¼)` over
//! seeded keys; the SZ streams are compressed in set-up, so no
//! client-side codec time lands in a step.
//!
//! The baseline arm runs the same script against a daemon whose tenant
//! budget holds the whole set raw: nothing is ever compressed at rest.
//! `slowdown_x` is what living under half the memory costs a step, and
//! `mem_saving_x` is what it buys.
//!
//! One client, because with two cores any second client measures
//! oversubscription; lock and queue waits are out of scope until more
//! cores exist.

use crate::harness::{median, ms_since, percentile, timed_set_up, Outcome, Scale, MIB};
use crate::probes::{self, Corpus, CorpusTensor};
use crate::trace::Tracer;
use ebtrain_codec::{BoundSpec, Codec, CodecRegistry, ErrorContract, SzCodec, TaggedStream};
use ebtrain_data::fields::{FieldConfig, SyntheticFields};
use ebtrain_serve::{
    ClientError, ColdPolicy, DataLayout, ErrorCode, ServeClient, ServeConfig, ServeDaemon,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

pub const NAME: &str = "serve_mixed_c1";
const KEYS: usize = 16;
const PLANES: usize = 256;
const PLANE_ELEMS: usize = 1024;
const LAYOUT: DataLayout = DataLayout::D2(PLANES, PLANE_ELEMS);
const RAW_BYTES: usize = PLANES * PLANE_ELEMS * 4;
/// Half the working set.
const BUDGET_BYTES: usize = KEYS * RAW_BYTES / 2;
/// The baseline tenant holds everything raw with room to spare.
const RAW_ARM_BUDGET_BYTES: usize = KEYS * RAW_BYTES * 2;
const EB: f32 = 1e-3;
const TENANT: u32 = 1;
/// Script length; the window cycles through it.
const SCRIPT_STEPS: usize = 4096;

/// One step of the script: the key of each RPC and where the plane
/// range starts.
struct Step {
    store: usize,
    fetch: [usize; 2],
    planes_key: usize,
    planes_start: usize,
}

/// Everything the program is fed, made from the seed in set-up.
struct Inputs {
    tensors: Vec<Vec<f32>>,
    streams: Vec<TaggedStream>,
    script: Vec<Step>,
    /// Milliseconds to generate one tensor (`data.batch_ms`).
    gen_ms: f64,
}

fn generate(seed: u64) -> Result<Inputs, String> {
    // ReLU-sparse smooth fields: what a stored activation looks like.
    // The generator is part of the workload; the seed picks which of its
    // samples this run stores.
    let fields = SyntheticFields::new(FieldConfig {
        size: 512,
        modes: 12,
        ..FieldConfig::default()
    });
    let first = (seed % (1 << 32)) * KEYS as u64;
    let t = Instant::now();
    let tensors: Vec<Vec<f32>> = (0..KEYS as u64)
        .map(|k| {
            let (field, _) = fields.sample(first + k);
            field.into_iter().map(|v| v.max(0.0)).collect()
        })
        .collect();
    let gen_ms = ms_since(t) / KEYS as f64;
    let streams = tensors
        .iter()
        .map(|t| SzCodec::classic().compress(t, LAYOUT, &BoundSpec::Abs(EB)))
        .collect::<Result<_, _>>()
        .map_err(|e| e.to_string())?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x005C_2197);
    let mut key = || rng.gen_range(0..KEYS);
    let script = (0..SCRIPT_STEPS)
        .map(|_| Step {
            store: key(),
            fetch: [key(), key()],
            planes_key: key(),
            planes_start: (key() % 4) * (PLANES / 4),
        })
        .collect();
    Ok(Inputs {
        tensors,
        streams,
        script,
        gen_ms,
    })
}

/// Largest |x − x̂| a fetch may show: the client-side stream's bound plus
/// the bound of the arena's at-rest demotion, each by its codec's
/// contract.
fn tolerance() -> f32 {
    let by_contract = |codec: &SzCodec| match codec.contract() {
        ErrorContract::AbsoluteZeroSnap => 2.0 * EB,
        _ => EB,
    };
    // Both the client and `BudgetConfig`'s default demote with `classic`.
    2.0 * by_contract(&SzCodec::classic()) + 1e-6
}

/// A daemon and its one client.
struct Side {
    daemon: ServeDaemon,
    client: ServeClient,
    busy: u64,
    over_budget: u64,
}

impl Side {
    fn spawn(tenant_budget_bytes: usize) -> Result<Side, String> {
        let daemon = ServeDaemon::spawn(ServeConfig {
            workers: 2,
            tenant_budget_bytes,
            max_resident_bytes: 2 * tenant_budget_bytes,
            cold: ColdPolicy::HostMigrate,
            bound: BoundSpec::Abs(EB),
            ..ServeConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let client = ServeClient::connect(daemon.addr()).map_err(|e| e.to_string())?;
        Ok(Side {
            daemon,
            client,
            busy: 0,
            over_budget: 0,
        })
    }

    fn shutdown(self) {
        drop(self.client);
        self.daemon.shutdown();
    }

    fn note<T>(&mut self, r: &Result<T, ClientError>) {
        match r.as_ref().err().and_then(ClientError::server_code) {
            Some(ErrorCode::Busy) => self.busy += 1,
            Some(ErrorCode::OverBudget) => self.over_budget += 1,
            _ => {}
        }
    }

    fn store(&mut self, inputs: &Inputs, key: usize) -> Result<(), ClientError> {
        let r = self
            .client
            .store_stream(TENANT, key as u64, LAYOUT, EB, &inputs.streams[key])
            .map(drop);
        self.note(&r);
        r
    }

    /// One step of the script. The four RPCs are the timed part (and the
    /// spans); their results are checked after the step's span closed.
    /// Returns the step's wall time in ms.
    fn step(
        &mut self,
        inputs: &Inputs,
        step: &Step,
        tracer: &mut Tracer,
        out: &mut Outcome,
    ) -> Option<f64> {
        let t = Instant::now();
        let whole = tracer.open("step");
        let o = tracer.open("serve.store");
        let stored = self.store(inputs, step.store);
        tracer.close(o);
        let fetched = step.fetch.map(|key| {
            let o = tracer.open("serve.fetch");
            let r = self.client.fetch(TENANT, key as u64);
            tracer.close(o);
            r
        });
        let o = tracer.open("serve.fetch_planes");
        let range = step.planes_start..step.planes_start + PLANES / 4;
        let planes = self
            .client
            .fetch_planes(TENANT, step.planes_key as u64, range.clone());
        tracer.close(o);
        tracer.close(whole);
        let ms = ms_since(t);

        let tol = tolerance();
        let close = |got: &[f32], want: &[f32]| {
            got.len() == want.len() && got.iter().zip(want).all(|(a, b)| (a - b).abs() <= tol)
        };
        let mut ok = out.op("store", stored).is_some();
        for (key, r) in step.fetch.iter().zip(fetched) {
            self.note(&r);
            match out.op("fetch", r) {
                Some((vals, layout)) => out.check(
                    layout == LAYOUT && close(&vals, &inputs.tensors[*key]),
                    || format!("fetch of key {key} is outside the error bound"),
                ),
                None => ok = false,
            }
        }
        self.note(&planes);
        match out.op("fetch_planes", planes) {
            Some(vals) => {
                let want = &inputs.tensors[step.planes_key]
                    [range.start * PLANE_ELEMS..range.end * PLANE_ELEMS];
                out.check(close(&vals, want), || {
                    format!(
                        "fetch_planes of key {} is outside the error bound",
                        step.planes_key
                    )
                })
            }
            None => ok = false,
        }
        ok.then_some(ms)
    }
}

struct Ready {
    inputs: Inputs,
    pressed: Side,
    raw: Side,
}

impl Ready {
    fn shutdown(self) {
        self.pressed.shutdown();
        self.raw.shutdown();
    }
}

/// Inputs, daemons, every key stored once, and the warm-up steps.
fn set_up(seed: u64, scale: &Scale, out: &mut Outcome) -> Result<Ready, String> {
    let inputs = generate(seed)?;
    let mut ready = Ready {
        inputs,
        pressed: Side::spawn(BUDGET_BYTES)?,
        raw: Side::spawn(RAW_ARM_BUDGET_BYTES)?,
    };
    let mut off = Tracer::new();
    for key in 0..KEYS {
        out.op("populate", ready.pressed.store(&ready.inputs, key));
        out.op("populate", ready.raw.store(&ready.inputs, key));
    }
    for step in &ready.inputs.script[..scale.warmup] {
        ready.raw.step(&ready.inputs, step, &mut off, out);
        ready.pressed.step(&ready.inputs, step, &mut off, out);
    }
    Ok(ready)
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (ready, setup_s) = timed_set_up(
        scale.setup_reps,
        || set_up(seed, scale, &mut out),
        Ready::shutdown,
    )?;
    let Ready {
        inputs,
        mut pressed,
        mut raw,
    } = ready;

    let mut off = Tracer::new();
    let (mut raw_ms, mut pressed_ms, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut at_prefix = None;
    let (mut live_raw, mut resident) = (0u64, 0u64);
    let window = Instant::now();
    let mut i = 0;
    while scale.more(window, i) {
        let step = &inputs.script[(scale.warmup + i) % SCRIPT_STEPS];
        let r = raw.step(&inputs, step, &mut off, &mut out);
        let p = pressed.step(&inputs, step, &mut off, &mut out);
        i += 1;
        if let (Some(r), Some(p)) = (r, p) {
            raw_ms.push(r);
            pressed_ms.push(p);
            ratios.push(p / r);
        }
        // Byte-valued metrics over a fixed step count: exact for one
        // seed. Residency is read after every step (in process, outside
        // the timed RPCs), so `ratio_x` is a mean and not a snapshot.
        if i <= scale.prefix {
            let now = pressed.daemon.tenant_stats(TENANT);
            live_raw += now.map_or(0, |s| s.raw_bytes);
            resident += now.map_or(0, |s| s.resident_bytes);
            if i == scale.prefix {
                at_prefix = now.zip(raw.daemon.tenant_stats(TENANT));
            }
        }
    }
    let (stats, raw_stats) = at_prefix.ok_or("no tenant stats at the fixed prefix")?;
    pressed.shutdown();
    raw.shutdown();
    if pressed_ms.is_empty() {
        return Err(format!("no step succeeded: {:?}", out.notes));
    }
    out.check(stats.peak_resident_bytes <= stats.budget_bytes, || {
        format!(
            "tenant peak {} exceeded its budget {}",
            stats.peak_resident_bytes, stats.budget_bytes
        )
    });

    out.put("setup_s", setup_s);
    out.put("step_ms", median(&pressed_ms));
    out.put("raw_step_ms", median(&raw_ms));
    out.put("slowdown_x", median(&ratios));
    out.put("peak_store_mib", stats.peak_resident_bytes as f64 / MIB);
    out.put(
        "mem_saving_x",
        raw_stats.peak_resident_bytes as f64 / stats.peak_resident_bytes.max(1) as f64,
    );
    out.put("ratio_x", live_raw as f64 / resident.max(1) as f64);
    eprintln!("[{NAME}] {} step pairs", pressed_ms.len());
    Ok(out)
}

/// The traced run: every per-layer metric.
pub fn run_traced(seed: u64, scale: &Scale) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let Ready {
        inputs,
        mut pressed,
        raw,
    } = set_up(seed, scale, &mut out)?;
    raw.shutdown();

    let mut tracer = Tracer::new();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let (mut wire_bytes, mut dense_bytes) = (0u64, 0u64);
    let trace_scale = Scale {
        seconds: scale.seconds * 0.6,
        ..*scale
    };
    let window = Instant::now();
    let mut i = 0;
    while trace_scale.more(window, i) {
        let step = &inputs.script[(scale.warmup + i) % SCRIPT_STEPS];
        tracer.enabled = i % 2 == 1;
        tracer.op = i as u64;
        let ms = pressed.step(&inputs, step, &mut tracer, &mut out);
        if let Some(ms) = ms {
            if tracer.enabled {
                &mut traced_ms
            } else {
                &mut untraced_ms
            }
            .push(ms);
        }
        // Payload bytes on the socket: the stream up, raw f32 down.
        let down = (2 * RAW_BYTES + RAW_BYTES / 4) as u64;
        wire_bytes += inputs.streams[step.store].compressed_byte_len() as u64 + down;
        dense_bytes += RAW_BYTES as u64 + down;
        i += 1;
    }
    tracer.enabled = false;
    let (busy, over_budget) = (pressed.busy, pressed.over_budget);
    pressed.shutdown();
    if traced_ms.is_empty() || untraced_ms.is_empty() {
        return Err(format!("traced window too short: {:?}", out.notes));
    }
    tracer.dump(NAME).map_err(|e| e.to_string())?;
    let steps = i as f64;

    let (store, fetch, planes) = (
        tracer.share_pct(&["serve.store"]),
        tracer.share_pct(&["serve.fetch"]),
        tracer.share_pct(&["serve.fetch_planes"]),
    );
    let store_ms = tracer.durations_ms("serve.store");
    let fetch_ms = tracer.durations_ms("serve.fetch");

    out.put(
        "bench.trace_overhead_x",
        median(&traced_ms) / median(&untraced_ms),
    );
    out.put("bench.attributed_pct", store + fetch + planes);
    out.put("bench.traced_step_ms", median(&traced_ms));
    out.put("data.batch_ms", inputs.gen_ms);
    out.put("store.save_p50_ms", median(&store_ms));
    out.put(
        "store.save_p90_ms",
        percentile(&store_ms, 0.9, scale.guard)?,
    );
    out.put("store.load_p50_ms", median(&fetch_ms));
    out.put(
        "store.load_p90_ms",
        percentile(&fetch_ms, 0.9, scale.guard)?,
    );
    out.put("store.saves_per_step", 1.0);
    out.put("store.saved_mib_per_step", RAW_BYTES as f64 / MIB);
    // No network, framework or ring on this workload's path.
    for name in [
        "dnn.forward_pct",
        "dnn.backward_pct",
        "dnn.loss_pct",
        "dnn.optimizer_pct",
        "dist.sync_pct",
        "core.framework_overhead_pct",
        "core.controller_pct",
        "dist.msgs_per_step",
    ] {
        out.put(name, 0.0);
    }
    out.put("store.save_pct", store);
    out.put("store.load_pct", fetch);
    out.put("serve.fetch_planes_pct", planes);
    out.put("core.eb_median", EB as f64);
    out.put("wire.mib_per_step", wire_bytes as f64 / steps / MIB);
    out.put(
        "wire.dense_equiv_mib_per_step",
        dense_bytes as f64 / steps / MIB,
    );
    out.put("serve.busy_count", busy as f64);
    out.put("serve.overbudget_count", over_budget as f64);

    // What a store spends where the client cannot look: its stream's
    // decode, timed here as the daemon does it.
    let registry = CodecRegistry::standard();
    let decode: Vec<f64> = (0..3)
        .flat_map(|_| &inputs.streams)
        .map(|s| {
            let t = Instant::now();
            std::hint::black_box(registry.decompress(s).ok());
            ms_since(t)
        })
        .collect();
    let corpus = Corpus {
        tensors: inputs
            .tensors
            .into_iter()
            .map(|data| CorpusTensor {
                data,
                layout: LAYOUT,
                eb: EB,
            })
            .collect(),
    };
    // The tensor layer is not on this workload's path; its probe runs on
    // the reference network as a control that should never move here.
    let shapes = crate::train::reference_conv_shapes(seed)?;
    probes::run(
        &corpus,
        &shapes,
        PLANES * PLANE_ELEMS,
        probes::Schedule::Serve,
        scale,
        &mut out,
    )?;
    // store_p50 − ping − decode − arena insert: the copy, lock and queue
    // share nobody can see yet.
    let store_p50 = median(&store_ms);
    let seen = out.get("serve.ping_p50_us")? / 1e3
        + median(&decode)
        + out.get("membudget.insert_p50_us")? / 1e3;
    out.put(
        "serve.store_residual_pct",
        100.0 * (store_p50 - seen) / store_p50,
    );
    eprintln!(
        "[{NAME}] traced {} steps, untraced {}",
        traced_ms.len(),
        untraced_ms.len()
    );
    Ok(out)
}
