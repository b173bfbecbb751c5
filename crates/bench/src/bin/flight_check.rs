//! Validates a flight-recorder dump produced by `ebtrain-obs`
//! (`EBTRAIN_FLIGHT=<path>`), for CI: after a smoke binary runs with
//! the recorder on, this asserts the dump is loadable and internally
//! consistent.
//!
//! Checks: the file parses as a JSON object with `reason`, `steps`,
//! `counters`, and a non-empty `spans`; there are at least `min_steps`
//! step records, each carrying the full field set; step ids are
//! monotonically non-decreasing **per source** (a distributed step
//! nests its replicas' `core.step` records, so sources interleave);
//! every anomaly named in a step record matches a positive
//! `obs.anomaly.*` counter; and every span record's bucket counts sum
//! to its count — the exactly-once merge property, checked end to end
//! through the dump.
//!
//! Usage: `flight_check <flight.json> [min_steps]` — exits 0 on
//! success, 1 with a diagnostic on the first violation.

use ebtrain_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::process::ExitCode;

fn obj<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing key {key:?}"))
}

fn num(v: &Value, key: &str) -> Result<f64, String> {
    obj(v, key)?
        .as_f64()
        .ok_or_else(|| format!("{key:?} is not a number"))
}

fn check(path: &str, min_steps: usize) -> Result<(), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let root = json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;

    let reason = obj(&root, "reason")?
        .as_str()
        .ok_or("reason is not a string")?;
    let steps = obj(&root, "steps")?
        .as_array()
        .ok_or("steps is not an array")?;
    if steps.len() < min_steps {
        return Err(format!(
            "only {} step record(s), need >= {min_steps}",
            steps.len()
        ));
    }

    let mut last_step: BTreeMap<String, f64> = BTreeMap::new();
    let mut anomaly_names: Vec<String> = Vec::new();
    for (i, s) in steps.iter().enumerate() {
        let at = |e: String| format!("step record {i}: {e}");
        let source = obj(s, "source")
            .and_then(|v| v.as_str().ok_or("source is not a string".into()))
            .map_err(at)?;
        let step = num(s, "step").map_err(at)?;
        for field in ["step_nanos", "comm_bytes", "queue_depth_peak"] {
            num(s, field).map_err(at)?;
        }
        // loss/ratio may be null (non-finite values have no JSON form).
        for field in ["loss", "ratio"] {
            let v = obj(s, field).map_err(at)?;
            if v.as_f64().is_none() && !matches!(v, Value::Null) {
                return Err(format!("step record {i}: {field:?} is not number|null"));
            }
        }
        if let Some(prev) = last_step.get(source) {
            if step < *prev {
                return Err(format!(
                    "step record {i}: source {source:?} went backwards ({prev} -> {step})"
                ));
            }
        }
        last_step.insert(source.to_string(), step);
        for a in obj(s, "anomalies")
            .and_then(|v| v.as_array().ok_or("anomalies is not an array".into()))
            .map_err(at)?
        {
            let name = a
                .as_str()
                .ok_or(format!("step record {i}: non-string anomaly"))?;
            anomaly_names.push(name.to_string());
        }
    }

    // Every flagged record must be reflected in the anomaly counters.
    let counters = obj(&root, "counters")?;
    for name in &anomaly_names {
        let key = format!("obs.anomaly.{name}");
        let v = counters.get(&key).and_then(|v| v.as_f64()).unwrap_or(0.0);
        if v < 1.0 {
            return Err(format!(
                "step records carry anomaly {name:?} but counter {key:?} is {v}"
            ));
        }
    }

    // Every record's bucket counts sum to its count: the exactly-once
    // merge property, checked end to end through the dump.
    let Value::Obj(records) = obj(&root, "spans")? else {
        return Err("spans is not an object".into());
    };
    if records.is_empty() {
        return Err("no span records in the dump".into());
    }
    for (name, rec) in records {
        let at = |e: String| format!("span {name:?}: {e}");
        let count = num(rec, "count").map_err(at)?;
        let buckets = obj(rec, "buckets")
            .and_then(|v| v.as_array().ok_or("buckets is not an array".into()))
            .map_err(at)?;
        let mut sum = 0.0;
        for b in buckets {
            let pair = b
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or(at("bucket is not [upper, count]".into()))?;
            sum += pair[1]
                .as_f64()
                .ok_or(at("non-numeric bucket count".into()))?;
        }
        if sum != count {
            return Err(at(format!("bucket sum {sum} != count {count}")));
        }
    }

    println!(
        "flight_check: {path} OK — reason {reason:?}, {} steps over {} source(s), \
         {} anomalies, {} span records consistent",
        steps.len(),
        last_step.len(),
        anomaly_names.len(),
        records.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: flight_check <flight.json> [min_steps]");
        return ExitCode::FAILURE;
    };
    let min_steps = args.next().and_then(|a| a.parse().ok()).unwrap_or(3);
    match check(&path, min_steps) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("flight_check: {path} FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}
