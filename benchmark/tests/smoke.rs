//! `cargo test` inside `benchmark/`: a `--smoke` run (a twentieth of the
//! counts) of all four workloads, traced and untraced, whose output is
//! parsed and held against `BENCHMARK.json` and `metrics.json`.

use ebtrain_obs::json::{self, Value};
use std::collections::BTreeSet;
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ebtrain-benchmark");
const DIR: &str = env!("CARGO_MANIFEST_DIR");

fn read_json(path: &str) -> Value {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
    json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

fn members(v: &Value) -> &[(String, Value)] {
    match v {
        Value::Obj(m) => m,
        other => panic!("expected an object, got {other:?}"),
    }
}

fn keys(v: &Value) -> BTreeSet<&str> {
    members(v).iter().map(|(k, _)| k.as_str()).collect()
}

fn array<'a>(v: &'a Value, key: &str) -> &'a [Value] {
    v.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("no array `{key}`"))
}

fn text<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {v:?}"))
}

/// `[A-Za-z0-9][A-Za-z0-9_.-]{0,63}`
fn is_name(s: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    (1..=64).contains(&s.len())
        && s.chars().all(ok)
        && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
}

fn is_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// name → unit of one metric list of `BENCHMARK.json`.
fn declared(benchmark: &Value, list: &str) -> Vec<(String, String)> {
    array(benchmark, list)
        .iter()
        .map(|m| (text(m, "name").to_string(), text(m, "unit").to_string()))
        .collect()
}

#[test]
fn benchmark_json_meets_the_contract() {
    let b = read_json(&format!("{DIR}/../BENCHMARK.json"));
    assert_eq!(
        keys(&b),
        BTreeSet::from([
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ])
    );
    let paths = array(&b, "paths");
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
    let command = array(&b, "command");
    assert!((1..=32).contains(&command.len()));
    let seconds = b.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);

    let mut names = BTreeSet::new();
    let workloads = array(&b, "workloads");
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), BTreeSet::from(["name", "why"]));
        let why = text(w, "why");
        assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        assert!(is_name(text(w, "name")) && names.insert(text(w, "name")));
    }
    let end_to_end = array(&b, "end_to_end");
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better", "bound"]));
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
    let per_layer = array(&b, "per_layer");
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), BTreeSet::from(["name", "unit", "better"]));
    }
    for m in end_to_end.iter().chain(per_layer) {
        assert!(
            is_name(text(m, "name")) && names.insert(text(m, "name")),
            "{m:?}"
        );
        assert!(is_unit(text(m, "unit")), "{m:?}");
        assert!(["lower", "higher"].contains(&text(m, "better")), "{m:?}");
    }
    let setup = end_to_end
        .iter()
        .find(|m| text(m, "name") == "setup_s")
        .expect("setup_s is declared");
    assert_eq!((text(setup, "unit"), text(setup, "better")), ("s", "lower"));
    // setup_s carries the largest bound.
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
}

/// `metrics.json` explains every declared metric and nothing else, and
/// points only at declared workloads and end-to-end metrics.
#[test]
fn metrics_json_covers_every_declared_metric() {
    let b = read_json(&format!("{DIR}/../BENCHMARK.json"));
    let m = read_json(&format!("{DIR}/metrics.json"));
    let workloads: BTreeSet<String> = array(&b, "workloads")
        .iter()
        .map(|w| text(w, "name").to_string())
        .collect();
    let end_to_end: BTreeSet<String> = declared(&b, "end_to_end")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for list in ["end_to_end", "per_layer"] {
        let want: BTreeSet<String> = declared(&b, list).into_iter().map(|(n, _)| n).collect();
        let got: BTreeSet<String> = array(&m, list)
            .iter()
            .map(|e| text(e, "name").to_string())
            .collect();
        assert_eq!(got, want, "metrics.json `{list}`");
    }
    for e in array(&m, "per_layer") {
        for w in array(e, "on").iter().chain(array(e, "zero_on")) {
            assert!(workloads.contains(w.as_str().unwrap()), "{e:?}");
        }
        for target in array(e, "moves") {
            assert!(end_to_end.contains(target.as_str().unwrap()), "{e:?}");
        }
    }
}

/// Span parents form a forest: a parent comes first, belongs to the same
/// step and encloses its child.
fn assert_span_tree(workload: &str) {
    let trace = read_json(&format!("{DIR}/out/trace_{workload}.json"));
    assert_eq!(text(&trace, "workload"), workload);
    let spans = array(&trace, "spans");
    assert!(!spans.is_empty());
    let num = |s: &Value, key: &str| s.get(key).and_then(Value::as_f64).unwrap();
    for (i, s) in spans.iter().enumerate() {
        assert_eq!(num(s, "id"), i as f64);
        assert!(is_name(text(s, "name")));
        assert!(num(s, "start_ns") <= num(s, "end_ns"));
        match s.get("parent").unwrap() {
            Value::Null => assert_eq!(text(s, "name"), "step"),
            Value::Num(p) => {
                assert!(*p < i as f64, "parent after child");
                let parent = &spans[*p as usize];
                assert_eq!(num(parent, "op"), num(s, "op"));
                assert!(num(parent, "start_ns") <= num(s, "start_ns"));
                assert!(num(s, "end_ns") <= num(parent, "end_ns"));
            }
            other => panic!("parent {other:?}"),
        }
    }
}

#[test]
fn smoke_runs_report_exactly_the_declared_metrics() {
    let b = read_json(&format!("{DIR}/../BENCHMARK.json"));
    for w in array(&b, "workloads") {
        let workload = text(w, "name");
        for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
            let output = Command::new(BIN)
                .args(["--smoke", "--workload", workload, "--seed", "7"])
                .args(["--seconds", "1", "--trace", trace])
                .output()
                .expect("benchmark binary runs");
            let stderr = String::from_utf8_lossy(&output.stderr);
            assert!(
                output.status.success(),
                "{workload} --trace {trace}: {stderr}"
            );
            let stdout = String::from_utf8(output.stdout).unwrap();
            let result = json::parse(stdout.lines().last().expect("a result line")).unwrap();
            assert_eq!(
                keys(&result),
                BTreeSet::from(["correct", "attempted", "failed", "metrics"])
            );
            assert_eq!(result.get("correct"), Some(&Value::Bool(true)), "{stderr}");
            assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
            assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

            // Every declared metric with its unit; none undeclared.
            let metrics = members(result.get("metrics").unwrap());
            let got: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, v)| (name.clone(), text(v, "unit").to_string()))
                .collect();
            assert_eq!(got, declared(&b, list), "{workload} --trace {trace}");
            for (name, v) in metrics {
                assert_eq!(keys(v), BTreeSet::from(["value", "unit"]));
                let value = v.get("value").and_then(Value::as_f64).unwrap();
                assert!(value.is_finite(), "{name} = {value}");
                // An end-to-end metric is never 0 and never a placeholder.
                if list == "end_to_end" {
                    assert!(value > 0.0, "{workload}: {name} = {value}");
                    assert!(
                        !name.ends_with("_x") || value != 1.0,
                        "{workload}: {name} = 1"
                    );
                }
            }
            if trace == "1" {
                assert_span_tree(workload);
            }
        }
    }
}
