//! The benchmark's own contract, at smoke size (one timed round per run):
//! every metric `BENCHMARK.json` names is printed with its unit for every
//! workload, and the correctness gate fails a run whose aggregate is off
//! by a single bit.

use flbench::gate::{check_aggregate, reference_aggregate};
use flbench::inputs::{round_updates, PAPER_SIGNATURE};
use flbench::json::{self, Value};
use flbench::runner::{run, Options};
use flbench::workloads::NAMES;
use flbench::{MetricSpec, END_TO_END, PER_LAYER};
use mixnn_core::codec::CompressionConfig;

fn benchmark_json() -> Value {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn listed(doc: &Value, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lists {key}"))
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn owned(specs: &[MetricSpec]) -> Vec<(String, String)> {
    specs
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

fn smoke(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.to_string(),
        seed: 7,
        seconds: 0.0,
        trace,
        trace_out: None,
        perturb_aggregate: false,
    }
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), owned(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), owned(PER_LAYER));
    let workloads: Vec<String> = listed(&doc, "workloads")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    assert_eq!(workloads, NAMES);
}

#[test]
fn every_metric_is_printed_with_its_unit_for_every_workload() {
    let doc = benchmark_json();
    for workload in NAMES {
        for (trace, key) in [(false, "end_to_end"), (true, "per_layer")] {
            let report = run(&smoke(workload, trace)).expect("smoke run sets up");
            let line = json::parse(&report.json_line()).expect("result line is JSON");
            let Value::Obj(top) = &line else {
                panic!("result line is an object")
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(line.get("correct"), Some(&Value::Bool(true)), "{workload}");
            assert!(line.get("attempted").and_then(Value::as_f64) >= Some(1.0));
            assert_eq!(line.get("failed").and_then(Value::as_f64), Some(0.0));
            let metrics = line.get("metrics").expect("metrics object");
            let expected = listed(&doc, key);
            let Value::Obj(printed) = metrics else {
                panic!("metrics is an object")
            };
            assert_eq!(printed.len(), expected.len(), "{workload} {key}");
            for (name, unit) in expected {
                let m = metrics
                    .get(&name)
                    .unwrap_or_else(|| panic!("{workload} does not print {name}"));
                assert_eq!(m.get("unit").and_then(Value::as_str), Some(unit.as_str()));
                let value = m.get("value").and_then(Value::as_f64);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{workload} {name}: {value:?}"
                );
            }
        }
    }
}

#[test]
fn gate_rejects_a_perturbed_aggregate() {
    let updates = round_updates(&PAPER_SIGNATURE, 4, 3, 1);
    let reference = reference_aggregate(&updates, CompressionConfig::F32);
    assert!(check_aggregate(&reference.clone(), &reference).is_ok());
    let mut perturbed = reference.clone();
    let v = &mut perturbed.layer_mut(2).expect("five layers").values_mut()[17];
    *v = f32::from_bits(v.to_bits() ^ 1);
    assert!(check_aggregate(&perturbed, &reference).is_err());
}

#[test]
fn a_perturbed_aggregate_fails_the_run() {
    for trace in [false, true] {
        let report = run(&Options {
            perturb_aggregate: true,
            ..smoke("cascade-freeroute-int8", trace)
        })
        .expect("smoke run sets up");
        assert!(!report.correct);
        assert_eq!(report.failed, report.attempted);
        let line = json::parse(&report.json_line()).expect("result line is JSON");
        assert_eq!(line.get("correct"), Some(&Value::Bool(false)));
    }
}
