//! Short-mode runs of every workload: each emits every metric the
//! benchmark declares, and every output passes its checks.

use gnna_perfbench::{per_layer_metrics, result_json, run, Options, END_TO_END, WORKLOADS};
use gnna_telemetry::json::{self, JsonValue};
use std::collections::BTreeSet;

fn short(workload: &str, trace: bool) -> Options {
    Options {
        workload: workload.into(),
        seed: 7,
        seconds: 0.5,
        trace,
        short: true,
    }
}

/// Runs `opts` and returns the parsed result line.
fn result(opts: &Options) -> JsonValue {
    let out = run(opts).expect("workload runs");
    assert!(out.correct(), "{}: {:?}", opts.workload, out.errors);
    json::parse(&result_json(opts, &out).expect("every metric produced")).expect("valid JSON")
}

fn metric_names(v: &JsonValue) -> BTreeSet<String> {
    v.get("metrics")
        .and_then(JsonValue::as_object)
        .expect("metrics object")
        .keys()
        .cloned()
        .collect()
}

/// Names (with units) that `BENCHMARK.json` declares under `section`.
fn declared(section: &str) -> BTreeSet<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let doc = json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(JsonValue::as_str).expect(k).to_string();
            (s("name"), s("unit"))
        })
        .collect()
}

#[test]
fn declared_metrics_match_the_emitted_ones() {
    let e2e: BTreeSet<_> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.into(), u.into()))
        .collect();
    assert_eq!(declared("end_to_end"), e2e);
    let layers: BTreeSet<_> = per_layer_metrics()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
}

#[test]
fn every_workload_emits_every_metric_in_short_mode() {
    let e2e: BTreeSet<String> = END_TO_END.iter().map(|&(n, _)| n.into()).collect();
    let layers: BTreeSet<String> = per_layer_metrics().into_iter().map(|(n, _)| n).collect();
    for w in WORKLOADS {
        let untraced = result(&short(w, false));
        assert_eq!(metric_names(&untraced), e2e, "{w}");
        let metrics = untraced.get("metrics").expect("metrics");
        for name in &e2e {
            let v = metrics
                .get(name)
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64);
            assert!(v.is_some_and(|v| v > 0.0), "{w}: {name} = {v:?}");
        }
        let traced = result(&short(w, true));
        assert_eq!(metric_names(&traced), layers, "{w}");
    }
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run(&short("no-such-workload", false)).is_err());
}
