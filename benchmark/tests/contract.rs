//! `BENCHMARK.json` at the repository root names this program; its tables
//! must be the ones the program reports.

use traj_benchmark::json::{self, Value};
use traj_benchmark::metrics::{END_TO_END, PER_LAYER};
use traj_benchmark::spec::{self, BEYOND};
use traj_benchmark::stats::beyond;

fn field<'v>(v: &'v Value, key: &str) -> &'v Value {
    v.get(key)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"))
}

fn text<'v>(v: &'v Value, key: &str) -> &'v str {
    field(v, key)
        .as_str()
        .unwrap_or_else(|| panic!("{key} is not a string"))
}

#[test]
fn benchmark_json_matches_the_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
        .expect("BENCHMARK.json parses");

    let keys: Vec<&str> = file.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_eq!(
        field(&file, "run_seconds").as_f64(),
        Some(spec::RUN_SECONDS)
    );
    assert_eq!(
        field(&file, "paths").as_arr().unwrap(),
        [Value::str("benchmark")]
    );

    let workloads = field(&file, "workloads").as_arr().unwrap();
    assert_eq!(workloads.len(), spec::all().len());
    for (listed, spec) in workloads.iter().zip(spec::all()) {
        assert_eq!(text(listed, "name"), spec.name);
        // The source wraps the sentence; the file holds it on one line.
        let why = spec.why.split_whitespace().collect::<Vec<_>>().join(" ");
        assert_eq!(text(listed, "why"), why);
        assert!(
            why.len() <= 200,
            "{}: why is {} characters",
            spec.name,
            why.len()
        );
    }

    let end_to_end = field(&file, "end_to_end").as_arr().unwrap();
    assert_eq!(end_to_end.len(), END_TO_END.len());
    for (listed, metric) in end_to_end.iter().zip(END_TO_END) {
        assert_eq!(text(listed, "name"), metric.name);
        assert_eq!(text(listed, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(text(listed, "better"), metric.better, "{}", metric.name);
        assert_eq!(
            field(listed, "bound").as_f64(),
            Some(metric.bound),
            "{}",
            metric.name
        );
        assert!(metric.bound <= 0.25, "{}", metric.name);
    }
    assert!(END_TO_END
        .iter()
        .any(|m| (m.name, m.unit, m.better) == ("setup_s", "s", "lower")));

    let per_layer = field(&file, "per_layer").as_arr().unwrap();
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert!(PER_LAYER.len() <= 128);
    for (listed, metric) in per_layer.iter().zip(PER_LAYER) {
        assert_eq!(text(listed, "name"), metric.name);
        assert_eq!(text(listed, "unit"), metric.unit, "{}", metric.name);
        assert_eq!(text(listed, "better"), metric.better, "{}", metric.name);
        assert_eq!(
            listed.fields().len(),
            3,
            "{}: exactly name, unit, better",
            metric.name
        );
    }
}

/// The frozen counts give every reported percentile its support; a scale
/// that does not is refused before the run (`scaled` in `src/main.rs`).
#[test]
fn every_percentile_has_ten_samples_beyond_it_at_full_scale() {
    for spec in spec::all() {
        for (metric, p, n) in spec.percentiles() {
            assert!(
                beyond(n, p) >= BEYOND,
                "{}: {metric} is taken over {n} samples, {} beyond it",
                spec.name,
                beyond(n, p)
            );
        }
    }
}
