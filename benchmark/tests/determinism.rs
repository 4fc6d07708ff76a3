//! Seeding and determinism: the same seed gives the same inputs, answers
//! and single-threaded work counts; another seed gives other inputs.

use std::path::PathBuf;
use traj_benchmark::lifecycle::{self, RunConfig};
use traj_benchmark::metrics::PER_LAYER;
use traj_benchmark::spec::{self, Spec};
use traj_benchmark::{execute, inputs, Outcome};

/// The `--quick` scale: counts and data sizes divided by 50.
fn quick(spec: &Spec) -> Spec {
    spec.scaled(1.0 / 50.0, 1.0 / 50.0)
}

/// Tests run on parallel threads of one process, so each gets a scratch
/// directory of its own.
fn traced(spec: &Spec, seed: u64, scratch: &str) -> Outcome {
    let cfg = RunConfig {
        seed,
        trace: true,
        scratch: PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("target/test-scratch")
            .join(scratch),
        threads: 2,
    };
    let outcome = execute(spec, &cfg).expect("the workload runs");
    assert_eq!(
        outcome.measured.failed, 0,
        "{}: failed operations",
        spec.name
    );
    // Where the spec fixes a percentile's sample count, the run took
    // exactly that many: the support checked before a run is the real one.
    let taken = lifecycle::percentiles(&outcome.measured);
    for (metric, _, n) in spec.percentiles() {
        let (_, _, samples) = taken
            .iter()
            .find(|(name, _, _)| *name == metric)
            .unwrap_or_else(|| panic!("{metric} is not reported"));
        assert_eq!(samples.len(), n, "{}: {metric}", spec.name);
    }
    assert!(!cfg
        .scratch
        .join(format!("{}-{seed}-{}", spec.name, std::process::id()))
        .exists());
    outcome
}

fn value(outcome: &Outcome, name: &str) -> f64 {
    let all = outcome.end_to_end.iter().chain(&outcome.per_layer);
    all.clone()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("no metric {name}"))
        .1
}

#[test]
fn same_seed_same_digests_and_counts() {
    for spec in spec::all() {
        let spec = quick(&spec);
        let (a, b) = (traced(&spec, 7, "same"), traced(&spec, 7, "same"));
        assert_eq!(a.input_digest, b.input_digest, "{}: inputs", spec.name);
        assert_eq!(
            a.measured.answers.value(),
            b.measured.answers.value(),
            "{}: answers",
            spec.name
        );
        // Counts made by the program repeat exactly: the single-threaded
        // traversal counters, the tree's shape, and the bytes on disk.
        let counts = PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("index.") && m.unit == "count");
        for name in counts
            .map(|m| m.name)
            .chain(["index.knn.edwp_per_result", "disk_bytes_per_user_byte"])
        {
            assert_eq!(
                value(&a, name).to_bits(),
                value(&b, name).to_bits(),
                "{}: {name}",
                spec.name
            );
        }
    }
}

#[test]
fn traced_run_reports_every_per_layer_metric_and_nests_its_spans() {
    let spec = quick(&spec::by_name("ingest_lifecycle").unwrap());
    let outcome = traced(&spec, 3, "layers");
    for metric in PER_LAYER {
        assert!(
            value(&outcome, metric.name).is_finite(),
            "{} is not a number",
            metric.name
        );
    }
    let spans = outcome.recorder.spans();
    let root = spans
        .iter()
        .position(|s| s.name == "run")
        .expect("a root span");
    for (i, span) in spans.iter().enumerate() {
        assert!(
            span.end_ns >= span.start_ns,
            "{} ends before it starts",
            span.name
        );
        assert_eq!(
            span.parent.is_none(),
            i == root,
            "{} must hang off the root",
            span.name
        );
    }
    // Writer and reader spans of the ingest section share one parent.
    let parent_of = |name: &str| spans.iter().find(|s| s.name == name).and_then(|s| s.parent);
    assert_eq!(
        parent_of("session.insert_batch"),
        parent_of("snapshot.query.knn")
    );
}

#[test]
fn different_seed_different_inputs() {
    for spec in spec::all() {
        let spec = quick(&spec);
        let (a, b) = (inputs::generate(&spec, 1), inputs::generate(&spec, 2));
        assert_ne!(a.digest, b.digest, "{}", spec.name);
        assert_eq!(a.digest, inputs::generate(&spec, 1).digest, "{}", spec.name);
        // The schedule of operations is the same for every seed; only the
        // trajectories, queries and removed ids differ.
        let kinds = |i: &inputs::Inputs| -> Vec<_> {
            i.rounds
                .iter()
                .flat_map(|r| r.singles.iter().map(|(k, _)| *k))
                .collect()
        };
        assert_eq!(kinds(&a), kinds(&b), "{}", spec.name);
    }
}
