//! The repo benchmark: four seeded `Session` workloads, their end-to-end
//! metrics, a traced run with per-layer probes, and the tooling to compare
//! two result files. See `README.md` for what is measured and why.

pub mod inputs;
pub mod json;
pub mod lifecycle;
pub mod metrics;
pub mod probes;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;

use lifecycle::{Measured, RunConfig};
use spec::Spec;
use std::path::PathBuf;
use trace::Recorder;

/// The result of one run of one workload.
pub struct Outcome {
    pub measured: Measured,
    pub input_digest: u64,
    /// End-to-end metrics in table order. On a traced run they include the
    /// tracing overhead and are not for comparison.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Per-layer metrics; empty unless the run was traced.
    pub per_layer: Vec<(&'static str, f64)>,
    pub recorder: Recorder,
}

/// Removes the run's scratch directory however the run ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `spec` once: every section, its checks, and — when tracing — the
/// layer probes. The scratch directory is gone when this returns.
pub fn execute(spec: &Spec, cfg: &RunConfig) -> Result<Outcome, Box<dyn std::error::Error>> {
    let _scratch = Scratch(lifecycle::Dirs::new(cfg, spec.name).root);
    let mut recorder = Recorder::new(cfg.trace);
    let root = recorder.enter("run");
    let (mut world, measured) = lifecycle::run(spec, cfg, &mut recorder)?;
    let end_to_end = lifecycle::end_to_end(&measured);
    let per_layer = if cfg.trace {
        probes::run(spec, cfg, &mut world, &measured, &mut recorder)?
    } else {
        Vec::new()
    };
    recorder.exit(root);
    Ok(Outcome {
        input_digest: world.inputs.digest,
        measured,
        end_to_end,
        per_layer,
        recorder,
    })
}
