//! The one regression gate over the bench results: `check_regression
//! <gate>` reads the JSON summary the vendored criterion shim wrote to
//! `target/bench-results/<suite>.json` and checks every row of [`GATES`]
//! that belongs to the named gate — each a ratio of two bench rows' means
//! that must reach a fixed bound. Exits 1 with the measured ratios when
//! any row falls short of its bound or is missing from the file.
//!
//! Usage: `cargo run -p traj-bench --bin check_regression <gate>`, after
//! `cargo bench -p traj-bench --bench <suite>`. CI is the caller: the
//! bounds are CI's (measured at a 200 ms budget, retried twice), and the
//! results file is located via `CARGO_TARGET_DIR` or by walking up from
//! the current directory to the workspace `Cargo.lock`, mirroring how the
//! shim picks its output directory.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One gated ratio — a required speed-up: `<suite>/<numerator>` over
/// `<suite>/<denominator>` must be at least `bound`.
struct Row {
    gate: &'static str,
    suite: &'static str,
    numerator: &'static str,
    denominator: &'static str,
    bound: f64,
}

/// Every gate CI enforces, and why.
///
/// * `ingest` — group commit keeps its win: under `FsyncPolicy::Always`,
///   64 one-record inserts cost at least 3× one 64-record group commit
///   (one fsync per group instead of one per record; both rows move the
///   same 64 records, so their means compare directly).
const GATES: [Row; 1] = [Row {
    gate: "ingest",
    suite: "ingest_throughput",
    numerator: "single_64/always",
    denominator: "batch_64/always",
    bound: 3.0,
}];

fn main() -> ExitCode {
    let gate = std::env::args().nth(1).unwrap_or_default();
    let rows: Vec<&Row> = GATES.iter().filter(|r| r.gate == gate).collect();
    if rows.is_empty() {
        eprintln!("usage: check_regression <ingest>");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for row in rows {
        let text = locate_results(row.suite).and_then(|p| std::fs::read_to_string(p).ok());
        let verdict = match &text {
            Some(text) => check(row, text),
            None => Err(format!(
                "cannot read target/bench-results/{0}.json; run \
                 `cargo bench -p traj-bench --bench {0}` first",
                row.suite
            )),
        };
        match verdict {
            Ok(line) => println!("ok   {line}"),
            Err(line) => {
                eprintln!("FAIL {line}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Checks one row against the suite's results text: `Ok` with the
/// measured ratio when it reaches the bound, `Err` with the reason (short
/// of it, or a row absent from the file) otherwise.
fn check(row: &Row, text: &str) -> Result<String, String> {
    let mean = |bench: &str| {
        mean_ns(text, &format!("{}/{bench}", row.suite))
            .ok_or_else(|| format!("{}/{bench}: no such row in the results file", row.suite))
    };
    let (num, den) = (mean(row.numerator)?, mean(row.denominator)?);
    let ratio = num / den;
    let line = format!(
        "{}: {} {:.3} ms / {} {:.3} ms = {ratio:.2} (must be at least {})",
        row.gate,
        row.numerator,
        num / 1e6,
        row.denominator,
        den / 1e6,
        row.bound
    );
    if ratio >= row.bound {
        Ok(line)
    } else {
        Err(line)
    }
}

/// Pulls `mean_ns` of the bench called `name` out of the summary JSON.
/// The shim writes one flat `{"name": ..., "mean_ns": ..., ...}` object
/// per line, so a keyed scan is enough — no JSON dependency needed.
fn mean_ns(text: &str, name: &str) -> Option<f64> {
    let line = text.lines().find(|l| l.contains(&format!("\"{name}\"")))?;
    let rest = line.split("\"mean_ns\":").nth(1)?;
    let num: String = rest
        .trim_start()
        .chars()
        .take_while(|c| c.is_ascii_digit() || matches!(c, '.' | '-' | 'e' | '+'))
        .collect();
    num.parse().ok()
}

/// `$CARGO_TARGET_DIR/bench-results/<suite>.json`, or the same under
/// `<workspace root>/target` found by walking up to a `Cargo.lock`.
fn locate_results(suite: &str) -> Option<PathBuf> {
    let rel = Path::new("bench-results").join(format!("{suite}.json"));
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        let p = Path::new(&dir).join(&rel);
        if p.is_file() {
            return Some(p);
        }
    }
    let mut dir = std::env::current_dir().ok()?;
    loop {
        if dir.join("Cargo.lock").is_file() {
            let p = dir.join("target").join(&rel);
            return p.is_file().then_some(p);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const FIXTURE: &str = r#"[
  {"name": "ingest_throughput/single_64/always", "mean_ns": 8000000.0, "iters": 7},
  {"name": "ingest_throughput/batch_64/always", "mean_ns": 2.0e6, "iters": 19},
  {"name": "ingest_throughput/single_64/always_held", "mean_ns": 1.0, "iters": 1}
]"#;

    fn row(bound: f64) -> Row {
        Row {
            gate: "ingest",
            suite: "ingest_throughput",
            numerator: "single_64/always",
            denominator: "batch_64/always",
            bound,
        }
    }

    #[test]
    fn finds_rows_by_exact_name() {
        let mean = |bench: &str| mean_ns(FIXTURE, &format!("ingest_throughput/{bench}"));
        assert_eq!(mean("single_64/always"), Some(8e6));
        assert_eq!(mean("batch_64/always"), Some(2e6));
        // A name that only prefixes another row's is not that row.
        assert_eq!(mean("single_64"), None);
        assert_eq!(mean("batch_64/always_held"), None);
    }

    #[test]
    fn a_missing_row_fails_the_check() {
        let mut absent = row(3.0);
        absent.denominator = "batch_64/every_n";
        let err = check(&absent, FIXTURE).unwrap_err();
        assert!(err.contains("ingest_throughput/batch_64/every_n"), "{err}");
    }

    #[test]
    fn the_ratio_is_judged_on_each_side_of_the_bound() {
        // The fixture's ratio is 8 ms / 2 ms = 4.
        assert!(check(&row(3.0), FIXTURE).is_ok());
        assert!(check(&row(4.0), FIXTURE).is_ok());
        assert!(check(&row(5.0), FIXTURE).is_err());
    }
}
