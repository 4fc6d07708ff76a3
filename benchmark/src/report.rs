//! Host metadata, result files, and the comparison of two result files.

use crate::json::Value;
use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::quartiles;
use std::path::Path;
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// File-system type of the mount `path` lives on, from `/proc/mounts`.
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, mount, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

/// What a result is only comparable within: the machine, the kernels the
/// dispatch resolved to, the toolchain, the commit, and where and how
/// durable writes landed.
pub fn host(scratch: &Path, threads: usize) -> Value {
    Value::obj([
        ("nproc", Value::Num(threads as f64)),
        ("isa", Value::str(traj_dist::Isa::current().name())),
        ("rustc", Value::str(command_line("rustc", &["--version"]))),
        (
            "git_sha",
            Value::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("scratch_fs", Value::str(fs_type(scratch))),
        ("fsync_policy", Value::str("Always")),
    ])
}

fn numbers(v: Option<&Value>) -> Vec<f64> {
    v.and_then(Value::as_arr)
        .map(|a| a.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// Inter-quartile range as a share of the median; 0 for a single run.
fn spread(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Ordered from best to worst, so the worst of many is their maximum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Status {
    Ok,
    /// Run-to-run spread is wider than the bound: the runs cannot tell.
    Unresolved,
    Regressed,
}

/// How much worse `b` is than `a`, as a share of `a`; negative = better.
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    if metric.better == "lower" {
        b / a - 1.0
    } else {
        1.0 - b / a
    }
}

/// Compares result file `b` against base `a`: one row per (metric,
/// workload). Returns the rows and the worst status seen.
pub fn compare(a: &Value, b: &Value) -> (Vec<String>, Status) {
    let mut rows = vec![format!(
        "{:<18} {:<26} {:>12} {:>12} {:>9} {:>7} {:>7}  status",
        "workload", "metric", "A (median)", "B (median)", "B/A", "spread", "bound"
    )];
    let mut worst = Status::Ok;
    let empty = Value::Obj(Vec::new());
    for (workload, wa) in a.get("workloads").unwrap_or(&empty).fields() {
        let wb = b.get("workloads").and_then(|w| w.get(workload));
        for metric in END_TO_END {
            let va = numbers(wa.get("end_to_end").and_then(|m| m.get(metric.name)));
            let vb = numbers(
                wb.and_then(|w| w.get("end_to_end"))
                    .and_then(|m| m.get(metric.name)),
            );
            if va.is_empty() || vb.is_empty() {
                rows.push(format!(
                    "{workload:<18} {:<26} missing on one side",
                    metric.name
                ));
                worst = Status::Regressed;
                continue;
            }
            let (ma, mb) = (quartiles(&va).1, quartiles(&vb).1);
            let wide = spread(&va).max(spread(&vb));
            let status = if wide > metric.bound {
                Status::Unresolved
            } else if worsening(metric, ma, mb) > metric.bound {
                Status::Regressed
            } else {
                Status::Ok
            };
            worst = worst.max(status);
            rows.push(format!(
                "{workload:<18} {:<26} {ma:>12.4} {mb:>12.4} {:>9.4} {:>6.1}% {:>6.2}%  {}",
                format!("{} [{}]", metric.name, metric.unit),
                mb / ma,
                wide * 100.0,
                metric.bound * 100.0,
                match status {
                    Status::Ok => "ok",
                    Status::Regressed => "regressed",
                    Status::Unresolved => "unresolved",
                }
            ));
        }
        let digest = |w: Option<&Value>, key| {
            w.and_then(|w| w.get(key))
                .and_then(Value::as_str)
                .map(str::to_string)
        };
        for key in ["input_digest", "answer_digest"] {
            if digest(Some(wa), key) != digest(wb, key) {
                rows.push(format!(
                    "{workload:<18} {key} differs: the two files did not run the same work"
                ));
                worst = Status::Regressed;
            }
        }
    }
    (rows, worst)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(knn: &[f64]) -> Value {
        let metrics = END_TO_END.iter().map(|m| {
            let values = if m.name == "knn_p50_ms" {
                knn.to_vec()
            } else {
                vec![1.0]
            };
            (
                m.name,
                Value::Arr(values.into_iter().map(Value::Num).collect()),
            )
        });
        Value::obj([(
            "workloads",
            Value::obj([(
                "w",
                Value::obj([
                    ("input_digest", Value::str("1")),
                    ("answer_digest", Value::str("2")),
                    ("end_to_end", Value::obj(metrics)),
                ]),
            )]),
        )])
    }

    #[test]
    fn classifies_ok_regressed_and_unresolved() {
        let base = file(&[1.0, 1.01, 1.02]);
        assert_eq!(compare(&base, &file(&[1.05, 1.04, 1.06])).1, Status::Ok);
        assert_eq!(
            compare(&base, &file(&[1.5, 1.51, 1.52])).1,
            Status::Regressed
        );
        // Faster is never a regression.
        assert_eq!(compare(&base, &file(&[0.5, 0.51, 0.52])).1, Status::Ok);
        assert_eq!(
            compare(&base, &file(&[0.6, 1.0, 1.6])).1,
            Status::Unresolved
        );
    }
}
