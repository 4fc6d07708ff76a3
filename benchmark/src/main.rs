//! Command line of the benchmark: `run`, `compare`, `selfcheck`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use traj_benchmark::json::{self, Value};
use traj_benchmark::lifecycle::{self, RunConfig};
use traj_benchmark::metrics::{END_TO_END, PER_LAYER};
use traj_benchmark::report::{self, Status};
use traj_benchmark::spec::{self, Spec, BEYOND, RUN_SECONDS, SETUP_REPEATS};
use traj_benchmark::stats::beyond;
use traj_benchmark::{execute, Outcome};

const USAGE: &str = "usage:
  traj-benchmark run [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
                     [--quick] [--scratch DIR]
  traj-benchmark compare A.json B.json
  traj-benchmark selfcheck [run options]

`run --workload NAME` runs one workload in this process and ends with one
JSON line; `run` without it runs all four, each in a fresh process, and
writes a result file. Run from the repository root.";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    scratch: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        quick: false,
        scratch: PathBuf::from("benchmark/target/scratch"),
    };
    let mut it = args.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => parsed.workload = Some(value("a workload name")?),
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => parsed.quick = true,
            "--scratch" => parsed.scratch = PathBuf::from(value("a directory")?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(parsed)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The workload at the scale the arguments ask for: `--seconds` scales the
/// operation counts, `--quick` divides counts and data sizes by 50. A scale
/// that leaves a reported percentile fewer than [`BEYOND`] samples beyond it
/// is refused; `--quick` is a smoke run and exempt.
fn scaled(spec: &Spec, args: &Args) -> Result<Spec, String> {
    let ops = args.seconds / RUN_SECONDS;
    if args.quick {
        return Ok(spec.scaled(ops / 50.0, 1.0 / 50.0));
    }
    let spec = if ops == 1.0 {
        spec.clone()
    } else {
        spec.scaled(ops, 1.0)
    };
    for (metric, p, n) in spec.percentiles() {
        if beyond(n, p) < BEYOND {
            return Err(format!(
                "--seconds {} leaves {metric} {n} samples, {} beyond it; it needs {BEYOND}",
                args.seconds,
                beyond(n, p)
            ));
        }
    }
    Ok(spec)
}

fn sample_note(outcome: &Outcome, metric: &str) -> String {
    let m = &outcome.measured;
    if let Some((_, p, samples)) = lifecycle::percentiles(m)
        .into_iter()
        .find(|(name, _, _)| *name == metric)
    {
        let detail = match metric {
            "range_p50_ms" => format!(", {} hits", m.range_hits),
            "batch_qps" => format!(", calls of {} queries", spec::BATCH),
            _ => String::new(),
        };
        return format!("n={}, {} beyond{detail}", samples.len(), samples.beyond(p));
    }
    match metric {
        "setup_s" => format!("median of {SETUP_REPEATS} set-ups"),
        "ingest_tps" => format!("{} trajectories in {:.3} s", m.ingested, m.script_s),
        "disk_bytes_per_user_byte" => format!("{} / {} bytes", m.disk_bytes, m.user_bytes),
        "ok_ops_ratio" => format!("{} failed of {} attempted", m.failed, m.attempted),
        _ => String::new(),
    }
}

/// The `metrics` object of the result line, from `(name, unit, value)` rows.
fn metrics_json<'m>(rows: impl Iterator<Item = (&'m str, &'m str, f64)>) -> Value {
    Value::obj(rows.map(|(name, unit, v)| {
        (
            name,
            Value::obj([("value", Value::Num(v)), ("unit", Value::str(unit))]),
        )
    }))
}

/// Looks up every metric of a table in the measured values, so a metric
/// the run failed to produce is an error here and not a hole in the output.
fn in_table_order<'t>(
    names: impl Iterator<Item = &'t str>,
    values: &[(&'static str, f64)],
) -> Vec<(&'static str, f64)> {
    names
        .map(|name| {
            *values
                .iter()
                .find(|(n, _)| *n == name)
                .unwrap_or_else(|| panic!("the run produced no value for {name}"))
        })
        .collect()
}

/// Runs one workload in this process. Prints every metric by name with its
/// unit, the digests, and as the last line the result object.
fn run_one(spec: &Spec, args: &Args) -> Result<ExitCode, String> {
    let spec = scaled(spec, args)?;
    let cfg = RunConfig {
        seed: args.seed,
        trace: args.trace,
        scratch: args.scratch.clone(),
        threads: threads(),
    };
    println!(
        "# workload={} seed={} seconds={} trace={} quick={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.quick
    );
    println!("# host {}", report::host(&cfg.scratch, cfg.threads));
    println!(
        "# why: {}",
        spec.why.split_whitespace().collect::<Vec<_>>().join(" ")
    );
    println!(
        "# counts: query_n={} knn={} norm={} sub={} range={} batches={}x{} | durable_n={} \
         insert_batches={}x{} inserts={} remove_batches={}x{} removes={} | image_n={} \
         tail_batches={}x{} tail_tombstones={} opens={} | shards={}",
        spec.query_n,
        spec.knn,
        spec.norm,
        spec.sub,
        spec.range,
        spec.batches,
        spec::BATCH,
        spec.durable_n,
        spec.insert_batches,
        spec::GROUP,
        spec.inserts,
        spec.remove_batches,
        spec::REMOVE_BATCH,
        spec.removes,
        spec.image_n,
        spec.tail_batches,
        spec::GROUP,
        spec.tail_tombstones,
        spec.opens,
        spec.shards
    );
    let outcome = execute(&spec, &cfg).map_err(|e| e.to_string())?;
    // No result from a run that took too few samples for what it reports
    // (the per-layer percentiles are reported by the traced run only).
    for (metric, p, samples) in lifecycle::percentiles(&outcome.measured) {
        let reported = args.trace || END_TO_END.iter().any(|m| m.name == metric);
        if reported && !args.quick && samples.beyond(p) < BEYOND {
            return Err(format!(
                "{metric}: {} samples, {} beyond it; it needs {BEYOND}",
                samples.len(),
                samples.beyond(p)
            ));
        }
    }

    let end_to_end = in_table_order(END_TO_END.iter().map(|m| m.name), &outcome.end_to_end);
    let label = if args.trace {
        " (traced: not for comparison)"
    } else {
        ""
    };
    println!("# end-to-end{label}");
    for (m, (_, v)) in END_TO_END.iter().zip(&end_to_end) {
        println!(
            "{:<34} {v:>14.4} {:<6} ({})",
            m.name,
            m.unit,
            sample_note(&outcome, m.name)
        );
    }
    let mut per_layer = Vec::new();
    if args.trace {
        per_layer = in_table_order(PER_LAYER.iter().map(|m| m.name), &outcome.per_layer);
        println!("# per-layer (-> the end-to-end metric and workload each should move)");
        for (m, (_, v)) in PER_LAYER.iter().zip(&per_layer) {
            let note = sample_note(&outcome, m.name);
            let note = if note.is_empty() {
                note
            } else {
                format!(" ({note})")
            };
            println!(
                "{:<34} {v:>14.4} {:<6} -> {}{note}",
                m.name, m.unit, m.moves
            );
        }
        println!("# self time by span name");
        for (name, (count, ns)) in outcome.recorder.self_time_by_name() {
            println!("{name:<44} {count:>8} spans {:>12.3} ms", ns as f64 / 1e6);
        }
        let file =
            Path::new("benchmark/target").join(format!("trace-{}-{}.json", spec.name, args.seed));
        let written = std::fs::create_dir_all("benchmark/target")
            .and_then(|()| std::fs::write(&file, outcome.recorder.to_json()));
        match written {
            Ok(()) => println!(
                "# trace: {} spans in {}",
                outcome.recorder.spans().len(),
                file.display()
            ),
            Err(e) => eprintln!("warning: trace not written to {}: {e}", file.display()),
        }
    }
    println!(
        "digest input={:016x} answer={:016x}",
        outcome.input_digest,
        outcome.measured.answers.value()
    );

    let m = &outcome.measured;
    let metrics = if args.trace {
        let rows = PER_LAYER.iter().zip(&per_layer);
        metrics_json(rows.map(|(m, (_, v))| (m.name, m.unit, *v)))
    } else {
        let rows = END_TO_END.iter().zip(&end_to_end);
        metrics_json(rows.map(|(m, (_, v))| (m.name, m.unit, *v)))
    };
    println!(
        "{}",
        Value::obj([
            ("correct", Value::Bool(m.failed == 0)),
            ("attempted", Value::Num(m.attempted as f64)),
            ("failed", Value::Num(m.failed as f64)),
            ("metrics", metrics),
        ])
    );
    Ok(if m.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Runs one workload in a child process and returns its parsed result line
/// and digests; the child's output is passed through.
fn run_child(name: &str, args: &Args, trace: bool) -> Result<(Value, String, String), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--scratch")
        .arg(&args.scratch)
        .stdout(Stdio::piped());
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .spawn()
        .and_then(|c| c.wait_with_output())
        .map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    print!("{text}");
    if !output.status.success() {
        return Err(format!("{name} exited with {}", output.status));
    }
    let result = json::parse(text.lines().last().unwrap_or_default())?;
    let digest = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix("digest "))
            .and_then(|l| l.split_whitespace().find_map(|kv| kv.strip_prefix(key)))
            .unwrap_or_default()
            .to_string()
    };
    Ok((result, digest("input="), digest("answer=")))
}

/// Runs all four workloads, each `repeat` times untraced (and once traced
/// with `--trace 1`), and writes one result file.
fn run_suite(args: &Args, repeat: usize, out: &Path) -> Result<(), String> {
    let mut workloads = Vec::new();
    for spec in spec::all() {
        let mut runs: Vec<Value> = Vec::new();
        let mut digests = (String::new(), String::new());
        for _ in 0..repeat {
            let (result, input, answer) = run_child(spec.name, args, false)?;
            if !runs.is_empty()
                && (input.as_str(), answer.as_str()) != (digests.0.as_str(), digests.1.as_str())
            {
                return Err(format!(
                    "{}: digests differ between repeats of one seed",
                    spec.name
                ));
            }
            digests = (input, answer);
            runs.push(result);
        }
        let series = |name: &str| {
            Value::Arr(
                runs.iter()
                    .filter_map(|r| r.get("metrics")?.get(name)?.get("value").cloned())
                    .collect(),
            )
        };
        let mut fields = vec![
            ("input_digest", Value::str(digests.0)),
            ("answer_digest", Value::str(digests.1)),
            (
                "attempted",
                runs[0].get("attempted").cloned().unwrap_or(Value::Null),
            ),
            (
                "failed",
                Value::Num(runs.iter().filter_map(|r| r.get("failed")?.as_f64()).sum()),
            ),
            (
                "end_to_end",
                Value::obj(END_TO_END.iter().map(|m| (m.name, series(m.name)))),
            ),
        ];
        if args.trace {
            let (traced, _, _) = run_child(spec.name, args, true)?;
            let metrics = traced.get("metrics").cloned().unwrap_or(Value::Null);
            fields.push((
                "per_layer",
                Value::obj(
                    metrics
                        .fields()
                        .iter()
                        .map(|(k, v)| (k.clone(), v.get("value").cloned().unwrap_or(Value::Null))),
                ),
            ));
        }
        workloads.push((spec.name, Value::obj(fields)));
    }
    let file = Value::obj([
        ("host", report::host(&args.scratch, threads())),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds)),
        ("quick", Value::Bool(args.quick)),
        ("repeat", Value::Num(repeat as f64)),
        ("workloads", Value::obj(workloads)),
    ]);
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    }
    std::fs::write(out, file.pretty()).map_err(|e| e.to_string())?;
    println!("# results written to {}", out.display());
    Ok(())
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn compare_files(a: &str, b: &str) -> Result<Status, String> {
    let (va, vb) = (load(a)?, load(b)?);
    println!("# A = {a}: host {}", va.get("host").unwrap_or(&Value::Null));
    println!("# B = {b}: host {}", vb.get("host").unwrap_or(&Value::Null));
    println!(
        "# B/A is B's median over A's; spread is the wider inter-quartile range over its median"
    );
    let (rows, status) = report::compare(&va, &vb);
    rows.iter().for_each(|r| println!("{r}"));
    println!("# verdict: {status:?}");
    Ok(status)
}

fn status_code(status: Status) -> ExitCode {
    if status == Status::Ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn dispatch(args: &[String]) -> Result<ExitCode, String> {
    let target = Path::new("benchmark/target");
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_files(a, b).map(status_code),
            _ => Err(USAGE.into()),
        },
        Some("selfcheck") => {
            // Two full suites of the same commit and seed must agree within
            // the benchmark's own bounds; three runs each give a spread.
            let parsed = parse_args(&args[1..])?;
            let (a, b) = (
                target.join("selfcheck-a.json"),
                target.join("selfcheck-b.json"),
            );
            run_suite(&parsed, 3, &a)?;
            run_suite(&parsed, 3, &b)?;
            compare_files(&a.to_string_lossy(), &b.to_string_lossy()).map(status_code)
        }
        // `run`, or the bare flags of a single run as a driver appends them.
        Some(first) if first == "run" || first.starts_with("--") => {
            let parsed = parse_args(&args[usize::from(first == "run")..])?;
            match &parsed.workload {
                Some(name) => {
                    let spec = spec::by_name(name).ok_or(format!("unknown workload {name}"))?;
                    run_one(&spec, &parsed)
                }
                None => {
                    let out = target.join(format!("results-{}.json", parsed.seed));
                    run_suite(&parsed, 1, &out).map(|()| ExitCode::SUCCESS)
                }
            }
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    dispatch(&args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}
