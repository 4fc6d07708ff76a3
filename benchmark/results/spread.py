#!/usr/bin/env python3
"""Ten-seed spread of every end-to-end metric, as the acceptance rule states it.

Run from the repository root:

    python3 benchmark/results/spread.py OUT.json [SEED,SEED,...]

Runs the command of BENCHMARK.json once per seed on each workload (untraced),
checks the result line against the file's tables, writes every value to
OUT.json and prints, per (metric, workload), the median and the distance
between the first and third quartile (`statistics.quantiles(values, n=4)`) as
a share of the median, beside the metric's bound.
"""
import json
import statistics
import subprocess
import sys
import time

out_file = sys.argv[1]
seeds = [int(s) for s in (sys.argv[2] if len(sys.argv) > 2 else "1,2,3,4,5,6,7,8,9,10").split(",")]
bench = json.load(open("BENCHMARK.json"))
names = [m["name"] for m in bench["end_to_end"]]
values = {}
for workload in (w["name"] for w in bench["workloads"]):
    series = {name: [] for name in names}
    walls = []
    for seed in seeds:
        args = ["--workload", workload, "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
        start = time.time()
        done = subprocess.run(bench["command"] + args, capture_output=True, text=True)
        walls.append(time.time() - start)
        if done.returncode != 0:
            sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr[-800:]}")
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
        assert list(result["metrics"]) == names, list(result["metrics"])
        for m in bench["end_to_end"]:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"] and got["value"] != 0, (m, got)
            series[m["name"]].append(got["value"])
    print(f"== {workload}: wall median {statistics.median(walls):.1f} s, max {max(walls):.1f} s", flush=True)
    for m in bench["end_to_end"]:
        v = series[m["name"]]
        q1, median, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / median
        mark = "" if spread <= m["bound"] / 3 else ("  > bound/3" if spread <= m["bound"] else "  > BOUND")
        print(f"  {m['name']:<26} median {median:>12.4f}  spread {100 * spread:6.2f} %  bound {100 * m['bound']:5.2f} %{mark}", flush=True)
    values[workload] = series
json.dump({"seeds": seeds, "run_seconds": bench["run_seconds"], "workloads": values}, open(out_file, "w"), indent=1)
