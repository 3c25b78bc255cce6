"""Measure every workload on several seeds and record medians and spreads.

    python3 perfbench/baseline.py --out perfbench/baseline.json

It runs seeds 101-110.  Each run is a fresh process, as the benchmark is
meant to be run.  For each workload and end-to-end metric the file
records the values, their median, quartiles and spread (quartile
distance / median, as
``statistics.quantiles(values, n=4)`` gives them), next to the metric's
bound from BENCHMARK.json.  It also holds one traced run per workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(101, 111)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    meta_line, result_line = proc.stdout.strip().splitlines()[-2:]
    return json.loads(meta_line)["meta"], json.loads(result_line)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"seeds": list(SEEDS), "run_seconds": bench["run_seconds"], "workloads": {}}
    for wl in workloads:
        runs = []
        for seed in SEEDS:
            meta, result = run(wl, seed, bench["run_seconds"], 0)
            runs.append({"meta": meta, "result": result})
            print(f"{wl} seed {seed}: correct={result['correct']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median,
                             "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "bound": bound,
                             "values": values}
            print(f"  {name}: median {median:.5g} spread {(q3 - q1) / median:.4f} (bound {bound})", flush=True)
        traced_meta, traced = run(wl, SEEDS[0], bench["run_seconds"], 1)
        out["workloads"][wl] = {
            "end_to_end": summary,
            "all_correct": all(r["result"]["correct"] for r in runs),
            "runs": runs,
            "traced": {"meta": traced_meta, "result": traced},
        }
        args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
