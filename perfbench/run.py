"""octad benchmark: one closed-loop client sending requests in one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics; the
line before it holds the run's metadata.  With --trace 0 the metrics are
the end-to-end ones, measured over whole rounds until the requests have
taken S seconds, scaled to the nominal host (harness.SpeedProbe), and the
workload's ``min_rounds`` are done.  With --trace 1 the
first ``traced_rounds`` rounds run once untraced and once traced, and the
metrics are the per-layer ones.  Both modes also write
perfbench/out/<workload>-seed<N>-trace<T>.json, with every request's
latency and the speed samples or the traced run's spans.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
MAX_MEASURE_S = 150.0  # stop starting rounds after this, whatever --seconds says


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_program():
    src = ROOT / "src"
    if not (src / "octad" / "__init__.py").is_file():
        sys.exit(f"perfbench: no octad sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import octad  # noqa: F401  (every module, so no request pays for imports)
    from octad import cli

    return cli


def run_metadata(args):
    import numpy

    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        rev = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "octad").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def run_untraced(wl, args, cli, fixtures, meta):
    import harness
    import pools

    setup_runs = [harness.setup_launch(ROOT) for _ in range(harness.SETUP_LAUNCHES)]
    records, rounds, scaled_s = [], 0, 0.0
    start = time.perf_counter()
    with harness.SpeedProbe() as probe:
        # --seconds counts scaled request time, so that the number of rounds
        # follows the program's speed and not the host's
        while True:
            done = harness.run_requests(pools.round_requests(wl, args.seed, rounds, fixtures), cli.main)
            records += done
            scaled_s += sum(probe.scaled(r.outcome)[0] for r in done)
            rounds += 1
            elapsed = time.perf_counter() - start
            if elapsed >= MAX_MEASURE_S or (rounds >= wl.min_rounds and scaled_s >= args.seconds):
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # as many launches again after the timed part, so that set-up time is
    # taken on both sides of it rather than at one moment of the host's load
    setup_runs += [harness.setup_launch(ROOT) for _ in range(harness.SETUP_LAUNCHES)]

    scaled = [probe.scaled(r.outcome) for r in records]
    metrics = end_to_end_metrics(wl, [w for w, _ in scaled], sum(c for _, c in scaled), meta)
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    setup_s, reference_s = (statistics.median(runs) for runs in zip(*setup_runs))
    metrics["setup_s"] = (setup_s * harness.REFERENCE_NOMINAL_S / reference_s, "s")
    unscaled = end_to_end_metrics(wl, [r.outcome.latency_s for r in records],
                                  sum(r.outcome.cpu_s for r in records), {})
    meta.update(
        rounds=rounds,
        measured_s=elapsed,
        probe_samples=len(probe.samples),
        probe_nominal_s=harness.PROBE_NOMINAL_S,
        probe_median_s=statistics.median(probe.samples),
        # the figures as the clock read them, before host-speed correction
        unscaled={**{name: value for name, (value, _) in unscaled.items()}, "setup_s": setup_s},
        reference_launch_s=reference_s,
        setup_launches_s=setup_runs,
    )
    return records, metrics, True, {"scaled": scaled, "probe": list(zip(probe.ends, probe.samples))}


def end_to_end_metrics(wl, latencies, cpu_s, meta):
    """The timing metrics of an untraced run from its requests' latencies
    and their total CPU time; the tail percentile is the workload's,
    whatever the number of requests."""
    import harness

    pct = wl.tail_percentile
    meta.update(requests=len(latencies), latency_tail_percentile=pct, latency_samples=len(latencies))
    return {
        "throughput_rps": (len(latencies) / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (harness.percentile(latencies, pct), "s"),
        "cpu_per_request_s": (cpu_s / len(latencies), "s"),
    }


def run_traced(wl, args, cli, fixtures, meta):
    import harness
    import pools
    from tracer import Tracer

    reqs = [r for i in range(wl.traced_rounds) for r in pools.round_requests(wl, args.seed, i, fixtures)]
    start = time.perf_counter()
    plain = harness.run_requests(reqs, cli.main)
    plain_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced = harness.run_requests(reqs, cli.main, tracer)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()

    same = [harness.answer(a.outcome) == harness.answer(b.outcome) for a, b in zip(plain, traced)]
    span_errors = tracer.span_errors()
    if tracer.request_s() > traced_s:
        span_errors.append(f"requests took {tracer.request_s():.6f} s of a {traced_s:.6f} s run")
    meta.update(
        requests=len(reqs),
        untraced_s=plain_s,
        traced_s=traced_s,
        traced_request_s=tracer.request_s(),
        # self times add up to the request time by construction; reported
        # to show where the request time went, not as a check
        layer_self_sum_s=sum(tracer.self_s.values()),
        span_errors=span_errors[:10],
        answers_equal_untraced=all(same),
        answers_differing=[a.label for a, ok in zip(plain, same) if not ok][:10],
        counts=tracer.count_signature(),
    )
    meta["informational"] = {}
    for key in wl.informational:
        rec = harness.run_requests([pools.fixed_request(key)], cli.main)[0]
        out = rec.outcome
        meta["informational"][key] = "timeout" if out.status == "timeout" else {
            "seconds": out.latency_s, "answer_ok": rec.failure is None}

    metrics = {name: (value, _unit(name)) for name, value in tracer.layer_metrics().items()}
    metrics["bench.trace_overhead"] = (traced_s / plain_s, "ratio")
    spans = [dict(zip(("id", "parent", "request", "name", "start", "end"), s)) for s in tracer.spans]
    return plain + traced, metrics, all(same) and not span_errors, {"spans": spans}


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    cli = load_program()
    import harness
    import pools

    if args.workload not in pools.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(pools.WORKLOADS)}")
    wl = pools.WORKLOADS[args.workload]
    meta = run_metadata(args)
    start = time.perf_counter()
    fixtures = wl.fixtures()
    meta["fixtures_s"] = time.perf_counter() - start

    run = run_traced if args.trace else run_untraced
    records, metrics, consistent, extra = run(wl, args, cli, fixtures, meta)

    failures = [{"request": r.label, "reason": r.failure} for r in records if r.failure]
    meta["failed_frac"] = len(failures) / len(records)
    meta["failures"] = failures[:20]
    probes = harness.run_requests([pools.fixed_request(k) for k in wl.probes], cli.main)
    meta["known_defects"] = {r.key: r.failure or "fixed" for r in probes}

    result = {
        "correct": not failures and consistent,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    latencies = [(r.label, r.outcome.latency_s, r.outcome.start_s) for r in records]
    dump = {"meta": meta, "result": result, "latencies": latencies, **extra}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(dump))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
