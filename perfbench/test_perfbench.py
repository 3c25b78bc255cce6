"""Self-tests of the benchmark.  Run: python3 -m pytest -q perfbench/test_perfbench.py"""

import collections
import math
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import pools  # noqa: E402
import run  # noqa: E402
from octad import cli  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_reference_covers_every_pool_entry():
    used = set()
    for wl in pools.WORKLOADS.values():
        keys = [e.key for e in wl.entries] + list(wl.probes) + list(wl.informational)
        assert len(keys) == len(set(keys)), wl.name
        missing = [k for k in keys if k not in pools.REFERENCE]
        assert not missing, (wl.name, missing)
        used.update(keys)
    assert set(pools.REFERENCE) == used  # no stale reference answers


def test_seed_changes_sequence_but_not_pool():
    for wl in pools.WORKLOADS.values():
        pool = collections.Counter({e.key: e.weight for e in wl.entries})
        first = pools.round_requests(wl, 1, 0, {})
        again = pools.round_requests(wl, 1, 0, {})
        other = pools.round_requests(wl, 2, 0, {})
        assert [r.label for r in first] == [r.label for r in again]
        assert [r.label for r in first] != [r.label for r in other]
        assert collections.Counter(r.key for r in first) == pool
        assert collections.Counter(r.key for r in other) == pool


def test_member_rules():
    F = Fraction
    assert pools.hurwitz_member([F(1, 2), F(-3, 2), F(1, 2), F(5, 2)])
    assert pools.hurwitz_member([F(1), F(0), F(-2), F(3)])
    assert not pools.hurwitz_member([F(1, 2), F(1), F(1, 2), F(1, 2)])
    assert not pools.hurwitz_member([F(1, 3), F(1), F(1), F(1)])
    assert pools.gaussian_member([F(-2), F(3)])
    assert not pools.gaussian_member([F(1, 2), F(3)])
    assert pools._render(F(-5, 2)) == "-2.5" and pools._render(F(5, 2)) == "5/2"


def test_tail_percentile_does_not_depend_on_the_number_of_rounds():
    for wl in pools.WORKLOADS.values():
        size = sum(e.weight for e in wl.entries)
        pcts = set()
        for rounds in (2, 3, 4, 8):
            rounds = max(rounds, wl.min_rounds)
            meta = {}
            latencies = [0.001 * (i % size + 1) for i in range(rounds * size)]
            run.end_to_end_metrics(wl, latencies, 1.0, meta)
            pcts.add(meta["latency_tail_percentile"])
        assert pcts == {wl.tail_percentile}, wl.name
        # at the fewest rounds a run makes, ten requests lie beyond it
        n = wl.min_rounds * size
        assert n - math.ceil(wl.tail_percentile / 100 * n) >= 10


def _runs(request):
    return harness.run_requests([request], cli.main)[0]


def test_wrong_answer_is_counted_as_failed():
    key = "count zorn-units --p 2 --json"
    good = pools.fixed_request(key)
    assert _runs(good).failure is None
    wrong = pools.Request(key, {"exit": 0, "count": 121}, argv=good.argv, label=key)
    assert "count" in _runs(wrong).failure
    crit = pools.Request("crit04", {"result": {"rank1": 7, "elid": 5}},
                         call=lambda: pools.criteria.crit04(0, {}), label="crit04")
    assert _runs(crit).failure
    garbled = harness.Outcome("ok", 0.0, code=0, stdout="Holds")
    assert harness.check(good.expect, garbled).startswith("malformed output")


def test_crash_and_timeout_are_counted_as_failed(monkeypatch):
    crash = pools.fixed_request("lattice member hurwitz 1/0 0 0 0 --json")
    assert _runs(crash).failure.startswith("ZeroDivisionError")
    slow = pools.Request("slow", {"result": None}, call=lambda: time.sleep(5), label="slow")
    monkeypatch.setattr(harness, "REQUEST_TIMEOUT_S", 0.2)
    rec = harness.run_requests([slow], cli.main)[0]
    assert rec.outcome.status == "timeout" and rec.failure.startswith("timeout")


def test_speed_probe_scales_by_the_samples_taken_during_a_request():
    n = harness.PROBE_NOMINAL_S
    probe = harness.SpeedProbe()
    # a sample every 0.1 s; the host runs at half speed from t = 10 s on,
    # and one sample at t = 3 s is hit by a spike
    probe.ends = [0.1 * i for i in range(200)]
    probe.samples = [(n if t < 10 else 2 * n) * (20 if i == 30 else 1) for i, t in enumerate(probe.ends)]
    wall, cpu = probe.scaled(harness.Outcome("ok", 2.0, cpu_s=2.0, start_s=2.05))
    spent = 19 * n + 20 * n  # 20 samples inside, the spike among them
    assert math.isclose(wall, 2.0 - spent) and math.isclose(cpu, 2.0 - spent)
    wall, _ = probe.scaled(harness.Outcome("ok", 4.0, start_s=12.05))
    assert math.isclose(wall, (4.0 - 40 * 2 * n) / 2)  # 40 samples inside, at half speed
    # no sample inside: the nearest ones count
    wall, _ = probe.scaled(harness.Outcome("ok", 0.02, start_s=15.01))
    assert math.isclose(wall, 0.01)


def _traced(requests):
    tracer = Tracer()
    tracer.install()
    try:
        records = harness.run_requests(requests, cli.main, tracer)
    finally:
        tracer.uninstall()
    return tracer, records


def test_traced_run_repeats_counts_and_answers():
    requests = pools.round_requests(pools.WORKLOADS["lattice"], 7, 0, {})
    plain = harness.run_requests(requests, cli.main)
    t1, r1 = _traced(requests)
    t2, r2 = _traced(requests)
    assert t1.count_signature() == t2.count_signature()
    assert [harness.answer(r.outcome) for r in plain] == [harness.answer(r.outcome) for r in r1]
    assert all(r.failure is None for r in plain + r1 + r2)
    assert abs(sum(t1.self_s.values()) - t1.request_s()) < 1e-6  # the accounting identity
    assert t1.spans and t1.span_errors() == []
    assert {s[3] for s in t1.spans if s[1] is None} == {"bench.request"}
    root = next(s for s in t1.spans if s[1] is None)
    t1.spans.append((-1, root[0], root[2], "misplaced", root[4] - 1.0, root[5]))
    assert t1.span_errors() == ["misplaced (%s) is not inside its parent span" % root[2]]
    assert t1.layer_metrics()["zorders.contains_calls"] > 0
    # uninstall put every original back
    cubic, her3 = sys.modules["octad.cubic"], sys.modules["octad.her3"]
    assert her3.build_cubic is cubic.build_cubic and cubic.build_cubic.__module__ == "octad.cubic"


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "lattice", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
