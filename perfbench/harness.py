"""Running requests, checking their answers and summarizing a run."""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

REQUEST_TIMEOUT_S = 60.0
TAIL_LADDER = (99.9, 99.5, 99.0, 95.0, 90.0, 80.0, 75.0, 50.0)
SETUP_LAUNCHES = 11  # before the timed part, and as many again after it
# A reference launch starts an interpreter and imports the standard modules
# that octad imports, but not octad; setup_s is scaled by its nominal time
# over its median time, as request times are by the speed probe below.
REFERENCE_SNIPPET = "import argparse, fractions, itertools, json, random"
REFERENCE_NOMINAL_S = 0.1  # about the reference launch's time on the baseline host
SETUP_SNIPPET = (
    "import sys; from octad import cli; "
    "sys.exit(cli.main(['lattice', 'disc', 'hurwitz', '--json']))"
)


class RequestTimeout(BaseException):
    """Raised from the alarm handler.  A BaseException, so that no handler
    in the program under test can swallow it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


@dataclass
class Outcome:
    status: str  # ok | exception | timeout
    latency_s: float
    code: int | None = None
    stdout: str = ""
    stderr: str = ""
    value: object = None
    error: str = ""
    cpu_s: float = 0.0  # process CPU time (user + sys) of an answered request
    start_s: float = 0.0  # time.perf_counter() when the request was sent


def execute(request, cli_main, tracer=None):
    """Run one request in this process and return its Outcome.

    With a tracer, the call runs inside the tracer's root span.
    """
    if request.argv is not None:
        argv = list(request.argv)
        fn = lambda: cli_main(argv)  # noqa: E731
    else:
        fn = request.call
    out, err = io.StringIO(), io.StringIO()
    signal.signal(signal.SIGALRM, _on_alarm)
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, REQUEST_TIMEOUT_S)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            result = tracer.run_request(request.label, fn) if tracer else fn()
        signal.setitimer(signal.ITIMER_REAL, 0)
        latency, cpu = time.perf_counter() - start, time.process_time() - cpu0
        if request.argv is not None:
            return Outcome("ok", latency, code=result, stdout=out.getvalue(), stderr=err.getvalue(),
                           cpu_s=cpu, start_s=start)
        return Outcome("ok", latency, value=result, cpu_s=cpu, start_s=start)
    except RequestTimeout:
        return Outcome("timeout", time.perf_counter() - start, error=f"timeout after {REQUEST_TIMEOUT_S:g} s",
                       start_s=start)
    except Exception as exc:  # the program crashed: record it as this request's failure
        return Outcome("exception", time.perf_counter() - start, error=f"{type(exc).__name__}: {exc}",
                       start_s=start)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


# -- answer checks ---------------------------------------------------------------------


def _det(rows):
    """Exact determinant by fraction elimination (independent of octad.linalg)."""
    m = [[Fraction(c) for c in row] for row in rows]
    n, det = len(m), Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


def _first_word(text):
    return text.split()[0]


def _check_gram(gram, disc):
    g = [[Fraction(c) for c in row] for row in gram]
    n = len(g)
    if any(g[i][j] != g[j][i] or g[i][j].denominator != 1 for i in range(n) for j in range(n)):
        return "gram is not symmetric and integral"
    if _det(g) != Fraction(disc):
        return f"det(gram) = {_det(g)}, want {disc}"
    return None


def _check_export(blob, disc):
    # every named lattice sits in an algebra with norm = sum of squares, so
    # the Gram matrix of the bilinearized norm is 2 B B^T
    basis = [[Fraction(c) for c in row] for row in blob["basis"]]
    want = [[str(2 * sum(a * b for a, b in zip(u, v))) for v in basis] for u in basis]
    gram = [[str(Fraction(c)) for c in row] for row in blob["gram"]]
    if gram != want:
        return "gram is not 2 B B^T"
    if blob["disc"] != disc or len(basis) != blob["ambient_dim"]:
        return f"disc {blob['disc']} or rank {len(basis)} is wrong"
    return _check_gram(blob["gram"], disc)


def _check_units(units, count):
    points = {tuple(Fraction(c) for c in u.strip("()").split(",")) for u in units}
    if len(units) != count or len(points) != count:
        return f"{len(units)} units ({len(points)} distinct), want {count}"
    if any(sum(c * c for c in p) != 1 for p in points):
        return "a unit has norm != 1"
    return None


def _check_table(blob, kind):
    dim, table = blob["dim"], blob["table"]
    one, zero = table[0][0][0], table[0][0][1]  # e0 * e0 = e0 renders the ring's 1 and 0

    def vec(i, c):
        return [c if k == i else zero for k in range(dim)]

    if kind == "zorn":
        # E, E' are orthogonal idempotents with E + E' = 1
        unit = [one, one] + [zero] * (dim - 2)
        ok = (dim == 8 and blob["unit"] == unit and table[0][0] == vec(0, one)
              and table[1][1] == vec(1, one) and table[0][1] == [zero] * dim)
        return None if ok else "Zorn table: E, E' are not orthogonal idempotents"
    # Cayley-Dickson with every mu = -1: e0 is the unit and e_i^2 = -1
    minus_one = table[1][1][0]
    ok = blob["unit"] == vec(0, one) and all(table[0][b] == vec(b, one) == table[b][0] for b in range(dim))
    ok = ok and all(table[a][a] == vec(0, minus_one) for a in range(1, dim)) and minus_one != one
    ok = ok and all(blob["norm_coeffs"].get(f"{i},{i}") == one for i in range(dim))
    return None if ok else "Cayley-Dickson table: unit or squares are wrong"


def _check_grid(stdout):
    # Cartan-Schouten octonions: 1 is the unit, u_i^2 = -1, and distinct
    # units anticommute with a product that is +- one unit
    rows = [line.split() for line in stdout.splitlines() if not re.fullmatch(r"\[\d+ ms\]", line)]
    names = ["1"] + [f"u{i}" for i in range(1, 8)]
    if rows[0] != names or [r[0] for r in rows[1:]] != names or len(rows) != 9:
        return "grid headers are wrong"
    cell = {(a, b): rows[a + 1][b + 1] for a in range(8) for b in range(8)}
    for a in range(8):
        if cell[(0, a)] != names[a] or cell[(a, 0)] != names[a]:
            return "1 is not the unit"
        if a and cell[(a, a)] != "-1":
            return f"{names[a]}^2 != -1"
        for b in range(1, 8):
            if a and a != b:
                x, y = cell[(a, b)], cell[(b, a)]
                if x.lstrip("-") not in names[1:] or y != ("-" + x).replace("--", ""):
                    return f"{names[a]} and {names[b]} do not anticommute"
    return None


def check(expect, outcome):
    """None when the outcome matches the expected answer, else the reason."""
    if outcome.status != "ok":
        return outcome.error
    if "result" in expect:
        return None if outcome.value == expect["result"] else f"got {outcome.value!r}"
    if outcome.code != expect["exit"]:
        return f"exit {outcome.code}, want {expect['exit']}: {outcome.stderr.strip()[:200]}"
    if "error" in expect:
        lines = outcome.stderr.splitlines()
        ok = outcome.stdout == "" and len(lines) == 1 and lines[0].startswith(expect["error"])
        return None if ok else f"want one {expect['error']!r} line, got {outcome.stderr[:200]!r}"
    try:
        return _check_report(expect, outcome.stdout)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return f"malformed output ({type(exc).__name__}: {exc}): {outcome.stdout[:200]!r}"


def _check_report(expect, stdout):
    if "grid" in expect:
        return _check_grid(stdout)
    report = json.loads(stdout)
    for key, want in expect.items():
        bad = None
        if key in ("verdict", "count", "split", "disc", "member", "witness"):
            bad = None if report.get(key) == want else f"{key} = {report.get(key)!r}, want {want!r}"
        elif key == "checks":
            for name, w in want.items():
                got = report["checks"][name]
                if isinstance(w, str):
                    w = {"verdict": w}
                if any(got.get(k) != v for k, v in w.items()):
                    bad = f"check {name} = {got}, want {w}"
        elif key == "axioms":
            got = report["checks"]["axioms"]
            verdicts = {n: _first_word(got[n]) for n in want if n in got}
            if verdicts != {n: "Holds" for n in want}:
                bad = f"axioms {got}"
        elif key == "units":
            bad = _check_units(report["units"], want) or (
                None if report["count"] == want else f"count {report['count']}")
        elif key == "gram":
            bad = _check_gram(report["gram"], want)
        elif key == "export":
            bad = _check_export(report["lattice"], want)
        elif key == "table":
            bad = _check_table(report["table"], want)
        if bad:
            return bad
    return None


def answer(outcome):
    """The outcome without its timing fields, for comparing two runs."""
    if outcome.status != "ok":
        return outcome.status
    if outcome.value is not None or outcome.code is None:
        return repr(outcome.value)
    try:
        report = json.loads(outcome.stdout)
        report.pop("millis", None)
        text = json.dumps(report, sort_keys=True)
    except ValueError:
        text = re.sub(r"(?m)^\[\d+ ms\]$", "", outcome.stdout)
    return f"{outcome.code}|{text}|{outcome.stderr}"


# -- runs --------------------------------------------------------------------------------


@dataclass
class Record:
    key: str
    label: str
    outcome: Outcome
    failure: str | None


def run_requests(requests, cli_main, tracer=None):
    records = []
    for req in requests:
        outcome = execute(req, cli_main, tracer)
        records.append(Record(req.key, req.label, outcome, check(req.expect, outcome)))
    return records


# -- host-speed correction ----------------------------------------------------------------
#
# The host is shared.  Its speed switches between a fast and a slow state
# (about 1.6 times apart) many times a second, and the share of time spent
# in the slow state drifts between runs and processes; wall and CPU time
# drift alike (README.md, Noise).  While a run's requests execute, a
# SIGPROF handler times a tiny fixed task every PROBE_INTERVAL_S of process
# CPU time.  Each request's times, less the time spent in the samples, are
# scaled by the task's nominal time over its interquartile mean time in the
# samples taken during the request (at least PROBE_MIN_SAMPLES, the nearest
# ones in time for a short request).  A scaled time is the time the
# request would take on a host where the task takes its nominal time.  The
# task does the kind of work octad spends its time on: Fraction and
# big-integer arithmetic in small loops.  It does not touch octad, so a
# change to the program shows in full.

PROBE_TERMS = 150
PROBE_NOMINAL_S = 0.0003  # about the task's time on the baseline host
PROBE_INTERVAL_S = 0.02
PROBE_MIN_SAMPLES = 4


def _probe_task():
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Samples the host's speed while it is installed (``with SpeedProbe():``)."""

    def __init__(self):
        self.ends, self.samples = [], []  # end time and wall time of each sample

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _probe_task()
        end = time.perf_counter()
        self.ends.append(end)
        self.samples.append(end - start)

    def __enter__(self):
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def scaled(self, outcome):
        """The outcome's wall and CPU time on the nominal host.  The process
        CPU clock ticks too coarsely to time one sample, so CPU time is
        scaled by the wall-time samples too; steal time is near zero."""
        start, end = outcome.start_s, outcome.start_s + outcome.latency_s
        lo, hi = bisect.bisect_left(self.ends, start), bisect.bisect_right(self.ends, end)
        spent = sum(self.samples[lo:hi])
        while hi - lo < PROBE_MIN_SAMPLES and (lo > 0 or hi < len(self.ends)):
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.ends))
        near = sorted(self.samples[lo:hi])
        trim = len(near) // 4  # the interquartile mean: a sample can be hit by a spike
        factor = PROBE_NOMINAL_S / statistics.fmean(near[trim:len(near) - trim])
        return (outcome.latency_s - spent) * factor, max(outcome.cpu_s - spent, 0.0) * factor


def tail_percentile(n):
    """The highest ladder percentile with at least ten of ``n`` requests
    beyond it (nearest-rank)."""
    for pct in TAIL_LADDER:
        if n - math.ceil(pct / 100 * n) >= 10:
            return pct
    return 50.0


def percentile(latencies, pct):
    """Nearest-rank percentile."""
    ordered = sorted(latencies)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def setup_launch(root):
    """Wall time of a fresh interpreter importing octad.cli and answering
    ``lattice disc hurwitz``, and of the reference launch after it."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_SNIPPET], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or json.loads(proc.stdout)["disc"] != "4":
        raise RuntimeError(f"set-up launch failed: {proc.stderr.strip()[:300]}")
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", REFERENCE_SNIPPET], cwd=root, capture_output=True, timeout=120, check=True)
    return elapsed, time.perf_counter() - start
