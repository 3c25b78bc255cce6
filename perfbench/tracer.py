"""Per-layer tracing of octad from outside the program.

``Tracer.install`` replaces the public functions and methods listed in
TARGETS with wrappers, in every module that binds them (a module that
imported a function by name holds its own reference, and so does a dict
such as ``zorders.NAMED_LATTICES``).  ``uninstall`` restores the originals.

Three kinds of wrapper:

* ``span``  - each call is kept as a span (id, parent, request, name,
  start, end) and its self time is added to the layer;
* ``hot``   - self time and calls are added, but no span is kept: these run
  up to millions of times per round;
* ``count`` - calls are counted only; the wrapper is not on the span stack.

A kept span's parent is the nearest enclosing kept span, so the kept
spans form one tree per request; ``span_errors`` checks that they do.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of all layers plus the requests' own self time
(``bench.request``) add up to the traced request time: an accounting
identity, not a check.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

REQUEST = "bench.request"

TARGETS = (
    ("octad.cli", "parse_algebra", "cli.parse_algebra", "span"),
    ("octad.scalars", "IntegerRing.mul", "scalars.mul_calls.ZZ", "count"),
    ("octad.scalars", "RationalField.mul", "scalars.mul_calls.QQ", "count"),
    ("octad.scalars", "PrimeField.mul", "scalars.mul_calls.GF", "count"),
    ("octad.scalars", "ModularRing.mul", "scalars.mul_calls.Zmod", "count"),
    *(("octad.scalars", f"{cls}.add", "scalars.add_calls", "count")
      for cls in ("IntegerRing", "RationalField", "PrimeField", "ModularRing")),
    *(("octad.scalars", f"{cls}.is_zero", "scalars.is_zero_calls", "count")
      for cls in ("IntegerRing", "RationalField", "PrimeField", "ModularRing")),
    ("octad.extensions", "PolyExt.mul", "extensions.polyext_mul", "hot"),
    ("octad.extensions", "DualExt.mul", "extensions.dualext_mul_calls", "count"),
    ("octad.conic", "ConicAlgebra.mul_vec", "conic.mul_vec", "hot"),
    *(("octad.cayley", fn, "cayley.construct", "span")
      for fn in ("ground_algebra", "cayley_dickson", "iterated_cayley_dickson", "quaternions", "octonions", "sedenions")),
    ("octad.cayley", "composition_defect", "cayley.composition_defect", "span"),
    ("octad.cayley", "composition_defect_formula", "cayley.composition_defect", "span"),
    ("octad.quadforms", "QuadraticForm.eval_payload", "quadforms.eval_payload", "hot"),
    ("octad.quadforms", "block_det", "quadforms.block_det", "span"),
    ("octad.linalg", "det", "linalg.det", "span"),
    ("octad.linalg", "solve_rational", "linalg.solve_rational", "hot"),
    ("octad.identities", "strict_identity_check", "identities.strict", "span"),
    ("octad.identities", "sampled_identity_check", "identities.sampled", "span"),
    ("octad.cubic", "build_cubic", "cubic.build_cubic", "span"),
    ("octad.cubic", "CubicData.sharp_vec", "cubic.sharp_vec_calls", "count"),
    ("octad.cubic", "CubicData.cross_vec", "cubic.cross_vec_calls", "count"),
    ("octad.cubic", "CubicData.u_op_vec", "cubic.u_op_vec_calls", "count"),
    ("octad.cubic", "adjoint_identity_strict", "cubic.adjoint_strict", "span"),
    ("octad.cubic", "fundamental_formula_samples", "cubic.fundamental", "span"),
    ("octad.cubic", "validate_axioms", "cubic.validate_axioms", "span"),
    ("octad.her3", "her3", "her3.construct", "span"),
    ("octad.her3", "census_f2", "her3.census_f2", "span"),
    ("octad.her3", "associator_defect", "her3.associator_defect", "span"),
    *(("octad.tits", fn, "tits.construct", "span") for fn in ("mat3", "tits", "split_albert")),
    ("octad.zorn", "zorn_algebra", "zorn.construct", "span"),
    ("octad.zorn", "count_field", "zorn.count_field", "span"),
    *(("octad.zorders", fn, "zorders.construct", "span")
      for fn in ("gaussian", "hurwitz", "dickson_coxeter", "kirmse", "ZLattice.__init__")),
    ("octad.zorders", "ZLattice.enumerate_units", "zorders.enumerate_units", "span"),
    ("octad.zorders", "ZLattice.closed_under_mul", "zorders.closed_under_mul", "span"),
    ("octad.zorders", "ZLattice.contains", "zorders.contains", "hot"),
)


class Tracer:
    def __init__(self):
        self.self_s = defaultdict(float)
        self.incl_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()
        self.spans = []
        self.request_id = None
        self._stack = []
        self._ids = iter(range(1, 1 << 62))
        self._patches = []

    # -- wrappers --------------------------------------------------------------------
    def _timed(self, fn, name, keep_span, after=None):
        stack, clock, ids = self._stack, time.perf_counter, self._ids
        self_s, incl_s, calls, spans = self.self_s, self.incl_s, self.calls, self.spans
        on_error = self._on_error

        def wrapper(*args, **kwargs):
            # frame: child time, own id, id of the nearest kept span
            parent = stack[-1][2] if stack else None
            span_id = next(ids)
            frame = [0.0, span_id, span_id if keep_span else parent]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                on_error(exc)
                raise
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                self_s[name] += dur - frame[0]
                incl_s[name] += dur
                calls[name] += 1
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    spans.append((span_id, parent, self.request_id, name, start, end))
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _on_error(self, exc):
        from octad.identities import CostGuardError

        # count each cost-guard refusal once, where it is raised
        if isinstance(exc, CostGuardError) and not getattr(exc, "_traced", False):
            exc._traced = True
            self.counts["identities.cost_guard_errors"] += 1

    def _after_fundamental(self, verdict):
        done = verdict.details["samples"] if verdict.holds else verdict.details["trial"] + 1
        self.counts["cubic.fundamental_samples"] += done

    def _after_adjoint(self, verdict):
        self.counts["cubic.adjoint_tensor_verdicts"] += verdict.details.get("path") == "tensor"

    def run_request(self, request_id, fn):
        """Run one request as the root span ``bench.request``."""
        self.request_id = request_id
        return self._timed(fn, REQUEST, True)()

    # -- installing ------------------------------------------------------------------
    def install(self):
        import criteria  # the benchmark's criterion calls bind octad functions too
        import octad  # noqa: F401  (imports every module of the package)
        from octad.cubic import CUBIC_IDENTITIES
        from octad.identities import CONIC_IDENTITIES

        modules = [m for n, m in sys.modules.items() if n == "octad" or n.startswith("octad.")]
        modules.append(criteria)
        for mod_name, attr, name, how in TARGETS:
            holder = sys.modules[mod_name]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(holder, cls_name)
                orig = cls.__dict__[meth]
                self._set(cls, meth, orig, self._wrap(orig, name, how))
                continue
            orig = getattr(holder, attr)
            wrapped = self._wrap(orig, name, how)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, orig, wrapped)
                    elif isinstance(value, dict):
                        for dkey, dvalue in list(value.items()):
                            if dvalue is orig:
                                self._patches.append((value, dkey, orig, True))
                                value[dkey] = wrapped
        for spec in (*CONIC_IDENTITIES.values(), *CUBIC_IDENTITIES.values()):
            self._set(spec, "evaluate", spec.evaluate, self._counted(spec.evaluate, "identities.evaluations"))

    def _wrap(self, fn, name, how):
        if how == "count":
            return self._counted(fn, name)
        after = {"cubic.fundamental": self._after_fundamental, "cubic.adjoint_strict": self._after_adjoint}
        return self._timed(fn, name, how == "span", after.get(name))

    def _set(self, holder, key, orig, wrapped):
        self._patches.append((holder, key, orig, False))
        setattr(holder, key, wrapped)

    def uninstall(self):
        while self._patches:
            holder, key, orig, is_dict = self._patches.pop()
            if is_dict:
                holder[key] = orig
            else:
                setattr(holder, key, orig)

    # -- results -----------------------------------------------------------------------
    def request_s(self):
        return self.incl_s[REQUEST]

    def span_errors(self):
        """Every kept span lies inside its parent, in the same request, and
        only request spans are roots.  Returns the violations found."""
        by_id = {s[0]: s for s in self.spans}
        errors = []
        for span_id, parent, request, name, start, end in self.spans:
            if end < start:
                errors.append(f"{name} ends before it starts")
            if parent is None:
                if name != REQUEST:
                    errors.append(f"{name} has no parent")
                continue
            p = by_id.get(parent)
            if p is None or p[2] != request or not p[4] <= start <= end <= p[5]:
                errors.append(f"{name} ({request}) is not inside its parent span")
        return errors

    def layer_metrics(self):
        """The per-layer metrics, in BENCHMARK.json order (without bench.*)."""
        s, c, n = self.self_s, self.calls, self.counts
        total = self.request_s()
        adjoint_calls = c["cubic.adjoint_strict"]
        return {
            "cli.parse_algebra_s": s["cli.parse_algebra"],
            "cli.parse_algebra_share": self.incl_s["cli.parse_algebra"] / total if total else 0.0,
            "scalars.mul_calls.ZZ": n["scalars.mul_calls.ZZ"],
            "scalars.mul_calls.QQ": n["scalars.mul_calls.QQ"],
            "scalars.mul_calls.GF": n["scalars.mul_calls.GF"],
            "scalars.mul_calls.Zmod": n["scalars.mul_calls.Zmod"],
            "scalars.add_calls": n["scalars.add_calls"],
            "scalars.is_zero_calls": n["scalars.is_zero_calls"],
            "extensions.polyext_mul_calls": c["extensions.polyext_mul"],
            "extensions.polyext_mul_s": s["extensions.polyext_mul"],
            "extensions.dualext_mul_calls": n["extensions.dualext_mul_calls"],
            "conic.mul_vec_calls": c["conic.mul_vec"],
            "conic.mul_vec_s": s["conic.mul_vec"],
            "cayley.construct_s": s["cayley.construct"],
            "cayley.composition_defect_s": s["cayley.composition_defect"],
            "quadforms.eval_payload_calls": c["quadforms.eval_payload"],
            "quadforms.eval_payload_s": s["quadforms.eval_payload"],
            "quadforms.block_det_s": s["quadforms.block_det"],
            "linalg.det_calls": c["linalg.det"],
            "linalg.det_s": s["linalg.det"],
            "linalg.solve_rational_calls": c["linalg.solve_rational"],
            "linalg.solve_rational_s": s["linalg.solve_rational"],
            "identities.strict_s": s["identities.strict"],
            "identities.sampled_s": s["identities.sampled"],
            "identities.evaluations": n["identities.evaluations"],
            "identities.cost_guard_errors": n["identities.cost_guard_errors"],
            "cubic.build_cubic_calls": c["cubic.build_cubic"],
            "cubic.build_cubic_s": s["cubic.build_cubic"],
            "cubic.sharp_vec_calls": n["cubic.sharp_vec_calls"],
            "cubic.cross_vec_calls": n["cubic.cross_vec_calls"],
            "cubic.u_op_vec_calls": n["cubic.u_op_vec_calls"],
            "cubic.adjoint_strict_s": s["cubic.adjoint_strict"],
            "cubic.fundamental_s": s["cubic.fundamental"],
            "cubic.fundamental_samples": n["cubic.fundamental_samples"],
            "cubic.validate_axioms_s": s["cubic.validate_axioms"],
            "cubic.tensor_path_ratio": n["cubic.adjoint_tensor_verdicts"] / adjoint_calls if adjoint_calls else 0.0,
            "her3.construct_s": s["her3.construct"],
            "her3.census_f2_s": s["her3.census_f2"],
            "her3.associator_defect_s": s["her3.associator_defect"],
            "tits.construct_s": s["tits.construct"],
            "zorn.construct_s": s["zorn.construct"],
            "zorn.count_field_s": s["zorn.count_field"],
            "zorders.construct_s": s["zorders.construct"],
            "zorders.enumerate_units_s": s["zorders.enumerate_units"],
            "zorders.closed_under_mul_s": s["zorders.closed_under_mul"],
            "zorders.contains_calls": c["zorders.contains"],
            "zorders.contains_s": s["zorders.contains"],
        }

    def count_signature(self):
        """Every deterministic number the trace holds (calls and counts)."""
        return {**{f"calls:{k}": v for k, v in self.calls.items()}, **dict(self.counts)}
