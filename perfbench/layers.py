"""Per-layer tracing of rhomix from outside the package.

``Tracer.install()`` wraps the public functions listed in ``LAYERS``.  Each
wrapper is rebound in every loaded ``rhomix`` module that imported the
function by name, so calls between modules are traced too; ``BoxSums`` is
patched on the class (its constructor and ``box_sum``).  A wrapper records
one span per call: name, start, end, the span that was open when it was
called, and the report it belongs to.  The self time of a span is its
duration minus the time its child spans cover.

Spans stay in memory and ``write`` saves them once the run is over.  The
per-layer metrics are per pass: counts and self times are summed over a
pass and the run reports their median over its passes; the shares are
taken over the whole run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import statistics
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _n_points(args, kwargs, result):
    return {"points": np.atleast_2d(np.asarray(args[1])).shape[0]}


def _n_cells(args, kwargs, result):
    return {"cells": np.asarray(args[1]).size}


def _n_anchors(args, kwargs, result):
    return {"cubes": np.atleast_2d(np.asarray(args[1])).shape[0]}


def _family_size(position):
    def work(args, kwargs, result):
        from rhomix.maximal import default_family

        fam = args[position] if len(args) > position else kwargs.get("cubes")
        if fam is None:
            fam = default_family(args[0].domain)
        return {"cubes": _family_count(fam)}
    return work


def _family_count(fam) -> int:
    """CubeFamily.count() without building every side's anchor array."""
    from rhomix.grid import ALL_CELL_ALIGNED

    n = fam.domain.n
    if fam.policy == ALL_CELL_ALIGNED:
        return n * (n + 1) // 2
    span = fam.root.side_cells if fam.root is not None else n
    return sum((span // s) ** fam.domain.dim for s in fam.side_cells_list())


def _n_returned(args, kwargs, result):
    return {"cubes": len(result)}


def _n_pairs(args, kwargs, result):
    return {"pairs": args[0].values.size ** 2}


def _n_steps(args, kwargs, result):
    return {"steps": result.values.size}


def _n_samples(args, kwargs, result):
    return {"samples": result.sample_count}


def _validations(args, kwargs, result):
    spec = args[0]
    accepted = 2 * int(spec.get("pair_count", len(spec.get("weights") or [0])))
    return {"accepted": accepted, "attempts": accepted + result.retries_total}


# (module, attribute, metric stem, stats, work counter)
# stats name the metrics reported; "pool" and the shares are special below
LAYERS = [
    ("grid", "BoxSums.__init__", "grid.BoxSums", ("calls", "cells", "self_s"), _n_cells),
    ("grid", "BoxSums.box_sum", "grid.BoxSums.box_sum", ("calls", "cubes", "self_s"), _n_anchors),
    ("grid", "dyadic_sum_pyramid", "grid.dyadic_sum_pyramid", ("calls", "self_s"), None),
    ("critical", "rho_values", "critical.rho_values", ("calls", "points", "self_s"), _n_points),
    ("critical", "growth_factor", "critical.growth_factor", ("calls", "self_s"), None),
    ("critical", "audit_admissibility", "critical.audit_admissibility", ("calls", "self_s"), None),
    ("critical", "critical_covering", "critical.critical_covering",
     ("calls", "self_s", "distinct_share"), None),
    ("weights", "ap_characteristic", "weights.ap_characteristic",
     ("calls", "cubes", "self_s", "distinct_share"), _family_size(4)),
    ("weights", "rh_characteristic", "weights.rh_characteristic", ("calls", "self_s"), None),
    ("weights", "ainf_epsilon_form", "weights.ainf_epsilon_form",
     ("calls", "samples", "self_s"), _n_samples),
    ("maximal", "m_rho_sigma", "maximal.m_rho_sigma",
     ("calls", "cubes", "self_s", "distinct_share"), _family_size(4)),
    ("maximal", "loc_glob_split", "maximal.loc_glob_split", ("calls", "self_s"), None),
    ("maximal", "m_dyadic", "maximal.m_dyadic", ("calls", "self_s"), None),
    ("corona", "cz_on_cube", "corona.cz_on_cube", ("calls", "cubes", "self_s"), _n_returned),
    ("corona", "level_decomposition", "corona.level_decomposition", ("calls", "self_s"), None),
    ("corona", "classify", "corona.classify", ("self_s",), None),
    ("corona", "build_forests", "corona.build_forests", ("self_s",), None),
    ("corona", "claim_audits", "corona.claim_audits", ("self_s",), None),
    ("corona", "mixed_verify_dyadic", "corona.mixed_verify_dyadic", ("calls", "self_s"), None),
    ("corona", "mixed_verify_global", "corona.mixed_verify_global", ("calls", "self_s"), None),
    ("extrapolation", "sczo_apply", "extrapolation.sczo_apply",
     ("calls", "pairs", "self_s"), _n_pairs),
    ("extrapolation", "s_operator", "extrapolation.s_operator", ("calls", "self_s"), None),
    ("extrapolation", "ladder_exponent", "extrapolation.ladder_exponent",
     ("calls", "self_s", "distinct_share"), None),
    ("extrapolation", "estimate_K0", "extrapolation.estimate_K0", ("self_s",), None),
    ("extrapolation", "rdf_audit", "extrapolation.rdf_audit", ("self_s",), None),
    ("extrapolation", "mixed_for_T", "extrapolation.mixed_for_T", ("self_s",), None),
    ("lorentz", "rearrangement", "lorentz.rearrangement",
     ("calls", "steps", "self_s"), _n_steps),
    ("lorentz", "lorentz_norm", "lorentz.lorentz_norm", ("calls", "self_s"), None),
    ("lorentz", "distribution", "lorentz.distribution", ("calls", "self_s"), None),
    ("lorentz", "interpolation_audit", "lorentz.interpolation_audit", ("self_s", "pool"), None),
    ("suite", "generate_suite", "suite.generate_suite",
     ("calls", "self_s", "accept_share"), _validations),
    ("experiments", "run_experiment", "experiments.run_experiment", ("self_s",), None),
]

UNITS = {"self_s": "s", "distinct_share": "ratio", "accept_share": "ratio"}

#: the traced run's own pass time; minus the plain run's pass_s it is the
#: tracing overhead
OVERHEAD_METRIC = "trace.pass_s"


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = [(f"{stem}.{stat}", UNITS.get(stat, "count"))
           for _, _, stem, stats, _ in LAYERS for stat in stats]
    return out + [(OVERHEAD_METRIC, "s")]


def _arg_key(x):
    """Hashable identity of one argument, by value for arrays."""
    from rhomix.critical import RhoSpec
    from rhomix.grid import CubeFamily, GridFunction

    if isinstance(x, GridFunction):
        return ("gf", x.domain, _digest(x.values))
    if isinstance(x, RhoSpec):
        return ("rho", x.kind, x.c, x.name, id(x.fn), id(x.potential))
    if isinstance(x, CubeFamily):
        return ("fam", x.domain, x.policy, x.root)
    if isinstance(x, (list, tuple)):
        return tuple(_arg_key(v) for v in x)
    return x


def _digest(arr: np.ndarray) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(arr).tobytes(), digest_size=16).digest()


class Tracer:
    def __init__(self):
        self.enabled = False
        self.names: list[str] = []
        # one entry per finished span
        self.span_id = array("q")
        self.parent = array("q")
        self.name_id = array("i")
        self.report = array("q")
        self.start = array("d")
        self.end = array("d")
        self._next_id = 0
        self._stack: list[list] = []       # [span id, child time]
        self.report_index = -1
        self.pass_totals: list[defaultdict] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.share_calls: dict[str, int] = defaultdict(int)
        self.accepted = 0
        self.attempts = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import importlib

        for module, attr, stem, stats, work in LAYERS:
            mod = importlib.import_module(f"rhomix.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, self._wrap(stem, getattr(cls, meth), stats, work))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(stem, orig, stats, work)
            for name, loaded in list(sys.modules.items()):
                if name == "rhomix" or name.startswith("rhomix."):
                    for key, val in list(vars(loaded).items()):
                        if val is orig:
                            setattr(loaded, key, wrapped)

    def _wrap(self, stem, fn, stats, work):
        name_id = len(self.names)
        self.names.append(stem)
        signature = inspect.signature(fn) if "distinct_share" in stats else None
        pool_key = f"{stem}.pool" if "pool" in stats else None
        calls_key, self_key = f"{stem}.calls", f"{stem}.self_s"
        stat_keys = {stat: f"{stem}.{stat}" for stat in stats}
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            totals = tracer.pass_totals[-1]
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(_arg_key(v) for v in bound.arguments.values())
                tracer.distinct[stem].add((tracer.report_index, key))
                tracer.share_calls[stem] += 1
            if pool_key is not None:
                T = args[0]

                def counted(g):
                    totals[pool_key] += 1
                    return T(g)

                args = (counted,) + args[1:]
            if stem == "experiments.run_experiment":
                tracer.report_index += 1
            span = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [span, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += duration
                tracer._record(span, parent, name_id, start, end)
                totals[calls_key] += 1
                totals[self_key] += duration - frame[1]
            if work is not None:
                for stat, value in work(args, kwargs, result).items():
                    if stat == "accepted":
                        tracer.accepted += value
                    elif stat == "attempts":
                        tracer.attempts += value
                    else:
                        totals[stat_keys[stat]] += value
            return result

        return traced

    def _record(self, span, parent, name_id, start, end) -> None:
        self.span_id.append(span)
        self.parent.append(parent)
        self.name_id.append(name_id)
        self.report.append(self.report_index)
        self.start.append(start)
        self.end.append(end)

    # -- per pass -----------------------------------------------------------

    def begin_pass(self) -> None:
        self.pass_totals.append(defaultdict(float))

    def metrics(self, traced_pass_s: float) -> dict:
        out = {}
        for name, unit in metric_names():
            if name == OVERHEAD_METRIC:
                value = traced_pass_s
            elif name.endswith(".distinct_share"):
                stem = name[: -len(".distinct_share")]
                calls = self.share_calls[stem]
                # no calls means nothing was recomputed
                value = len(self.distinct[stem]) / calls if calls else 1.0
            elif name.endswith(".accept_share"):
                value = self.accepted / self.attempts if self.attempts else 1.0
            else:
                value = statistics.median(t.get(name, 0.0) for t in self.pass_totals)
            out[name] = {"value": value, "unit": unit}
        return out

    def write(self, path) -> None:
        """Save every span: ids, parent ids, names, reports, start/end times."""
        np.savez(
            path,
            names=np.array(self.names),
            span_id=np.frombuffer(self.span_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            report=np.frombuffer(self.report, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
