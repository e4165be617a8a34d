"""Experiment registry: one named probe per verified claim.

Each experiment maps a JSON-friendly config to a Report whose canonical
payload (config echo, measured constants, ladder values, pass flags,
tables) is a pure function of (config, seed).  Wall-clock time is kept on
the report object and written to a sidecar file, never into the canonical
bytes, so identical runs emit identical reports.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from .corona import (
    build_forests,
    claim_audits,
    mixed_verify_dyadic,
    mixed_verify_global,
)
from .critical import RhoSpec, audit_admissibility, critical_covering
from .extrapolation import (
    _PROFILES,
    SCZOKernel,
    coifman_check,
    estimate_K0,
    ladder_exponent,
    mixed_for_T,
    rdf_audit,
)
from .grid import Cube, GridFunction
from .lorentz import (
    WeightedMeasure,
    distribution,
    interpolation_audit,
    rearrangement,
)
from .maximal import default_family, loc_glob_split_stack, m_rho_sigma_stack
from .suite import (
    SuiteBundle,
    domain_from_json,
    generate_suite,
    make_function,
    make_weight,
    rho_from_json,
    standard_suite_spec,
)
from .weights import RH_LADDER, THETA_LADDER, ap_ladder, rh_characteristic

__all__ = [
    "EXPERIMENT_KINDS",
    "Report",
    "UsageError",
    "default_config",
    "run_experiment",
    "run_many",
    "write_report",
]


class UsageError(ValueError):
    """Config schema violation; the message carries the field path."""


def _plain(x):
    """Recursively coerce numpy scalars/arrays for JSON emission."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_plain(v) for v in x.tolist()]
    if isinstance(x, (np.floating, float)):
        return float(x)
    if isinstance(x, (np.integer, int)):
        return int(x)
    if isinstance(x, (np.bool_, bool)):
        return bool(x)
    return x


@dataclass
class Report:
    experiment: str
    config: dict
    measured: dict
    passes: dict
    deltas: dict = field(default_factory=dict)
    tables: list = field(default_factory=list)
    wall_clock_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(bool(v) for v in self.passes.values())

    def canonical_json(self) -> str:
        payload = {
            "experiment": self.experiment,
            "config": _plain(self.config),
            "measured": _plain(self.measured),
            "passes": _plain(self.passes),
            "deltas": _plain(self.deltas),
            "tables": _plain(self.tables),
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def csv_text(self) -> str:
        return _csv_text(self.tables)


def _csv_text(rows) -> str:
    """Rows as CSV under their sorted union of keys; "" for no rows."""
    if not rows:
        return ""
    fields = sorted({k for row in rows for k in row})
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(_plain(row))
    return buf.getvalue()


def _write_atomic(path: str, text: str) -> None:
    """Write text to path through a rename, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path + ".tmp", "w") as fh:
        fh.write(text)
    os.replace(path + ".tmp", path)


def write_report(report: Report, outdir: str) -> list[str]:
    """Atomic emission: <id>.json, <id>.csv (when tabled), <id>.time.txt."""
    written = []
    base = os.path.join(outdir, report.experiment)
    for suffix, text in (
        (".json", report.canonical_json()),
        (".csv", report.csv_text()),
        (".time.txt", f"{report.wall_clock_s:.3f}\n"),
    ):
        if text:
            _write_atomic(base + suffix, text)
            written.append(base + suffix)
    return written


# ---------------------------------------------------------------------------
# config plumbing

def _require(config: dict, path: str, typ=None):
    node = config
    walked = []
    for part in path.split("."):
        walked.append(part)
        if not isinstance(node, dict) or part not in node:
            raise UsageError(f"config.{'.'.join(walked)} is required")
        node = node[part]
    if typ is not None and not isinstance(node, typ):
        raise UsageError(f"config.{path} must be {typ}")
    return node


def default_config(kind: str, dim: int = 1, level: int = 8, seed: int = 7) -> dict:
    base = standard_suite_spec(dim=dim, level=level, seed=seed)
    cfg = {"kind": kind, "suite": base, "seed": seed, "tolerances": {}}
    if kind in ("rho-audit",):
        cfg["rho"] = {"kind": "analytic", "name": "inv_one_plus_dist"}
        cfg["pairs"] = 2000
        cfg["sigmas"] = [1.0, 2.0, 4.0]
    if kind in ("mixed-T", "coifman"):
        profiles = [name for name, d in _PROFILES.items() if d == dim]
        if not profiles:
            raise UsageError(
                f"no kernel profile in dim {dim}; the profiles are "
                + ", ".join(f"{name} (dim {d})" for name, d in _PROFILES.items())
            )
        cfg["kernel"] = {"profile": profiles[0], "N": 0.0, "delta": 1.0,
                         "rho": {"kind": "classical"}}
    if kind == "rdf":
        cfg["depth"] = 12
    if kind == "maximal-eval":
        cfg["sigma"] = 0.0
        cfg["q"] = 1.0
    return cfg


def _kernel_from_json(obj: dict) -> SCZOKernel:
    return SCZOKernel(
        profile=_require(obj, "profile", str),
        N=float(obj.get("N", 0.0)),
        delta=float(obj.get("delta", 1.0)),
        rho=rho_from_json(obj.get("rho", {"kind": "classical"})),
    )


def _suite(config: dict) -> SuiteBundle:
    spec = _require(config, "suite", dict)
    return generate_suite(spec, int(config.get("seed", spec.get("seed", 0))))


# ---------------------------------------------------------------------------
# the experiments

def _exp_rho_audit(config):
    rho = rho_from_json(_require(config, "rho", dict))
    domain = domain_from_json(_require(config, "suite.domain", dict))
    tol = config.get("tolerances", {}).get("cover_residual", 0.10)
    measured, passes, tables = {}, {}, []
    adm = audit_admissibility(
        rho, domain, pair_sample_size=int(config.get("pairs", 2000)),
        seed=int(config.get("seed", 0)),
    )
    measured.update(
        C0=adm.C0, N0=adm.N0, max_violation=adm.max_violation,
        implied_C0_by_N0=adm.implied_C0_by_N0,
    )
    passes["admissible"] = adm.max_violation == 0.0
    if not rho.is_classical:
        sigmas = tuple(float(s) for s in config.get("sigmas", (1.0, 2.0, 4.0)))
        cover = critical_covering(rho, domain, sigmas=sigmas)
        measured.update(
            N1=cover.N1, C_fit=cover.C_fit, fit_residual=cover.fit_residual,
            cover_count=len(cover.centers), capped=cover.capped,
        )
        passes["cover_fit"] = cover.fit_residual <= tol
        for s, count in cover.overlap.items():
            tables.append({"sigma": s, "overlap": count})
    return measured, passes, {}, tables


def _exp_weights_char(config):
    bundle = _suite(config)
    fam = default_family(bundle.domain)
    measured, passes, tables = {}, {}, []
    worst = 0.0
    for i, pair in enumerate(bundle.pairs):
        for name, w in (("u", pair.u), ("v", pair.v)):
            ladder = ap_ladder(w, 2.0, THETA_LADDER, bundle.rho, fam)
            for theta, c in zip(THETA_LADDER, ladder):
                tables.append({
                    "pair": i, "label": pair.label, "weight": name,
                    "theta": theta, "p": 2.0, "ap": c.value,
                })
                worst = max(worst, c.value)
            for s in RH_LADDER:
                c = rh_characteristic(w, s, 0.0, bundle.rho, fam)
                tables.append({
                    "pair": i, "label": pair.label, "weight": name,
                    "theta": 0.0, "s": s, "rh": c.value,
                })
    measured["max_ap_char"] = worst
    measured["retries"] = bundle.retries_total
    passes["all_finite"] = math.isfinite(worst)
    return measured, passes, {}, tables


def _exp_maximal_eval(config):
    bundle = _suite(config)
    fam = default_family(bundle.domain)
    sigma = float(config.get("sigma", 0.0))
    q = float(config.get("q", 1.0))
    measured, passes, tables = {}, {}, []
    bad = 0
    stack = np.array([f.values for f in bundle.fs]).reshape((-1,) + bundle.domain.shape)
    splits = loc_glob_split_stack(stack, bundle.rho, sigma, fam)
    if q == 1.0:
        ms = [split.m.values for split in splits]
    else:
        ms = m_rho_sigma_stack(stack, bundle.rho, sigma, q, fam)
    for i, (split, m) in enumerate(zip(splits, ms)):
        arg = int(np.argmax(m))
        tables.append({
            "f": i, "max": float(m.max()), "argmax_cell": arg,
        })
        bad += int(split.max_upper_violation > 1e-12)
        bad += int(split.max_lower_violation > 1e-12)
    measured["sandwich_violations"] = bad
    passes["loc_glob_sandwich"] = bad == 0
    return measured, passes, {}, tables


def _box_root(domain) -> Cube:
    """The whole box as one cube."""
    return Cube(domain, (0,) * domain.dim, domain.n)


def _exp_corona_run(config):
    bundle = _suite(config)
    R = _box_root(bundle.domain)
    a = float(config.get("a", 2 ** (bundle.domain.dim + 1)))
    measured, passes, tables = {}, {}, []
    all_chain = True
    all_tail = True
    h1_bad = 0
    worst_ratio = 0.0
    for i, pair in enumerate(bundle.pairs):
        for j, f in enumerate(bundle.fs[:4]):
            rep = mixed_verify_dyadic(f, pair.u, pair.v, R, a)
            all_chain &= rep.upper_le_terms
            all_tail &= rep.tail_ok
            if math.isfinite(rep.ratio):
                worst_ratio = max(worst_ratio, rep.ratio)
            tables.append({
                "pair": i, "f": j, "ratio": rep.ratio, "k0": rep.k0,
                "I": rep.term_I, "II": rep.term_II,
                "sum_upper": rep.sum_upper, "tail": rep.tail_sum,
            })
            if rep.empty:
                continue
            forests = build_forests(rep.classified, pair.u)
            claims = claim_audits(forests, rep.classified, pair.u)
            h1_bad += sum(claims.h1_violations.values())
    measured["worst_ratio"] = worst_ratio
    measured["h1_violations"] = h1_bad
    passes["exact_chain"] = all_chain
    passes["tail_bound"] = all_tail
    passes["claim_h1"] = h1_bad == 0
    return measured, passes, {}, tables


def _refine(g: GridFunction) -> GridFunction:
    """g on the next level: every cell split into its 2^dim children."""
    vals = g.values
    for ax in range(g.domain.dim):
        vals = np.repeat(vals, 2, axis=ax)
    return GridFunction(g.domain.refine(), vals)


def _exp_mixed_m(config):
    bundle = _suite(config)
    fam = default_family(bundle.domain)
    tol = config.get("tolerances", {}).get("refinement", 0.25)
    measured, passes, tables = {}, {}, []
    deltas = {}
    finite = True
    first = None
    for i, pair in enumerate(bundle.pairs):
        theta = ladder_exponent(pair.u, bundle.rho, fam)
        for j, f in enumerate(bundle.fs[:4]):
            rep = mixed_verify_global(f, pair.u, pair.v, bundle.rho, theta=theta)
            finite &= math.isfinite(rep.constant_exact)
            tables.append({
                "pair": i, "f": j, "constant": rep.constant_exact,
                "sigma": rep.sigma, "theta": rep.theta,
                "loc": rep.loc_constant, "glob": rep.glob_constant,
            })
            if first is None:
                first = (pair, f, rep)
    measured["sigma"] = first[2].sigma if first else 0.0
    measured["theta"] = first[2].theta if first else 0.0
    if first is not None:
        pair, f, rep = first
        rep2 = mixed_verify_global(
            _refine(f), _refine(pair.u), _refine(pair.v), bundle.rho,
            sigma=rep.sigma, theta=rep.theta,
        )
        drift = abs(rep2.constant_exact - rep.constant_exact) / rep.constant_exact
        deltas["refinement"] = drift
        passes["refinement_stable"] = drift <= tol
    passes["all_finite"] = finite
    return measured, passes, deltas, tables


def _exp_mixed_t(config):
    bundle = _suite(config)
    kernel = _kernel_from_json(_require(config, "kernel", dict))
    fam = default_family(bundle.domain)
    measured, passes, tables = {}, {}, []
    finite = True
    for i, pair in enumerate(bundle.pairs):
        sigma = ladder_exponent(pair.u, kernel.rho, fam)
        for j, f in enumerate(bundle.fs[:3]):
            rep = mixed_for_T(f, pair.u, pair.v, kernel, sigma=sigma)
            finite &= math.isfinite(rep.constant)
            tables.append({
                "pair": i, "f": j, "constant": rep.constant,
                "weak_T": rep.weak_T, "weak_M": rep.weak_M,
                "comparison_C": rep.comparison_C, "sigma": rep.sigma,
            })
    passes["all_finite"] = finite
    measured["worst"] = max((r["constant"] for r in tables), default=0.0)
    return measured, passes, {}, tables


def _exp_coifman(config):
    bundle = _suite(config)
    kernel = _kernel_from_json(_require(config, "kernel", dict))
    theta = float(config.get("theta", 1.0))
    p = float(config.get("p", 2.0))
    tol = config.get("tolerances", {}).get("refinement", 0.5)
    w = bundle.pairs[0].u
    rep = coifman_check(kernel, w, p, theta, list(bundle.fs))
    rep2 = coifman_check(
        kernel, _refine(w), p, theta, [_refine(f) for f in bundle.fs]
    )
    drift = (
        abs(rep2.ratio_max - rep.ratio_max) / rep.ratio_max
        if rep.ratio_max > 0
        else 0.0
    )
    measured = {"ratio_max": rep.ratio_max, "ratio_max_fine": rep2.ratio_max,
                "p": p, "theta": theta, "w_ainf": rep.w_ainf}
    passes = {"finite": math.isfinite(rep.ratio_max),
              "refinement_stable": drift <= tol}
    tables = [{"f": i, "ratio": r} for i, r in enumerate(rep.ratios)]
    return measured, passes, {"refinement": drift}, tables


def _exp_rdf(config):
    bundle = _suite(config)
    fam = default_family(bundle.domain)
    depth = int(config.get("depth", 12))
    pair = bundle.pairs[0]
    sigma = ladder_exponent(pair.u, bundle.rho, fam)
    fs = [f.abs() for f in bundle.fs if float(np.max(np.abs(f.values))) > 0]
    state = estimate_K0(pair.u, pair.v, bundle.rho, sigma, None, fs, fam, depth)
    audit = rdf_audit(fs[0], pair.u, bundle.rho, sigma, state.K0, depth, fam)
    measured = {
        "K0": state.K0, "p0": state.p0, "q": state.q, "t": state.t,
        "eps": state.eps, "sigma": sigma, "tail_bound": audit.tail_bound,
        "char_value": audit.char_value, "char_bound": audit.char_bound,
    }
    passes = {
        "minorant_exact": audit.minorant_exact,
        "sandwich": audit.sandwich_violations == 0,
        "char_le_2K0": audit.char_ok,
    }
    return measured, passes, {}, []


def _exp_lorentz(config):
    bundle = _suite(config)
    rng = np.random.default_rng(int(config.get("seed", 0)) + 101)
    domain = bundle.domain
    count = int(config.get("instances", 200))
    bad = 0
    for _ in range(count):
        f = make_function(domain, {"kind": "random"}, rng)
        g = make_function(domain, {"kind": "random"}, rng)
        mu = WeightedMeasure(make_weight(domain, {"kind": "smooth_random"}, rng))
        table_f = rearrangement(f, mu)
        table_g = rearrangement(g, mu)
        t = float(rng.uniform(0, mu.total()))
        s = float(rng.uniform(0, f.values.max() or 1.0))
        fstar_t = table_f.f_star(t)
        bad += int(distribution(f, mu, fstar_t) > t + 1e-12)
        lam = distribution(f, mu, s)
        bad += int((fstar_t > s) != (t < lam)) if abs(t - lam) > 1e-12 else 0
        t1, t2 = t / 2, t / 3
        fg = GridFunction(domain, f.values + g.values)
        bad += int(
            rearrangement(fg, mu).f_star(t1 + t2)
            > table_f.f_star(t1) + table_g.f_star(t2) + 1e-12
        )
        bad += int(abs(table_f.f_star(0.0) - float(np.abs(f.values).max())) > 1e-12)
    measured = {"violations": bad, "instances": count}
    passes = {"properties": bad == 0}
    return measured, passes, {}, []


def _exp_interpolation(config):
    bundle = _suite(config)
    fam = default_family(bundle.domain)
    mu = WeightedMeasure(bundle.pairs[0].u)

    def T(stack):
        return m_rho_sigma_stack(stack, RhoSpec.classical(), 0.0, 1.0, fam)

    p0 = 1.0
    p = 2.0
    rep = interpolation_audit(T, p0, p, mu, list(bundle.fs))
    measured = {
        "C0": rep.C0, "C1": rep.C1, "bound_constant": rep.bound_constant,
        "max_ratio": rep.max_ratio, "hyp_max_ratio": rep.hyp_max_ratio,
        "checked": rep.checked,
    }
    passes = {"no_violations": rep.total_violations == 0}
    return measured, passes, {}, []


EXPERIMENT_KINDS = {
    "rho-audit": _exp_rho_audit,
    "weights-char": _exp_weights_char,
    "maximal-eval": _exp_maximal_eval,
    "corona-run": _exp_corona_run,
    "mixed-M": _exp_mixed_m,
    "mixed-T": _exp_mixed_t,
    "coifman": _exp_coifman,
    "rdf": _exp_rdf,
    "lorentz": _exp_lorentz,
    "interpolation": _exp_interpolation,
}


def run_experiment(config: dict) -> Report:
    """Dispatch one experiment; deterministic given (config, seed)."""
    if not isinstance(config, dict):
        raise UsageError("config must be a JSON object")
    kind = _require(config, "kind", str)
    if kind not in EXPERIMENT_KINDS:
        raise UsageError(
            f"config.kind must be one of {sorted(EXPERIMENT_KINDS)}"
        )
    start = time.perf_counter()
    measured, passes, deltas, tables = EXPERIMENT_KINDS[kind](config)
    elapsed = time.perf_counter() - start
    return Report(
        experiment=kind,
        config=config,
        measured=measured,
        passes=passes,
        deltas=deltas,
        tables=tables,
        wall_clock_s=elapsed,
    )


def run_many(configs: list[dict], outdir: str | None = None) -> list[Report]:
    """Run the experiments one after another, writing each report to outdir."""
    reports = [run_experiment(c) for c in configs]
    if outdir:
        for rep in reports:
            write_report(rep, outdir)
    return reports
