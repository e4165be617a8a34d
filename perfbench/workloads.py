"""The three workloads of the benchmark and the checks on their reports.

A workload is a fixed list of experiment configs, all run through
``rhomix.experiments.run_experiment``.  ``configs(workload, seed)`` builds
one pass: every config of the list with its suite seed set to ``seed``.
The run gives pass ``i`` the seed ``base_seed + i``, so no pass can reuse
a result cached by the pass before it.

``check(config, report)`` returns ``None`` when the report is correct and a
message otherwise.  Each check recomputes a reported number apart from
rhomix, in plain numpy, or tests a property the method must have; none
compares against a stored copy of an earlier output.  Where the check needs
the report's inputs it regenerates them from the same (spec, seed) with
``rhomix.suite.generate_suite``, which is deterministic.
"""

from __future__ import annotations

import math

import numpy as np

ANALYTIC = {"kind": "analytic", "name": "inv_one_plus_dist"}
CLASSICAL = {"kind": "classical"}
RIESZ = {"profile": "riesz_x", "N": 0.0, "delta": 1.0, "rho": CLASSICAL}

# Plain-numpy forms of the registry rho used above, for the brute-force checks.
RHO_FORMULAS = {"inv_one_plus_dist": lambda x: 1.0 / (1.0 + np.abs(x))}

# (kind, dim, level, rho, suite overrides, experiment overrides); the suite
# is rhomix's standard suite spec with these overrides applied.
WORKLOADS = {
    # cube-family sweeps with a non-classical rho: maximal._sweep_max,
    # weights._sweep and critical.growth_factor do most of the work
    "sweep": [
        ("maximal-eval", 1, 8, ANALYTIC, {"pair_count": 1, "f_count": 4},
         {"sigma": 1.0, "q": 1.0}),
        ("weights-char", 2, 6, ANALYTIC, {}, {}),
        ("mixed-M", 1, 7, ANALYTIC, {"pair_count": 1, "f_count": 2}, {}),
        ("interpolation", 1, 6, ANALYTIC, {"pair_count": 1, "f_count": 4}, {}),
        ("corona-run", 1, 8, ANALYTIC, {}, {}),
        # fails on every input today (weights._cube_extremes rejects the
        # DYADIC_GRID_OF family); counted as failed, never skipped
        ("corona-run", 2, 6, ANALYTIC, {}, {}),
    ],
    # the extrapolation chain: ainf_epsilon_form in rdf, dense sczo_apply
    # in mixed-T
    "extrap": [
        ("rdf", 1, 8, ANALYTIC, {"pair_count": 1, "f_count": 4}, {"depth": 6}),
        ("mixed-T", 2, 6, CLASSICAL, {"pair_count": 1, "f_count": 1},
         {"kernel": RIESZ}),
    ],
    # Lorentz level sets: lorentz.rearrangement's masked sums
    "levelset": [
        ("lorentz", 2, 6, ANALYTIC, {}, {"instances": 6}),
        ("rdf", 2, 6, ANALYTIC, {"pair_count": 1}, {"depth": 12}),
    ],
}

# the untimed report each process runs once before it measures anything
WARMUP = ("maximal-eval", 1, 5, ANALYTIC, {"pair_count": 1, "f_count": 2},
          {"sigma": 1.0})


def make_config(entry, seed: int) -> dict:
    from rhomix.suite import standard_suite_spec

    kind, dim, level, rho, suite_over, exp_over = entry
    suite = standard_suite_spec(dim=dim, level=level, seed=seed)
    suite["rho"] = dict(rho)
    suite.update(suite_over)
    config = {"kind": kind, "suite": suite, "seed": seed, "tolerances": {}}
    config.update(exp_over)
    return config


def configs(workload: str, seed: int) -> list[dict]:
    return [make_config(entry, seed) for entry in WORKLOADS[workload]]


def label(config: dict) -> str:
    return f"{config['kind']}/dim{config['suite']['domain']['dim']}"


# ---------------------------------------------------------------------------
# helpers shared by the checks

REL = 1e-9


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _bundle(config: dict):
    from rhomix.suite import generate_suite

    return generate_suite(config["suite"], int(config["seed"]))


def _rho_formula(config: dict):
    rho = config["suite"]["rho"]
    if rho["kind"] != "analytic":
        raise ValueError(f"no plain formula for rho {rho}")
    return RHO_FORMULAS[rho["name"]]


def _interval_scores(a: np.ndarray, h: float, s: int, sigma: float, rho_fn):
    """Penalized averages of a over every interval of s cells (dim 1)."""
    n = a.size
    csum = np.concatenate([[0.0], np.cumsum(a)])
    anchors = np.arange(n - s + 1)
    avg = (csum[anchors + s] - csum[anchors]) / s
    centers = (anchors + s / 2.0) * h
    return avg * (1.0 + (s * h / 2.0) / rho_fn(centers)) ** (-sigma)


def _brute_sup_at(a: np.ndarray, cell: int, h: float, sigma: float, rho_fn) -> float:
    """sup over every interval containing cell of its penalized average."""
    n = a.size
    best = -math.inf
    for s in range(1, n + 1):
        scores = _interval_scores(a, h, s, sigma, rho_fn)
        lo, hi = max(0, cell - s + 1), min(cell, n - s)
        if lo <= hi:
            best = max(best, float(scores[lo:hi + 1].max()))
    return best


def _brute_maximal(a: np.ndarray, h: float, sigma: float, rho_fn) -> np.ndarray:
    """Cellwise sup over every interval containing the cell (dim 1)."""
    n = a.size
    out = np.full(n, -np.inf)
    for s in range(1, n + 1):
        padded = np.full(n + s - 1, -np.inf)
        padded[s - 1:s - 1 + n - s + 1] = _interval_scores(a, h, s, sigma, rho_fn)
        windows = np.lib.stride_tricks.sliding_window_view(padded, s)
        np.maximum(out, windows.max(axis=1), out=out)
    return out


def _weak_norm(T: np.ndarray, density: np.ndarray, vol: float) -> float:
    """sup_t t mu({T > t}) = max_k T_k mu({T >= T_k}) by one sort."""
    order = np.argsort(-T, kind="stable")
    mass = np.cumsum(density[order]) * vol
    return float(np.max(T[order] * mass))


def _grid_sup(T: np.ndarray, density: np.ndarray, vol: float) -> float:
    """The t-grid restriction the verifiers report next to the exact sup."""
    tmax = float(T.max())
    grid = np.geomspace(max(tmax * 1e-6, 1e-300), tmax, 64)
    return max(t * float(density[T > t].sum()) * vol for t in grid)


def _dyadic_maximal(g: np.ndarray) -> np.ndarray:
    """Dyadic maximal function over the whole box from a reshape-mean pyramid."""
    dim = g.ndim
    out = g.copy()
    level = g
    side = 1
    while level.shape[0] > 1:
        for ax in range(dim):
            shape = list(level.shape)
            shape[ax] //= 2
            shape.insert(ax + 1, 2)
            level = level.reshape(shape).mean(axis=ax + 1)
        side *= 2
        up = level
        for ax in range(dim):
            up = np.repeat(up, side, axis=ax)
        np.maximum(out, up, out=out)
    return out


def _flags(report, skip=()) -> str | None:
    bad = [k for k, v in report.passes.items() if k not in skip and not v]
    return f"pass flags false: {bad}" if bad else None


# ---------------------------------------------------------------------------
# the checks, one per experiment kind

def _check_maximal_eval(config, report):
    bundle = _bundle(config)
    rho_fn = _rho_formula(config)
    sigma, q = float(config["sigma"]), float(config["q"])
    h = bundle.domain.cell_width
    for row in report.tables:
        a = np.abs(bundle.fs[row["f"]].values) ** q
        sup = _brute_sup_at(a, row["argmax_cell"], h, sigma, rho_fn) ** (1.0 / q)
        if not _close(sup, row["max"]):
            return f"f{row['f']}: sup at the argmax cell {sup!r} != max {row['max']!r}"
    return _flags(report)


def _check_weights_char(config, report):
    ladders: dict[tuple, list[tuple[float, float]]] = {}
    for row in report.tables:
        value = row.get("ap", row.get("rh"))
        # Holder (A_p) and Jensen (reverse Holder) put every undiscounted
        # characteristic at 1 or above; the factor^theta discount may push
        # the discounted ones below 1, so only theta = 0 is held to it
        if row["theta"] == 0.0 and value < 1.0 - 1e-12:
            return f"characteristic {value!r} below 1 in {row}"
        if "ap" in row:
            ladders.setdefault((row["pair"], row["weight"]), []).append(
                (row["theta"], value))
    for key, ladder in ladders.items():
        ladder.sort()
        for (t0, c0), (t1, c1) in zip(ladder, ladder[1:]):
            if c1 > c0 * (1.0 + 1e-12):
                return f"{key}: characteristic rises from theta {t0} to {t1}"
    return _flags(report)


def _check_mixed_m(config, report):
    bundle = _bundle(config)
    rho_fn = _rho_formula(config)
    dom = bundle.domain
    vol = dom.cell_volume
    for row in report.tables:
        pair = bundle.pairs[row["pair"]]
        f = bundle.fs[row["f"]].values
        u, v = pair.u.values, pair.v.values
        m = _brute_maximal(np.abs(f * v), dom.cell_width, row["sigma"], rho_fn)
        T = m / v
        integral = float(np.sum(np.abs(f) * u * v)) * vol
        exact = _weak_norm(T, u * v, vol) / integral
        if not _close(exact, row["constant"], 1e-6):
            return f"{row}: brute-force constant {exact!r}"
        if _grid_sup(T, u * v, vol) / integral > row["constant"] * (1 + 1e-9):
            return f"{row}: grid sup above the exact constant"
    # refinement_stable is a measured drift between two levels, not a
    # guarantee: the report keeps it, the benchmark does not gate on it
    return _flags(report, skip=("refinement_stable",))


def _check_mixed_t(config, report):
    bundle = _bundle(config)
    vol = bundle.domain.cell_volume
    for row in report.tables:
        pair = bundle.pairs[row["pair"]]
        f = bundle.fs[row["f"]].values
        integral = float(np.sum(np.abs(f) * pair.u.values * pair.v.values)) * vol
        if row["constant"] * integral > row["weak_T"] * (1 + 1e-9):
            return f"{row}: grid sup above the exact weak quasinorm"
    return _flags(report)


def _check_corona_run(config, report):
    bundle = _bundle(config)
    vol = bundle.domain.cell_volume
    for row in report.tables:
        pair = bundle.pairs[row["pair"]]
        f = bundle.fs[row["f"]].values
        u, v = pair.u.values, pair.v.values
        integral = float(np.sum(np.abs(f) * u * v)) * vol
        mdy = _dyadic_maximal(np.abs(f) * v)
        mass = float(np.sum((u * v)[mdy > v])) * vol
        if not _close(mass, row["ratio"] * integral):
            return (f"pair {row['pair']} f {row['f']}: uv level set {mass!r} "
                    f"!= ratio x integral {row['ratio'] * integral!r}")
    return _flags(report)


def _check_interpolation(config, report):
    m = report.measured
    # sup |Mg| = sup |g|: the single-cell cube at the peak attains it
    if not _close(m["C1"], 1.0, 1e-12):
        return f"C1 = {m['C1']!r}, a maximal operator has C1 = 1"
    p0, p = 1.0, 2.0
    bound = 2.0 ** (1.0 / p) * (m["C0"] / (1.0 / p0 - 1.0 / p) + m["C1"])
    if not _close(bound, m["bound_constant"], 1e-12):
        return f"bound_constant {m['bound_constant']!r} != {bound!r}"
    return _flags(report)


def _check_rdf(config, report):
    m = report.measured
    p0 = 1.0 + 2.0 * (m["t"] - 1.0) / m["eps"]
    if not _close(p0, m["p0"], 1e-12):
        return f"p0 = {m['p0']!r} but 1 + 2(t-1)/eps = {p0!r}"
    return _flags(report)


def _check_lorentz(config, report):
    from rhomix.lorentz import WeightedMeasure, lorentz_norm

    if report.measured["violations"] != 0:
        return f"{report.measured['violations']} property violations"
    bundle = _bundle(config)
    vol = bundle.domain.cell_volume
    mu = WeightedMeasure(bundle.pairs[0].u)
    dens = bundle.pairs[0].u.values
    for i, f in enumerate(bundle.fs):
        for p in (1.0, 2.0, 3.0):
            lp = float(np.sum(np.abs(f.values) ** p * dens) * vol) ** (1.0 / p)
            lpp = lorentz_norm(f, mu, p, p)
            if not _close(lpp, lp):
                return f"f{i}: L^({p},{p}) norm {lpp!r} != L^{p} norm {lp!r}"
    return _flags(report)


CHECKS = {
    "maximal-eval": _check_maximal_eval,
    "weights-char": _check_weights_char,
    "mixed-M": _check_mixed_m,
    "mixed-T": _check_mixed_t,
    "corona-run": _check_corona_run,
    "interpolation": _check_interpolation,
    "rdf": _check_rdf,
    "lorentz": _check_lorentz,
}


def check(config: dict, report) -> str | None:
    return CHECKS[config["kind"]](config, report)
