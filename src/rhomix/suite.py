"""Seeded generation of weights, test functions, and scale specs.

Everything downstream of a (spec, seed) pair is deterministic: generators
draw from one rng, weights are validated against their declared class
ladder before being accepted (retrying with tamer parameters, the retry
count kept in the bundle), and the named analytic scale functions live in
a registry so configs can reference them from JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .critical import RhoSpec, rho_values
from .grid import (
    Cube,
    Domain,
    GridFunction,
    InvalidWeightError,
    SumOverflowError,
    load_grid_function,
    require_weight,
)
from .maximal import default_family
from .weights import _ap_range_clears, ap_characteristic, factor_build

__all__ = [
    "ANALYTIC_RHO",
    "GenerationError",
    "SuiteBundle",
    "WeightPair",
    "domain_from_json",
    "generate_suite",
    "make_function",
    "make_weight",
    "rho_from_json",
    "standard_suite_spec",
]

_CHAR_CAP = 1e6
_RETRIES = 100


class GenerationError(RuntimeError):
    """A generator could not satisfy its class constraint."""


# ---------------------------------------------------------------------------
# named scale functions

def _dist_from_origin(pts: np.ndarray) -> np.ndarray:
    return np.sqrt(np.sum(pts * pts, axis=-1))


ANALYTIC_RHO = {
    "inv_one_plus_dist": lambda pts: 1.0 / (1.0 + _dist_from_origin(pts)),
    "inv_sqrt_one_plus_dist": lambda pts: (1.0 + _dist_from_origin(pts)) ** -0.5,
    "sqrt_one_plus_dist": lambda pts: np.sqrt(1.0 + _dist_from_origin(pts)),
}


def rho_from_json(obj: dict) -> RhoSpec:
    """Build a scale spec from its JSON form.

    {"kind": "classical"} | {"kind": "constant", "c": 2.0}
    | {"kind": "analytic", "name": "inv_one_plus_dist"}
    | {"kind": "shen", "potential": "<gridfunction json path>"}.
    """
    kind = obj.get("kind")
    if kind == "classical":
        return RhoSpec.classical()
    if kind == "constant":
        return RhoSpec.constant(float(obj["c"]))
    if kind == "analytic":
        name = obj["name"]
        if name not in ANALYTIC_RHO:
            raise ValueError(
                f"unknown analytic rho {name!r}; have {sorted(ANALYTIC_RHO)}"
            )
        return RhoSpec.analytic(ANALYTIC_RHO[name], name=name)
    if kind == "shen":
        return RhoSpec.shen(load_grid_function(obj["potential"]))
    raise ValueError(f"unknown rho kind {kind!r}")


def domain_from_json(obj: dict) -> Domain:
    return Domain(int(obj["dim"]), float(obj["side"]), int(obj["level"]))


# ---------------------------------------------------------------------------
# single generators

def make_weight(
    domain: Domain,
    spec: dict,
    rng: np.random.Generator,
    rho: RhoSpec | None = None,
) -> GridFunction:
    """One weight from its generator spec (no class validation here).

    kinds: constant | power (|x - x0| to the alpha, floored at a cell)
    | two_banded (values {1, c} split at a random hyperplane)
    | rho_adapted ((1 + |x - x0|/rho)^beta; unit scale when classical)
    | smooth_random (exp of box-smoothed noise).
    """
    pts = domain.cell_centers()
    kind = spec.get("kind", "constant")
    if kind == "constant":
        return GridFunction.constant(domain, float(spec.get("value", 1.0)))
    if kind == "power":
        alpha = float(spec.get("alpha", 0.5))
        x0 = pts[rng.integers(0, pts.shape[0])]
        dist = np.linalg.norm(pts - x0, axis=-1)
        vals = np.maximum(dist, domain.cell_width) ** alpha
        return GridFunction(domain, vals.reshape(domain.shape))
    if kind == "two_banded":
        c = float(spec.get("c", 4.0))
        axis = int(rng.integers(0, domain.dim))
        cut = rng.uniform(0.25, 0.75) * domain.side
        vals = np.where(pts[:, axis] < cut, 1.0, c)
        return GridFunction(domain, vals.reshape(domain.shape))
    if kind == "rho_adapted":
        beta = float(spec.get("beta", 1.0))
        x0 = pts[rng.integers(0, pts.shape[0])]
        dist = np.linalg.norm(pts - x0, axis=-1)
        if rho is None or rho.is_classical:
            scale = np.ones_like(dist)
        else:
            scale = rho_values(rho, pts)
        vals = (1.0 + dist / scale) ** beta
        return GridFunction(domain, vals.reshape(domain.shape))
    if kind == "smooth_random":
        noise = rng.standard_normal(domain.shape)
        for ax in range(domain.dim):
            # crude three-tap smoothing keeps the weight mild
            noise = (
                noise
                + np.roll(noise, 1, axis=ax)
                + np.roll(noise, -1, axis=ax)
            ) / 3.0
        amp = float(spec.get("amp", 0.5))
        return GridFunction(domain, np.exp(amp * noise))
    raise ValueError(f"unknown weight kind {kind!r}")


def make_function(
    domain: Domain, spec: dict, rng: np.random.Generator
) -> GridFunction:
    """One test function: spike | indicator | random | oscillatory."""
    kind = spec.get("kind", "random")
    if kind == "spike":
        count = int(spec.get("count", 3))
        vals = np.zeros(domain.shape)
        flat = vals.ravel()
        idx = rng.integers(0, flat.size, size=count)
        flat[idx] = rng.uniform(0.5, 2.0, size=count)
        return GridFunction(domain, vals)
    if kind == "indicator":
        n = domain.n
        side = int(rng.integers(1, max(2, n // 4)))
        anchor = tuple(int(rng.integers(0, n - side + 1)) for _ in range(domain.dim))
        return GridFunction.indicator(domain, Cube(domain, anchor, side))
    if kind == "random":
        return GridFunction(domain, rng.uniform(0.0, 1.0, size=domain.shape))
    if kind == "oscillatory":
        k = int(spec.get("waves", rng.integers(1, 5)))
        pts = domain.cell_centers()
        phase = rng.uniform(0, 2 * math.pi)
        vals = np.sin(2 * math.pi * k * pts[:, 0] / domain.side + phase)
        for ax in range(1, domain.dim):
            vals = vals * np.cos(2 * math.pi * k * pts[:, ax] / domain.side)
        return GridFunction(domain, vals.reshape(domain.shape))
    raise ValueError(f"unknown function kind {kind!r}")


# ---------------------------------------------------------------------------
# validated suites

@dataclass(frozen=True)
class WeightPair:
    u: GridFunction
    v: GridFunction
    label: str
    retries: int


@dataclass(frozen=True)
class SuiteBundle:
    domain: Domain
    rho: RhoSpec
    pairs: tuple[WeightPair, ...]
    fs: tuple[GridFunction, ...]
    seed: int
    retries_total: int


def _tame(spec: dict, shrink: float) -> dict:
    """Pull the exponent-like parameters toward flat by the shrink factor."""
    out = dict(spec)
    for key in ("alpha", "beta", "amp"):
        if key in out:
            out[key] = out[key] * shrink
    if "c" in out:
        out["c"] = 1.0 + (out["c"] - 1.0) * shrink
    return out


def _validated_weight(
    domain: Domain,
    spec: dict,
    rng: np.random.Generator,
    rho: RhoSpec,
    p: float,
    theta: float,
) -> tuple[GridFunction, int]:
    fam = default_family(domain)
    current = dict(spec)
    for attempt in range(_RETRIES):
        w = make_weight(domain, current, rng, rho)
        try:
            require_weight(w)
        except InvalidWeightError:
            current = _tame(current, 0.8)
            continue
        # w's range decides most weights without a sweep, and exactly as
        # the sweep would
        if _ap_range_clears(w, p, theta, fam, _CHAR_CAP):
            return w, attempt
        try:
            char = ap_characteristic(w, p, theta, rho, fam).value
        except SumOverflowError:  # w or w^(1-p') sums past the float range
            char = math.inf
        if math.isfinite(char) and char < _CHAR_CAP:
            return w, attempt
        current = _tame(current, 0.8)
    raise GenerationError(
        f"weight spec {spec} failed its class check after {_RETRIES} retries"
    )


def standard_suite_spec(dim: int = 1, level: int = 8, seed: int = 7) -> dict:
    """The default config: a spread of weight kinds and function shapes."""
    return {
        "domain": {"dim": dim, "side": 8.0, "level": level},
        "rho": {"kind": "classical"},
        "weights": [
            {"kind": "constant"},
            {"kind": "power", "alpha": 0.5},
            {"kind": "two_banded", "c": 4.0},
            {"kind": "rho_adapted", "beta": 1.0},
            {"kind": "smooth_random", "amp": 0.5},
        ],
        "f": [
            {"kind": "spike", "count": 3},
            {"kind": "indicator"},
            {"kind": "random"},
            {"kind": "oscillatory"},
        ],
        "pair_count": 5,
        "f_count": 8,
        "p": 2.0,
        "theta": 1.0,
        "seed": seed,
    }


def generate_suite(spec: dict, seed: int | None = None) -> SuiteBundle:
    """Deterministic suite: validated (u, v) pairs plus test functions.

    u is validated in the A_1-type ladder, v at the spec's p; a pair built
    by the factor recipe u v^(1-p) is appended when both validations held.
    """
    if seed is None:
        seed = int(spec.get("seed", 0))
    rng = np.random.default_rng(seed)
    domain = domain_from_json(spec["domain"])
    rho = rho_from_json(spec.get("rho", {"kind": "classical"}))
    p = float(spec.get("p", 2.0))
    theta = float(spec.get("theta", 1.0))
    wspecs = spec.get("weights") or [{"kind": "constant"}]
    pair_count = int(spec.get("pair_count", len(wspecs)))
    total_retries = 0
    pairs: list[WeightPair] = []
    for i in range(pair_count):
        uspec = wspecs[i % len(wspecs)]
        vspec = wspecs[(i + 1) % len(wspecs)]
        u, r1 = _validated_weight(domain, uspec, rng, rho, 1.0, theta)
        v, r2 = _validated_weight(domain, vspec, rng, rho, p, theta)
        total_retries += r1 + r2
        pairs.append(
            WeightPair(u, v, f"{uspec['kind']}|{vspec['kind']}", r1 + r2)
        )
    if len(pairs) >= 2 and p > 1:
        base = pairs[0]
        pairs.append(
            WeightPair(
                base.u,
                factor_build(pairs[1].u, pairs[1].v, p),
                f"factor({pairs[1].label})",
                0,
            )
        )
    fspecs = spec.get("f") or [{"kind": "random"}]
    f_count = int(spec.get("f_count", len(fspecs)))
    fs = tuple(
        make_function(domain, fspecs[i % len(fspecs)], rng) for i in range(f_count)
    )
    return SuiteBundle(
        domain=domain,
        rho=rho,
        pairs=tuple(pairs),
        fs=fs,
        seed=seed,
        retries_total=total_retries,
    )
