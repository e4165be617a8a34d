"""Command-line harness.

Exit codes: 0 all checked invariants passed, 1 an invariant failed,
2 usage or config error.  JSON arguments accept either a file path or
inline JSON (anything starting with "{" or "[").  Grid functions travel
as a JSON header next to a CSV of values, one per line in row-major
order; see save_grid_function.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .corona import (
    _row_cubes,
    build_forests,
    classify,
    level_decomposition,
    mixed_verify_dyadic,
)
from .critical import audit_admissibility, critical_covering
from .extrapolation import estimate_K0, ladder_exponent, mixed_for_T, rdf_audit
from .experiments import (
    UsageError,
    _csv_text,
    _kernel_from_json,
    _plain,
    _write_atomic,
    run_many,
)
from .grid import (
    ALL_CELL_ALIGNED,
    Cube,
    CubeFamily,
    DYADIC_GRID_OF,
    GridFunction,
    load_grid_function,
    save_grid_function,
)
from .lorentz import WeightedMeasure, lorentz_norm
from .maximal import m_rho_sigma
from .suite import domain_from_json, rho_from_json
from .weights import ap_ladder

__all__ = ["main"]


def _load_json_arg(text: str):
    if text.strip().startswith(("{", "[")):
        return json.loads(text)
    with open(text) as fh:
        return json.load(fh)


def _emit(payload: dict, out: str | None, name: str) -> None:
    text = json.dumps(_plain(payload), sort_keys=True, indent=2) + "\n"
    sys.stdout.write(text)
    if out:
        _write_atomic(os.path.join(out, name + ".json"), text)


_FAMILY_POLICIES = {"all": ALL_CELL_ALIGNED, "dyadic": DYADIC_GRID_OF}


def _family_arg(domain, name: str):
    if name not in _FAMILY_POLICIES:
        raise UsageError(f"unknown cube family {name!r} (all | dyadic)")
    return CubeFamily(domain, _FAMILY_POLICIES[name])


# ---------------------------------------------------------------------------
# subcommand bodies

def _cmd_rho_audit(args) -> int:
    rho = rho_from_json(_load_json_arg(args.spec))
    domain = domain_from_json(_load_json_arg(args.domain))
    rep = audit_admissibility(rho, domain, args.pairs, args.seed)
    payload = {
        "C0": rep.C0,
        "N0": rep.N0,
        "max_violation": rep.max_violation,
        "worst_pair": rep.worst_pair,
        "implied_C0_by_N0": rep.implied_C0_by_N0,
    }
    _emit(payload, args.out, "rho-audit")
    return 0 if rep.max_violation == 0.0 else 1


def _cmd_rho_cover(args) -> int:
    rho = rho_from_json(_load_json_arg(args.spec))
    domain = domain_from_json(_load_json_arg(args.domain))
    sigmas = tuple(float(s) for s in args.sigma.split(","))
    rep = critical_covering(rho, domain, sigmas)
    payload = {
        "cube_count": rep.cube_count,
        "overlap": rep.overlap,
        "N1": rep.N1,
        "C_fit": rep.C_fit,
        "fit_residual": rep.fit_residual,
        "capped": rep.capped,
    }
    _emit(payload, args.out, "rho-cover")
    return 0


def _cmd_weights_char(args) -> int:
    w = load_grid_function(args.w)
    rho = rho_from_json(_load_json_arg(args.rho))
    fam = _family_arg(w.domain, args.cubes)
    thetas = [float(t) for t in args.theta.split(",")]
    rows = []
    for theta, c in zip(thetas, ap_ladder(w, args.p, thetas, rho, fam)):
        witness = c.witness
        rows.append({
            "p": args.p,
            "theta": theta,
            "value": c.value,
            "witness_anchor": list(witness.anchor) if witness else None,
            "witness_side_cells": witness.side_cells if witness else None,
        })
    _emit({"characteristics": rows}, args.out, "weights-char")
    return 0 if all(math.isfinite(r["value"]) for r in rows) else 1


def _cmd_maximal_eval(args) -> int:
    f = load_grid_function(args.f)
    rho = rho_from_json(_load_json_arg(args.rho))
    fam = _family_arg(f.domain, args.cubes)
    m = m_rho_sigma(f, rho, args.sigma, args.q, fam)
    arg = np.unravel_index(int(np.argmax(m.values)), m.values.shape)
    payload = {
        "max": float(m.values.max()),
        "argmax_cell": [int(i) for i in arg],
        "sigma": args.sigma,
        "q": args.q,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_grid_function(m, os.path.join(args.out, "maximal-eval"))
    _emit(payload, args.out, "maximal-eval-summary")
    return 0


def _corona_inputs(args):
    f = load_grid_function(args.f)
    u = load_grid_function(args.u)
    v = load_grid_function(args.v)
    if args.R == "auto":
        R = Cube.box(f.domain)
    else:
        spec = json.loads(args.R)
        count = f.domain.dim + 1
        if not (
            isinstance(spec, list) and len(spec) == count
            and all(type(a) is int for a in spec)
        ):
            raise UsageError(
                f'--R must be "auto" or a JSON list of {count} integers '
                f"[anchor..., side_cells], got {args.R}"
            )
        R = Cube(f.domain, tuple(spec[:-1]), spec[-1])
    a = None if args.a == "auto" else float(args.a)
    return f, u, v, R, a


def _cmd_corona_run(args) -> int:
    f, u, v, R, a = _corona_inputs(args)
    rep = mixed_verify_dyadic(f, u, v, R, a)
    payload = {
        "a": rep.a,
        "k0": rep.k0,
        "ratio": rep.ratio,
        "integral": rep.integral,
        "uv_levelset": rep.uv_levelset,
        "sum_upper": rep.sum_upper,
        "tail_sum": rep.tail_sum,
        "tail_bound": rep.tail_bound,
        "term_I": rep.term_I,
        "term_II": rep.term_II,
        "exact_chain": rep.upper_le_terms,
        "tail_ok": rep.tail_ok,
        "empty": rep.empty,
    }
    _emit(payload, args.out, "corona-run")
    if args.out and rep.level_rows:
        _write_atomic(
            os.path.join(args.out, "corona-ledger.csv"), _csv_text(rep.level_rows)
        )
    return 0 if (rep.upper_le_terms and rep.tail_ok) else 1


def _cmd_corona_dump_forest(args) -> int:
    f, u, v, R, a = _corona_inputs(args)
    g = GridFunction(f.domain, np.abs(f.values) * v.values)
    decomp = level_decomposition(g, R, a)
    if decomp.empty:
        _emit({"empty": True, "forests": {}}, args.out, "corona-forest")
        return 0
    cls = classify(decomp, v)
    delta = None if args.delta == "auto" else float(args.delta)
    forests = build_forests(cls, u, delta=delta)
    out = {}
    for ell, forest in forests.items():
        cubes = _row_cubes(R, forest.nodes)
        nodes = [{
            "anchor": list(Q.anchor),
            "side_cells": Q.side_cells,
            "k": k,
            "principal": gen >= 0,
            "generation": gen if gen >= 0 else None,
            "assigned_anchor": list(cubes[p].anchor),
            "assigned_side_cells": cubes[p].side_cells,
        } for Q, k, p, gen in zip(cubes, forest.k.tolist(), forest.assignment.tolist(),
                                  forest.generations.tolist())]
        out[str(ell)] = {
            "delta": forest.delta,
            "principal_count": forest.principal_count,
            "nodes": nodes,
        }
    _emit({"empty": False, "a": decomp.a, "k0": decomp.k0, "forests": out},
          args.out, "corona-forest")
    return 0


def _cmd_extrap_rdf(args) -> int:
    h = load_grid_function(args.h)
    u = load_grid_function(args.u)
    rho = rho_from_json(_load_json_arg(args.rho))
    sigma = ladder_exponent(u, rho) if args.sigma == "auto" else float(args.sigma)
    if args.K0 == "auto":
        K0 = estimate_K0(u, GridFunction.constant(h.domain, 1.0), rho,
                         sigma, [h.abs()]).K0
    else:
        K0 = float(args.K0)
    audit = rdf_audit(h.abs(), u, rho, sigma, K0, args.depth)
    payload = {
        "K0": K0,
        "sigma": sigma,
        "depth": args.depth,
        "minorant_exact": audit.minorant_exact,
        "sandwich_violations": audit.sandwich_violations,
        "tail_bound": audit.tail_bound,
        "char_value": audit.char_value,
        "char_bound": audit.char_bound,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_grid_function(audit.majorant, os.path.join(args.out, "rdf-majorant"))
    _emit(payload, args.out, "extrap-rdf")
    ok = audit.minorant_exact and audit.sandwich_violations == 0 and audit.char_ok
    return 0 if ok else 1


def _cmd_extrap_mixed_t(args) -> int:
    kernel = _kernel_from_json(_load_json_arg(args.kernel))
    f = load_grid_function(args.f)
    u = load_grid_function(args.u)
    v = load_grid_function(args.v)
    t_grid = (
        np.array([float(t) for t in args.t_grid.split(",")])
        if args.t_grid
        else None
    )
    rep = mixed_for_T(f, u, v, kernel, t_grid)
    payload = {
        "constant": rep.constant,
        "weak_T": rep.weak_T,
        "weak_M": rep.weak_M,
        "comparison_C": rep.comparison_C,
        "sigma": rep.sigma,
        "integral": rep.integral,
    }
    _emit(payload, args.out, "extrap-mixed-T")
    return 0 if math.isfinite(rep.constant) else 1


def _cmd_lorentz_norm(args) -> int:
    f = load_grid_function(args.f)
    mu = WeightedMeasure(load_grid_function(args.mu))
    value = lorentz_norm(f, mu, args.p, args.q)
    _emit({"p": args.p, "q": args.q, "norm": value}, args.out, "lorentz-norm")
    return 0


def _cmd_run(args) -> int:
    cfg = _load_json_arg(args.config)
    configs = cfg if isinstance(cfg, list) else [cfg]
    reports = run_many(configs, args.out)
    worst = 0
    for rep in reports:
        sys.stdout.write(rep.canonical_json())
        if not rep.ok:
            worst = 1
    return worst


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="rhomix",
        description="numerical verification lab for scale-adapted operators",
    )
    sub = top.add_subparsers(dest="group", required=True)

    rho = sub.add_parser("rho", help="scale-function audits").add_subparsers(
        dest="cmd", required=True
    )
    p = rho.add_parser("audit")
    p.add_argument("--spec", required=True)
    p.add_argument("--domain", default='{"dim": 1, "side": 8.0, "level": 8}')
    p.add_argument("--pairs", type=int, default=10000)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rho_audit)
    p = rho.add_parser("cover")
    p.add_argument("--spec", required=True)
    p.add_argument("--domain", default='{"dim": 1, "side": 8.0, "level": 8}')
    p.add_argument("--sigma", default="1,2,4")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_rho_cover)

    weights = sub.add_parser("weights", help="weight characteristics").add_subparsers(
        dest="cmd", required=True
    )
    p = weights.add_parser("char")
    p.add_argument("--w", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--theta", default="0")
    p.add_argument("--rho", default='{"kind": "classical"}')
    p.add_argument("--cubes", default="dyadic")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_weights_char)

    maximal = sub.add_parser("maximal", help="maximal operators").add_subparsers(
        dest="cmd", required=True
    )
    p = maximal.add_parser("eval")
    p.add_argument("--f", required=True)
    p.add_argument("--rho", default='{"kind": "classical"}')
    p.add_argument("--sigma", type=float, default=0.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--cubes", default="dyadic")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_maximal_eval)

    corona = sub.add_parser("corona", help="stopping-time verifiers").add_subparsers(
        dest="cmd", required=True
    )
    for name, fn in (("run", _cmd_corona_run), ("dump-forest", _cmd_corona_dump_forest)):
        p = corona.add_parser(name)
        p.add_argument("--f", required=True)
        p.add_argument("--u", required=True)
        p.add_argument("--v", required=True)
        p.add_argument("--R", default="auto",
                       help='"auto" or JSON [anchor..., side_cells]')
        p.add_argument("--a", default="auto")
        if fn is _cmd_corona_dump_forest:
            p.add_argument("--delta", default="auto")
        p.add_argument("--out")
        p.set_defaults(fn=fn)

    extrap = sub.add_parser("extrap", help="iteration and singular operators").add_subparsers(
        dest="cmd", required=True
    )
    p = extrap.add_parser("rdf")
    p.add_argument("--h", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--rho", default='{"kind": "classical"}')
    p.add_argument("--sigma", default="auto")
    p.add_argument("--K0", default="auto")
    p.add_argument("--depth", type=int, default=12)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extrap_rdf)
    p = extrap.add_parser("mixed-T")
    p.add_argument("--kernel", required=True)
    p.add_argument("--f", required=True)
    p.add_argument("--u", required=True)
    p.add_argument("--v", required=True)
    p.add_argument("--t-grid", dest="t_grid")
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_extrap_mixed_t)

    lorentz = sub.add_parser("lorentz", help="rearrangement norms").add_subparsers(
        dest="cmd", required=True
    )
    p = lorentz.add_parser("norm")
    p.add_argument("--f", required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--q", type=float, default=1.0)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_lorentz_norm)

    p = sub.add_parser("run", help="experiment registry")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=_cmd_run)

    return top


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    # UsageError is a ValueError
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
