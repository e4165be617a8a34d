"""Seeded generation, the experiment registry, and the command-line harness."""

import json
import math
import os
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from rhomix import (
    Cube,
    Domain,
    GridFunction,
    RhoSpec,
    SumOverflowError,
    ap_characteristic,
    build_forests,
    classify,
    default_family,
    level_decomposition,
    load_grid_function,
    make_function,
    make_weight,
    generate_suite,
    rho_from_json,
    rho_values,
    standard_suite_spec,
    save_grid_function,
    run_experiment,
    write_report,
    default_config,
    UsageError,
)
import rhomix.experiments
import rhomix.extrapolation
import rhomix.suite
from rhomix.cli import _build_parser, main
from rhomix.suite import _CHAR_CAP, ANALYTIC_RHO, _tame, _validated_weight
from rhomix.weights import _ap_range_clears
from rhomix.weights import RH_LADDER, THETA_LADDER

from conftest import counted_s_stacks, counted_sweeps, cube_forest


# ---------------------------------------------------------------------------
# generators and serialization

def test_rho_json_round_trips():
    classical = rho_from_json({"kind": "classical"})
    assert classical.kind == "classical" and classical.is_classical
    constant = rho_from_json({"kind": "constant", "c": 2.5})
    assert constant.kind == "constant" and constant.c == 2.5
    analytic = rho_from_json({"kind": "analytic", "name": "inv_one_plus_dist"})
    assert analytic.kind == "analytic" and analytic.name == "inv_one_plus_dist"
    pts = np.array([[0.0], [3.0]])
    assert np.array_equal(
        rho_values(analytic, pts), ANALYTIC_RHO["inv_one_plus_dist"](pts)
    )


def test_rho_json_rejects_unknowns():
    with pytest.raises(ValueError):
        rho_from_json({"kind": "mystery"})
    with pytest.raises(ValueError):
        rho_from_json({"kind": "analytic", "name": "not_registered"})


def test_shen_rho_loads_potential_from_disk(tmp_path):
    dom = Domain(3, 4.0, 3)
    V = GridFunction.constant(dom, 0.5)
    base = str(tmp_path / "potential")
    save_grid_function(V, base)
    spec = rho_from_json({"kind": "shen", "potential": base})
    assert spec.kind == "shen"


def test_analytic_registry_values_are_positive():
    pts = np.array([[0.0], [1.0], [4.0], [100.0]])
    for name, fn in ANALYTIC_RHO.items():
        vals = fn(pts)
        assert np.all(vals > 0), name


def test_make_weight_kinds_positive():
    rng = np.random.default_rng(5)
    dom = Domain(1, 8.0, 6)
    for spec in (
        {"kind": "constant", "value": 2.0},
        {"kind": "power", "alpha": 1.0},
        {"kind": "two_banded", "c": 4.0},
        {"kind": "rho_adapted", "beta": 1.0},
        {"kind": "smooth_random", "amp": 0.5},
    ):
        w = make_weight(dom, spec, rng)
        assert np.all(w.values > 0), spec
    with pytest.raises(ValueError):
        make_weight(dom, {"kind": "nope"}, rng)


def test_make_function_kinds():
    rng = np.random.default_rng(6)
    dom = Domain(1, 8.0, 6)
    spike = make_function(dom, {"kind": "spike", "count": 3}, rng)
    assert 1 <= int(np.sum(spike.values != 0)) <= 3
    ind = make_function(dom, {"kind": "indicator"}, rng)
    assert set(np.unique(ind.values)) <= {0.0, 1.0}
    osc = make_function(dom, {"kind": "oscillatory", "waves": 2}, rng)
    assert float(np.max(np.abs(osc.values))) <= 1.0
    with pytest.raises(ValueError):
        make_function(dom, {"kind": "nope"}, rng)


def test_tame_pulls_parameters_toward_flat():
    spec = {"kind": "power", "alpha": 2.0, "c": 5.0, "amp": 1.0}
    tamed = _tame(spec, 0.5)
    assert tamed["alpha"] == 1.0
    assert tamed["amp"] == 0.5
    assert tamed["c"] == 3.0  # 1 + (5 - 1) * 0.5
    assert tamed["kind"] == "power"


def test_generate_suite_is_deterministic():
    spec = standard_suite_spec(dim=1, level=5, seed=13)
    b1 = generate_suite(spec)
    b2 = generate_suite(spec)
    assert b1.seed == b2.seed == 13
    assert len(b1.pairs) == len(b2.pairs)
    for p1, p2 in zip(b1.pairs, b2.pairs):
        assert np.array_equal(p1.u.values, p2.u.values)
        assert np.array_equal(p1.v.values, p2.v.values)
        assert p1.label == p2.label
    for f1, f2 in zip(b1.fs, b2.fs):
        assert np.array_equal(f1.values, f2.values)


def test_class_check_tames_a_weight_whose_running_sum_overflows():
    """two_banded c = 1e-307 at p = 2: w^(1-p') = 1e307 is finite on each
    cell of its band, but the band's sum is past the float range, so the
    sweep refuses it.  The class check counts that as a failed check, tames
    c and retries, with no warning."""
    dom = Domain(1, 8.0, 8)
    spec = {"kind": "two_banded", "c": 1e-307}
    cl = RhoSpec.classical()
    first = make_weight(dom, spec, np.random.default_rng(7), cl)
    with pytest.raises(SumOverflowError):
        ap_characteristic(first, 2.0, 1.0, cl, default_family(dom))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        v, retries = _validated_weight(dom, spec, np.random.default_rng(7), cl, 2.0, 1.0)
        suite = standard_suite_spec(dim=1, level=8, seed=7)
        suite.update(weights=[spec], pair_count=1, f_count=1)
        bundle = generate_suite(suite)
    assert retries >= 1 and np.all(np.isfinite(v.values))
    assert bundle.pairs[0].retries >= 1


def test_class_check_tames_a_weight_until_it_is_positive():
    """two_banded c = -1 is not a weight; each retry tames c toward 1
    (-0.6, -0.28, -0.024, 0.1808), so the fourth retry is positive."""
    dom = Domain(1, 8.0, 6)
    cl = RhoSpec.classical()
    spec = {"kind": "two_banded", "c": -1.0}
    w, retries = _validated_weight(dom, spec, np.random.default_rng(7), cl, 1.0, 0.0)
    assert retries == 4
    assert np.all(w.values > 0) and w.values.min() == pytest.approx(0.1808)


def test_class_check_lets_other_errors_through_at_once(monkeypatch):
    """Only a non-positive weight is tamed and retried; any other error of
    the check propagates on the first attempt."""
    calls = []

    def broken(w):
        calls.append(w)
        raise RuntimeError("broken check")

    monkeypatch.setattr(rhomix.suite, "require_weight", broken)
    with pytest.raises(RuntimeError, match="broken check"):
        _validated_weight(Domain(1, 8.0, 4), {"kind": "constant"},
                          np.random.default_rng(7), RhoSpec.classical(), 1.0, 0.0)
    assert len(calls) == 1


def _sweep_accepts(w, p, theta, rho, fam):
    """The class check's decision from the sweep alone."""
    try:
        char = ap_characteristic(w, p, theta, rho, fam).value
    except SumOverflowError:
        return False
    return math.isfinite(char) and char < _CHAR_CAP


def test_range_decision_is_the_sweeps_on_random_weights():
    """Wherever w's range clears the cap the sweep accepts w too, on
    lognormal weights of every spread up to the cap and past it, in dims
    1-3, classical and analytic rho, 1 <= p < inf and theta >= 0; the
    range never decides p = inf or theta < 0.  Both outcomes occur."""
    rng = np.random.default_rng(2207)
    analytic = RhoSpec.analytic(ANALYTIC_RHO["inv_one_plus_dist"], name="inv_one_plus_dist")
    outcomes = set()
    for dim, level in ((1, 6), (1, 8), (2, 4), (3, 3)):
        dom = Domain(dim, 8.0, level)
        fam = default_family(dom)
        for _ in range(12):
            # spreads from flat to a few times the cap
            logs = rng.normal(size=dom.shape)
            logs *= rng.uniform(0.0, 16.0) / max(np.ptp(logs), 1e-300)
            w = GridFunction(dom, np.exp(logs))
            for rho in (RhoSpec.classical(), analytic):
                for p in (1.0, 1.01, 2.0, 7.5, math.inf):
                    for theta in (-0.5, 0.0, 1.0, 4.0):
                        clears = _ap_range_clears(w, p, theta, fam, _CHAR_CAP)
                        if p == math.inf or theta < 0:
                            assert not clears
                        elif clears:
                            assert _sweep_accepts(w, p, theta, rho, fam)
                        outcomes.add(clears)
    assert outcomes == {True, False}


def test_range_decision_on_degenerate_weights():
    """The range check sends every degenerate weight to the sweep, with
    no warning: a subnormal cell, whose 1/w overflows; root sums of w and
    of w^(1-p') past 1e308; the spike whose prefix sums cancel to 0/0; a
    power of w that underflows on every cell; and a flat weight at p = inf
    or at a theta that is negative or not finite (which the sweep
    refuses)."""
    dom = Domain(1, 8.0, 4)
    subnormal = np.ones(dom.shape)
    subnormal[3] = 5e-324
    spike = np.ones(dom.shape)
    spike[5] = 1e40
    flat = GridFunction(dom, np.ones(dom.shape))
    cases = [
        (GridFunction(dom, subnormal), 1.0, 1.0),
        (GridFunction(dom, subnormal), 2.0, 1.0),
        (GridFunction(dom, np.full(dom.shape, 1e308)), 1.0, 0.0),
        # w^(1 - p') = 1e307 on each of 64 cells
        (GridFunction(Domain(1, 8.0, 6), np.full(64, 1e-307)), 2.0, 0.0),
        (GridFunction(dom, spike), 2.0, 0.0),
        # w^(1 - p') underflows to 0 on every cell, so S is 0/0
        (GridFunction(dom, np.full(dom.shape, 1e300)), 1.01, 0.0),
        (flat, 1.0, -1.0),
        (flat, 1.0, math.nan),
        (flat, 1.0, math.inf),
        (flat, math.inf, 1.0),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, p, theta in cases:
            fam = default_family(w.domain)
            assert not _ap_range_clears(w, p, theta, fam, _CHAR_CAP), (p, theta)
    assert _ap_range_clears(flat, 2.0, 0.0, default_family(dom), _CHAR_CAP)


def _bundle_bytes(bundle):
    pairs = [(p.u.values.tobytes(), p.v.values.tobytes(), p.label, p.retries)
             for p in bundle.pairs]
    return pairs, [f.values.tobytes() for f in bundle.fs], bundle.retries_total


def test_generate_suite_is_the_sweep_only_suite(monkeypatch):
    """Suites built with the range shortcut equal, byte for byte, the ones
    the sweep alone builds (values, labels, retries), since the shortcut
    accepts only what the sweep accepts and draws nothing: standard specs
    in dims 1-3 at seeds 1-20, and wild weights that need retries."""
    wild = [{"kind": "power", "alpha": 6.0}, {"kind": "smooth_random", "amp": 9.0},
            {"kind": "two_banded", "c": 1e7}]
    specs = []
    for dim, level in ((1, 6), (2, 4), (3, 3)):
        specs += [standard_suite_spec(dim=dim, level=level, seed=s) for s in range(1, 21)]
        for s in range(1, 4):
            spec = standard_suite_spec(dim=dim, level=level, seed=s)
            spec.update(weights=wild, rho={"kind": "analytic", "name": "inv_one_plus_dist"})
            specs.append(spec)
    cleared = []
    clears = rhomix.suite._ap_range_clears
    monkeypatch.setattr(
        rhomix.suite, "_ap_range_clears", lambda *a: cleared.append(clears(*a)) or cleared[-1]
    )
    fast = [_bundle_bytes(generate_suite(spec)) for spec in specs]
    monkeypatch.setattr(rhomix.suite, "_ap_range_clears", lambda *a: False)
    slow = [_bundle_bytes(generate_suite(spec)) for spec in specs]
    assert fast == slow
    assert any(cleared) and not all(cleared)
    assert any(retries > 0 for _pairs, _fs, retries in slow)


def test_generate_suite_appends_factor_pair():
    spec = standard_suite_spec(dim=1, level=5, seed=13)
    bundle = generate_suite(spec)
    assert len(bundle.pairs) == spec["pair_count"] + 1
    tail = bundle.pairs[-1]
    assert tail.label.startswith("factor(")
    assert np.all(tail.v.values > 0)
    assert len(bundle.fs) == spec["f_count"]


def test_standard_suite_spec_shape():
    spec = standard_suite_spec()
    for key in ("domain", "rho", "weights", "f", "pair_count", "f_count",
                "p", "theta", "seed"):
        assert key in spec


# ---------------------------------------------------------------------------
# experiment registry

def _small(kind, level=5, **extra):
    cfg = default_config(kind, dim=1, level=level, seed=7)
    cfg.update(extra)
    return cfg


def test_run_experiment_config_validation():
    with pytest.raises(UsageError):
        run_experiment(["not", "a", "dict"])
    with pytest.raises(UsageError):
        run_experiment({"suite": {}})
    with pytest.raises(UsageError):
        run_experiment({"kind": "unheard-of"})
    with pytest.raises(UsageError):
        run_experiment({"kind": "rho-audit"})  # missing rho


def test_experiments_pass_and_rerun_identically():
    for cfg in (
        _small("maximal-eval", level=6),
        _small("lorentz", instances=25),
        _small("corona-run"),
        _small("interpolation"),
    ):
        rep1 = run_experiment(cfg)
        rep2 = run_experiment(cfg)
        assert rep1.ok, (cfg["kind"], rep1.passes)
        assert rep1.canonical_json() == rep2.canonical_json()


def test_weights_char_sweeps_each_weight_once(monkeypatch):
    """weights-char reads every A_2 theta rung and RH rung of a weight off
    one sweep; it took four (the theta ladder, then one per s)."""
    cfg = default_config("weights-char", dim=1, level=6, seed=7)
    bundle = rhomix.experiments._suite(cfg)
    monkeypatch.setattr(rhomix.experiments, "_suite", lambda _config, *_parts: bundle)
    with counted_sweeps() as calls:
        rep = run_experiment(cfg)
    weights = [w.values for pair in bundle.pairs for w in (pair.u, pair.v)]
    assert len(calls) == len(weights)
    assert all(values[0] is w for values, w in zip(calls, weights))
    assert len(rep.tables) == len(weights) * (len(THETA_LADDER) + len(RH_LADDER))


def test_corona_run_dim2_regression():
    # every dim-2 corona-run used to raise: its A_1 sweep over the root's
    # bisection tree rejected DYADIC_GRID_OF families in dim 2
    cfg = default_config("corona-run", dim=2, level=4, seed=7)
    rep = run_experiment(cfg)
    assert rep.ok, rep.passes
    assert rep.tables and rep.measured["h1_violations"] == 0


def test_default_kernel_follows_the_suite_dim():
    # the default kernel used to be the 1-D odd_inverse in every dim, so a
    # dim-2 mixed-T or coifman run raised "kernel profile is 1-dimensional"
    for kind in ("mixed-T", "coifman"):
        cfg = default_config(kind, dim=2, level=4, seed=7)
        assert cfg["kernel"]["profile"] == "riesz_x"
        rep = run_experiment(cfg)
        assert rep.experiment == kind and rep.ok, rep.passes
        with pytest.raises(UsageError, match="dim 3.*odd_inverse.*riesz_x"):
            default_config(kind, dim=3, level=2, seed=7)


def test_mixed_m_runs_in_dim3():
    cfg = default_config("mixed-M", dim=3, level=2, seed=7)
    cfg["suite"].update(pair_count=1, f_count=2)
    cfg["suite"]["rho"] = {"kind": "analytic", "name": "inv_one_plus_dist"}
    rep = run_experiment(cfg)
    assert rep.passes["all_finite"]
    assert "refinement" in rep.deltas
    assert rep.canonical_json() == run_experiment(cfg).canonical_json()


def test_canonical_json_excludes_wall_clock():
    rep = run_experiment(_small("lorentz", instances=10))
    assert rep.wall_clock_s > 0.0
    payload = json.loads(rep.canonical_json())
    assert set(payload) == {
        "experiment", "config", "measured", "passes", "deltas", "tables"
    }


def test_every_pass_flag_is_a_json_boolean():
    # Python bools were written as 1 and 0 (bool is an int subclass and
    # the int test came first), so rdf read "sandwich": 1
    for kind in sorted(rhomix.experiments.EXPERIMENT_KINDS):
        payload = json.loads(run_experiment(_small(kind, level=4)).canonical_json())
        assert payload["passes"], kind
        for name, flag in payload["passes"].items():
            assert isinstance(flag, bool), (kind, name, flag)


def test_write_report_files(tmp_path):
    rep = run_experiment(_small("maximal-eval", level=5))
    written = write_report(rep, str(tmp_path))
    names = {os.path.basename(p) for p in written}
    assert names == {"maximal-eval.json", "maximal-eval.csv",
                     "maximal-eval.time.txt"}
    # tables present -> CSV has a header plus one row per table entry
    lines = (tmp_path / "maximal-eval.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + len(rep.tables)

    rep2 = run_experiment(_small("lorentz", instances=10))
    written2 = write_report(rep2, str(tmp_path))
    names2 = {os.path.basename(p) for p in written2}
    assert names2 == {"lorentz.json", "lorentz.time.txt"}  # no empty CSV


def test_default_config_extras_by_kind():
    assert "rho" in default_config("rho-audit")
    assert "kernel" in default_config("mixed-T")
    assert "kernel" in default_config("coifman")
    assert default_config("rdf")["depth"] == 12
    assert default_config("maximal-eval")["sigma"] == 0.0


# ---------------------------------------------------------------------------
# the CLI

@pytest.fixture()
def saved_inputs(tmp_path):
    rng = np.random.default_rng(91)
    dom = Domain(1, 8.0, 6)
    paths = {}
    grids = {
        "f": make_function(dom, {"kind": "spike", "count": 3}, rng).abs(),
        "u": make_weight(dom, {"kind": "smooth_random", "amp": 0.3}, rng),
        "v": make_weight(dom, {"kind": "power", "alpha": 1.0}, rng),
    }
    for name, g in grids.items():
        base = str(tmp_path / name)
        save_grid_function(g, base)
        paths[name] = base
    return tmp_path, paths


def test_cli_lorentz_norm_exit_zero(saved_inputs):
    tmp_path, paths = saved_inputs
    rc = main([
        "lorentz", "norm", "--f", paths["f"], "--mu", paths["u"],
        "--p", "2", "--q", "1",
        "--out", str(tmp_path / "lorentzout"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "lorentzout" / "lorentz-norm.json").read_text())
    assert payload["p"] == 2.0 and payload["norm"] > 0


@pytest.mark.parametrize("p, q", [("nan", "1"), ("2", "nan")])
def test_cli_lorentz_norm_rejects_nan_exponents_regression(saved_inputs, p, q):
    # a NaN exponent printed the norm as NaN, not JSON, and exited 0
    tmp_path, paths = saved_inputs
    rc = main([
        "lorentz", "norm", "--f", paths["f"], "--mu", paths["u"],
        "--p", p, "--q", q, "--out", str(tmp_path / "nanout"),
    ])
    assert rc == 2
    assert not (tmp_path / "nanout").exists()


def test_cli_weights_char_theta_ladder(saved_inputs):
    tmp_path, paths = saved_inputs
    rc = main([
        "weights", "char", "--w", paths["u"], "--p", "2",
        "--theta", "0,1,2", "--out", str(tmp_path / "charout"),
    ])
    assert rc == 0
    payload = json.loads((tmp_path / "charout" / "weights-char.json").read_text())
    rows = payload["characteristics"]
    assert [r["theta"] for r in rows] == [0.0, 1.0, 2.0]
    assert all(math.isfinite(r["value"]) for r in rows)


def test_cli_maximal_eval_artifacts(saved_inputs):
    tmp_path, paths = saved_inputs
    out = tmp_path / "maxout"
    rc = main(["maximal", "eval", "--f", paths["f"], "--out", str(out)])
    assert rc == 0
    assert (out / "maximal-eval.json").exists()      # grid header
    assert (out / "maximal-eval.csv").exists()       # grid values
    summary = json.loads((out / "maximal-eval-summary.json").read_text())
    assert summary["max"] > 0


def test_cli_corona_run_writes_ledger(saved_inputs):
    tmp_path, paths = saved_inputs
    out = tmp_path / "coronaout"
    rc = main([
        "corona", "run", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "corona-run.json").read_text())
    assert payload["exact_chain"] and payload["tail_ok"]
    ledger = (out / "corona-ledger.csv").read_text().strip().splitlines()
    assert ledger[0].startswith("cubes,")  # sorted header: cubes,ell,k,kind,u_mass


def test_cli_corona_run_rejects_non_finite_base(saved_inputs):
    # --a inf used to build no levels and exit 1 on a nan tail bound
    tmp_path, paths = saved_inputs
    rc = main([
        "corona", "run", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--a", "inf", "--out", str(tmp_path / "infout"),
    ])
    assert rc == 2


@pytest.mark.parametrize("cmd", ["run", "dump-forest"])
def test_cli_corona_refuses_a_peak_past_the_powers_of_a(tmp_path, cmd, capsys):
    # a peak of |f| v past a's largest finite power raised a bare
    # OverflowError from Python's pow, and the CLI printed its traceback
    dom = Domain(1, 8.0, 3)
    paths = {}
    for name, vals in (("f", [1.5e308] + [1.0] * 7), ("u", [1.0] * 8), ("v", [1.0] * 8)):
        paths[name] = str(tmp_path / name)
        save_grid_function(GridFunction(dom, np.array(vals)), paths[name])
    rc = main([
        "corona", cmd, "--f", paths["f"], "--u", paths["u"], "--v", paths["v"],
        "--out", str(tmp_path / "out"),
    ])
    assert rc == 2
    assert "passes the largest finite power of a = 4.0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("R", ["5", "[1.5, 4]", "[0]", "[0, 4, 4]", "[true, 4]", '"[0, 4]"'])
def test_cli_corona_run_rejects_a_malformed_cube_regression(saved_inputs, R, capsys):
    # --R 5 died with a TypeError traceback and exit 1 (a failed
    # invariant); --R '[1.5, 4]' anchored the cube at cell 1
    tmp_path, paths = saved_inputs
    rc = main([
        "corona", "run", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--R", R, "--out", str(tmp_path / "Rout"),
    ])
    assert rc == 2
    assert "JSON list of 2 integers" in capsys.readouterr().err
    assert not (tmp_path / "Rout").exists()


def test_cli_corona_run_names_a_non_power_of_two_side(saved_inputs, capsys):
    tmp_path, paths = saved_inputs
    rc = main([
        "corona", "run", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--R", "[0, 3]",
    ])
    assert rc == 2
    assert "power-of-two side, got 3 cells" in capsys.readouterr().err


def test_cli_corona_run_takes_an_integer_cube(saved_inputs):
    tmp_path, paths = saved_inputs
    out = tmp_path / "Rok"
    rc = main([
        "corona", "run", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--R", "[16, 32]", "--out", str(out),
    ])
    assert rc in (0, 1)
    assert json.loads((out / "corona-run.json").read_text())["a"] > 1


def _forest_inputs(name):
    """(f, u, v) of a dump-forest case: "bands" holds a band 0 forest with
    a node that is not principal beside a band -1 forest, "nested" a band
    -1 forest with a generation-1 piece nested in a principal piece."""
    if name == "bands":
        rng = np.random.default_rng(95)
        dom = Domain(1, 8.0, 6)
        v = 10 ** rng.uniform(-2, 0, dom.shape)
        spots = rng.integers(0, dom.n, 3 * dom.n)
        v[spots] = 10 ** rng.uniform(0, 3, spots.size)
        g = np.zeros(dom.shape)
        cells = rng.integers(0, dom.n, 5)
        g[cells] = 10 ** rng.uniform(1, 5, 5)
        u = np.exp(rng.normal(0, 1.5, dom.shape))
    else:
        dom = Domain(1, 8.0, 4)
        v = np.full(16, 0.01)
        v[1], v[2] = 24.0, 7.6
        g = np.zeros(16)
        g[0] = 48.0
        u = np.ones(16)
        u[1] = 50.0
    return (GridFunction(dom, g / v), GridFunction(dom, u), GridFunction(dom, v))


def _forest_nodes(forest, R):
    """build_forests' nodes as dump-forest prints them."""
    cubes = cube_forest(forest, R)
    return [{
        "anchor": list(Q.anchor), "side_cells": Q.side_cells, "k": k,
        "principal": Q in cubes.generations, "generation": cubes.generations.get(Q),
        "assigned_anchor": list(cubes.assignment[Q].anchor),
        "assigned_side_cells": cubes.assignment[Q].side_cells,
    } for Q, k in cubes.nodes]


def _check_dump_forest(saved_inputs, name, delta):
    """Every node's cube, level, principal flag, generation and assigned
    principal as build_forests gives them on the same inputs."""
    tmp_path, paths = saved_inputs
    if name != "saved":
        for key, grid in zip("fuv", _forest_inputs(name)):
            save_grid_function(grid, paths[key] + name)
            paths[key] += name
    out = tmp_path / ("forestout" + name)
    rc = main([
        "corona", "dump-forest", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--delta", delta, "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "corona-forest.json").read_text())
    assert not payload["empty"]
    f, u, v = (load_grid_function(paths[key]) for key in "fuv")
    R = Cube.box(f.domain)
    forests = build_forests(
        classify(level_decomposition(f.abs() * v, R), v), u,
        None if delta == "auto" else float(delta),
    )
    assert sorted(payload["forests"]) == sorted(str(ell) for ell in forests)
    for ell, forest in forests.items():
        got = payload["forests"][str(ell)]
        assert got["delta"] == forest.delta and got["principal_count"] == forest.principal_count
        assert got["nodes"] == _forest_nodes(forest, R)
    kinds = {"saved": [0], "bands": [-1, 0], "nested": [-1]}[name]
    assert sorted(forests) == kinds


def test_cli_corona_dump_forest(saved_inputs):
    _check_dump_forest(saved_inputs, "saved", "auto")


@pytest.mark.parametrize("name", ["bands", "nested"])
def test_cli_corona_dump_forest_matches_build_forests(saved_inputs, name):
    _check_dump_forest(saved_inputs, name, "0.3")


def test_cli_extrap_rdf(saved_inputs):
    tmp_path, paths = saved_inputs
    out = tmp_path / "rdfout"
    rc = main([
        "extrap", "rdf", "--h", paths["f"], "--u", paths["u"],
        "--depth", "8", "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "extrap-rdf.json").read_text())
    assert payload["minorant_exact"] and payload["sandwich_violations"] == 0
    assert (out / "rdf-majorant.csv").exists()


def test_cli_extrap_rdf_iterates_once(saved_inputs, monkeypatch):
    # depth applications of S build the majorant and one more checks the
    # sandwich; the saved majorant is the audited one
    tmp_path, paths = saved_inputs
    calls = []
    s_operator = rhomix.extrapolation.s_operator

    def counted(*args, **kwargs):
        calls.append(1)
        return s_operator(*args, **kwargs)

    monkeypatch.setattr(rhomix.extrapolation, "s_operator", counted)
    rc = main([
        "extrap", "rdf", "--h", paths["f"], "--u", paths["u"], "--K0", "4",
        "--sigma", "0", "--depth", "6", "--out", str(tmp_path / "rdf1"),
    ])
    assert rc == 0
    assert len(calls) == 6 + 1


def test_cli_extrap_rdf_auto_k0_runs_one_s_chain(saved_inputs):
    # --K0 auto applies S once to h for K0, then rdf_audit's depth + 1
    tmp_path, paths = saved_inputs
    with counted_s_stacks() as calls:
        rc = main([
            "extrap", "rdf", "--h", paths["f"], "--u", paths["u"], "--K0", "auto",
            "--depth", "6", "--out", str(tmp_path / "rdf2"),
        ])
    assert rc == 0
    assert calls[0] == 6 + 2


def test_cli_extrap_mixed_t(saved_inputs):
    tmp_path, paths = saved_inputs
    kernel = '{"profile": "odd_inverse"}'
    rc = main([
        "extrap", "mixed-T", "--kernel", kernel, "--f", paths["f"],
        "--u", paths["u"], "--v", paths["v"],
    ])
    assert rc == 0


def test_cli_rho_audit_and_cover(saved_inputs):
    tmp_path, _paths = saved_inputs
    out = tmp_path / "rhoout"
    spec = '{"kind": "analytic", "name": "inv_one_plus_dist"}'
    dom = '{"dim": 1, "side": 8.0, "level": 6}'
    rc = main(["rho", "audit", "--spec", spec, "--domain", dom,
               "--pairs", "500", "--out", str(out)])
    assert rc == 0
    payload = json.loads((out / "rho-audit.json").read_text())
    assert payload["max_violation"] == 0.0
    rc = main(["rho", "cover", "--spec", spec, "--domain", dom,
               "--out", str(out)])
    assert rc == 0
    cover = json.loads((out / "rho-cover.json").read_text())
    assert cover["cube_count"] >= 1 and math.isfinite(cover["N1"])


def test_cli_usage_errors_exit_two(saved_inputs):
    _tmp, paths = saved_inputs
    assert main(["rho", "audit", "--spec", "{broken json"]) == 2
    assert main(["lorentz", "norm", "--f", "/no/such/file", "--mu", paths["u"]]) == 2
    assert main(["weights", "char", "--w", paths["u"], "--cubes", "bogus"]) == 2
    assert main(["run", "--config", '{"kind": "unheard-of"}']) == 2


def test_cli_rho_audit_refuses_zero_pairs(capsys):
    spec = '{"kind": "analytic", "name": "inv_one_plus_dist"}'
    dom = '{"dim": 1, "side": 8.0, "level": 4}'
    assert main(["rho", "audit", "--spec", spec, "--domain", dom, "--pairs", "0"]) == 2
    assert "pair_sample_size must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["rdf", "coifman", "interpolation"])
def test_first_pair_kinds_refuse_zero_pairs(kind, capsys):
    # each used to die on an IndexError from bundle.pairs[0] and exit 1
    config = default_config(kind, 1, 5)
    config["suite"]["pair_count"] = 0
    with pytest.raises(UsageError, match="config.suite.pair_count"):
        run_experiment(config)
    assert main(["run", "--config", json.dumps(config)]) == 2
    assert "config.suite.pair_count" in capsys.readouterr().err


@pytest.mark.parametrize("kind, count", [
    ("weights-char", "pair_count"),
    ("corona-run", "pair_count"),
    ("mixed-M", "pair_count"),
    ("mixed-T", "pair_count"),
    ("maximal-eval", "f_count"),
    ("corona-run", "f_count"),
    ("mixed-M", "f_count"),
    ("mixed-T", "f_count"),
    ("coifman", "f_count"),
    ("rdf", "f_count"),
    ("interpolation", "f_count"),
])
def test_kinds_refuse_an_empty_suite_part(kind, count, capsys):
    # each used to pass every flag on zero rows, or (maximal-eval and
    # interpolation without fs) die on a ZeroDivisionError in the sweep
    config = default_config(kind, 1, 5, 1)
    config["suite"][count] = 0
    with pytest.raises(UsageError, match=f"config.suite.{count}"):
        run_experiment(config)
    assert main(["run", "--config", json.dumps(config)]) == 2
    assert f"config.suite.{count}" in capsys.readouterr().err


def test_kinds_that_read_no_fs_or_pairs_run_without_them():
    for kind, empty in (("weights-char", ("f_count",)),
                        ("lorentz", ("pair_count", "f_count")),
                        ("rho-audit", ("pair_count", "f_count"))):
        config = default_config(kind, 1, 5, 1)
        config["suite"].update(dict.fromkeys(empty, 0))
        assert run_experiment(config).ok, kind


_ZERO_F = {"kind": "spike", "count": 0}


@pytest.mark.parametrize(
    "kind", ["maximal-eval", "corona-run", "mixed-M", "mixed-T", "coifman", "rdf", "interpolation"]
)
def test_kinds_refuse_only_zero_test_functions(kind):
    # rdf died on estimate_K0's bare "empty suite", mixed-M failed
    # all_finite, and the others passed every flag on constants of 0.0
    config = default_config(kind, 1, 5, 1)
    config["suite"]["f"] = [_ZERO_F]
    with pytest.raises(UsageError, match=r"config\.suite\.f gives only zero test functions"):
        run_experiment(config)


def test_cli_run_refuses_only_zero_test_functions(capsys):
    config = default_config("corona-run", 1, 5, 1)
    config["suite"]["f"] = [_ZERO_F]
    assert main(["run", "--config", json.dumps(config)]) == 2
    assert "config.suite.f gives only zero test functions" in capsys.readouterr().err


def test_mixed_m_skips_a_zero_test_function():
    # a zero f beside nonzero ones read an inf constant (all_finite false)
    # and, as the first f, was the one refined (refinement_stable false)
    config = default_config("mixed-M", 1, 5, 1)
    config["suite"]["f"] = [_ZERO_F, {"kind": "random"}]
    rep = run_experiment(config)
    assert rep.passes == {"refinement_stable": True, "all_finite": True}
    bundle = rhomix.experiments._suite(config)
    assert not bundle.fs[0].values.any() and bundle.fs[1].values.any()
    # the first four nonzero fs, each row under its suite index
    assert [row["f"] for row in rep.tables[:4]] == [1, 3, 5, 7]
    assert all(math.isfinite(row["constant"]) for row in rep.tables)


def test_cli_tree_family_is_gone_and_bad_exponents_exit_two(saved_inputs):
    """--cubes tree built the same family as dyadic and is rejected; a
    non-finite theta and a covering that cannot fit a slope are usage
    errors, not failed invariants."""
    _tmp, paths = saved_inputs
    assert main(["weights", "char", "--w", paths["u"], "--cubes", "tree"]) == 2
    assert main(["maximal", "eval", "--f", paths["f"], "--cubes", "tree"]) == 2
    assert main(["weights", "char", "--w", paths["u"], "--theta", "nan"]) == 2
    spec = '{"kind": "analytic", "name": "inv_one_plus_dist"}'
    dom = '{"dim": 1, "side": 8.0, "level": 4}'
    for sigmas in ("1", "1,1,1", "0,1,2", "nan,1,2"):
        assert main(["rho", "cover", "--spec", spec, "--domain", dom,
                     "--sigma", sigmas]) == 2, sigmas


def test_readme_cli_examples_parse_and_run(tmp_path, monkeypatch):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Command line", 1)[1].split("## Demos", 1)[0]
    setup = section.split("```python\n", 1)[1].split("```", 1)[0]
    shell = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [
        shlex.split(line)[1:]
        for line in shell.replace("\\\n", " ").splitlines()
        if line.startswith("rhomix ")
    ]
    assert len(examples) == 10
    parser = _build_parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"argparse rejects the README line: rhomix {shlex.join(argv)}")
    monkeypatch.chdir(tmp_path)
    exec(setup, {})
    for argv in examples:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("cmd, flag", [
    ("run", "--format"), ("dump-forest", "--format"), ("run", "--delta"),
])
def test_cli_rejects_removed_corona_flags(cmd, flag):
    argv = ["corona", cmd, "--f", "f", "--u", "u", "--v", "v", flag, "x"]
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert exc.value.code == 2


def test_cli_run_gate_failure_exits_one(tmp_path):
    # at this coarse grid the covering-count fit misses the 10% residual
    # gate for the decaying scale function, so the run must gate to 1
    cfg = {
        "kind": "rho-audit",
        "rho": {"kind": "analytic", "name": "inv_one_plus_dist"},
        "suite": {"domain": {"dim": 1, "side": 8.0, "level": 6}},
        "pairs": 300,
        "seed": 7,
    }
    rc = main(["run", "--config", json.dumps(cfg), "--out", str(tmp_path)])
    assert rc == 1
    assert (tmp_path / "rho-audit.json").exists()
    assert (tmp_path / "rho-audit.time.txt").exists()


def test_cli_run_passing_config_exits_zero(tmp_path):
    cfg = [_small("lorentz", instances=10), _small("maximal-eval", level=5)]
    rc = main(["run", "--config", json.dumps(cfg), "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "lorentz.json").exists()
    assert (tmp_path / "maximal-eval.json").exists()
    # same config through a file path instead of inline JSON
    cfg_path = tmp_path / "batch.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(cfg_path)]) == 0
