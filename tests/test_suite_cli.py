"""Seeded generation, the experiment registry, and the command-line harness."""

import json
import math
import os
import shlex
from pathlib import Path

import numpy as np
import pytest

from rhomix import (
    Domain,
    GridFunction,
    make_function,
    make_weight,
    generate_suite,
    rho_from_json,
    standard_suite_spec,
    save_grid_function,
    run_experiment,
    write_report,
    default_config,
    UsageError,
)
import rhomix.extrapolation
from rhomix.cli import _build_parser, main
from rhomix.suite import ANALYTIC_RHO, _tame, rho_to_json


# ---------------------------------------------------------------------------
# generators and serialization

def test_rho_json_round_trips():
    for obj in (
        {"kind": "classical"},
        {"kind": "constant", "c": 2.5},
        {"kind": "analytic", "name": "inv_one_plus_dist"},
    ):
        spec = rho_from_json(obj)
        again = rho_from_json(rho_to_json(spec))
        assert again.kind == spec.kind
        if spec.kind == "constant":
            assert again.c == spec.c
        if spec.kind == "analytic":
            assert again.name == spec.name


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
    with pytest.raises(ValueError):
        rho_to_json(spec)  # grid-backed specs have no inline form


def test_unnamed_analytic_rho_does_not_serialize():
    from rhomix import RhoSpec

    spec = RhoSpec.analytic(lambda pts: np.ones(pts.shape[0]))
    with pytest.raises(ValueError):
        rho_to_json(spec)


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


def test_cli_corona_dump_forest(saved_inputs):
    tmp_path, paths = saved_inputs
    out = tmp_path / "forestout"
    rc = main([
        "corona", "dump-forest", "--f", paths["f"], "--u", paths["u"],
        "--v", paths["v"], "--out", str(out),
    ])
    assert rc == 0
    payload = json.loads((out / "corona-forest.json").read_text())
    assert not payload["empty"]
    for forest in payload["forests"].values():
        for node in forest["nodes"]:
            assert isinstance(node["anchor"], list)
            assert node["side_cells"] >= 1


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
