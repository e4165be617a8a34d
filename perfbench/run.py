"""Benchmark of rhomix: one workload per process, single-threaded.

    python3 perfbench/run.py --workload sweep --seed 3 --seconds 34 --trace 0

Run from the root of a source tree; the package is imported from ``src``.
The run measures set-up (several fresh interpreters that import rhomix and
run one small report), then makes passes over the workload's configs (see
``workloads.py``) until ``--seconds`` have gone by.  Pass ``i`` uses the
suite seed ``seed + i``.  After each pass, outside the timed region, every
report is checked; a report that raised or failed its check counts as
failed, and a failed check also makes ``correct`` false.

With ``--trace 0`` the last line of standard output is the JSON result with
the end-to-end metrics ``setup_s`` (median over the set-up probes),
``pass_s`` (median pass time) and ``peak_rss_mb``.  With ``--trace 1`` every
public rhomix function of ``layers.LAYERS`` is wrapped, the spans are saved
under ``perfbench/out/`` and the result carries the per-layer metrics.  The
line before the result carries the run's context: pass times, failures, and
the machine's steal ticks and load average over the run.
"""

from __future__ import annotations

import os

# one thread for every BLAS and OpenMP pool, before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
WORKLOAD_NAMES = ("sweep", "extrap", "levelset")


def _import_rhomix():
    """Put the tree's ``src`` first on the path and import rhomix from it."""
    if not (SRC / "rhomix" / "__init__.py").is_file():
        raise SystemExit(f"no rhomix sources under {SRC}; run from a source tree")
    sys.path.insert(0, str(SRC))
    import rhomix

    if Path(rhomix.__file__).resolve().parent != SRC / "rhomix":
        raise SystemExit(f"imported rhomix from {rhomix.__file__}, not from {SRC}")
    return rhomix


def _warm_up() -> None:
    import workloads
    from rhomix import experiments

    experiments.run_experiment(workloads.make_config(workloads.WARMUP, 0))


def _setup_probe() -> int:
    """Body of one set-up probe: import, one small report, exit."""
    _import_rhomix()
    _warm_up()
    return 0


def measure_setup(probes: int) -> list[float]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe"]
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


def machine_state() -> dict:
    """Steal ticks (all CPUs) and the 1-minute load average, read only."""
    state = {"steal_ticks": None, "loadavg_1m": None}
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        if fields and fields[0] == "cpu" and len(fields) > 8:
            state["steal_ticks"] = int(fields[8])
        state["loadavg_1m"] = os.getloadavg()[0]
    except OSError:
        pass
    return state


def run_pass(configs, experiments):
    """Run one pass; returns (wall s, cpu s, [(config, report or error, s)])."""
    results = []
    cpu = time.process_time()
    start = time.perf_counter()
    for config in configs:
        began = time.perf_counter()
        try:
            outcome = experiments.run_experiment(config)
        except Exception as exc:  # a report that raises counts as failed
            outcome = exc
        results.append((config, outcome, time.perf_counter() - began))
    return time.perf_counter() - start, time.process_time() - cpu, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0,
                        help="base suite seed; pass i uses seed + i")
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    if args.setup_probe:
        return _setup_probe()
    if args.workload is None:
        parser.error("--workload is required")

    _import_rhomix()
    import workloads
    from rhomix import experiments

    # numpy seeds must be non-negative
    base_seed = args.seed % (1 << 31)

    setup_times = [] if args.trace else measure_setup(SETUP_PROBES)
    _warm_up()
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()

    before = machine_state()
    pass_times: list[float] = []
    pass_cpu: list[float] = []
    report_times: dict[str, list[float]] = {}
    attempted = failed = 0
    correct = True
    failures: dict[str, str] = {}
    deadline = time.perf_counter() + args.seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        configs = workloads.configs(args.workload, base_seed + index)
        gc.collect()
        if tracer is not None:
            tracer.begin_pass()
            tracer.enabled = True
        elapsed, cpu, results = run_pass(configs, experiments)
        if tracer is not None:
            tracer.enabled = False
        pass_times.append(elapsed)
        pass_cpu.append(cpu)
        for config, outcome, seconds in results:
            report_times.setdefault(workloads.label(config), []).append(seconds)
            attempted += 1
            if isinstance(outcome, Exception):
                failed += 1
                failures[workloads.label(config)] = f"{type(outcome).__name__}: {outcome}"
                continue
            problem = workloads.check(config, outcome)
            if problem is not None:
                failed += 1
                correct = False
                failures[workloads.label(config)] = f"check failed: {problem}"
        index += 1
    after = machine_state()

    context = {
        "workload": args.workload,
        "seeds": [base_seed, base_seed + index - 1],
        "passes": len(pass_times),
        "pass_times_s": [round(t, 4) for t in pass_times],
        "pass_cpu_s": [round(t, 4) for t in pass_cpu],
        "report_median_s": {k: round(statistics.median(v), 4)
                            for k, v in report_times.items()},
        "failures": failures,
        "loadavg_1m": [before["loadavg_1m"], after["loadavg_1m"]],
        "steal_ticks": (None if before["steal_ticks"] is None
                        or after["steal_ticks"] is None
                        else after["steal_ticks"] - before["steal_ticks"]),
    }
    if tracer is None:
        context["setup_times_s"] = [round(t, 4) for t in setup_times]
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(pass_times), "unit": "s"},
            "peak_rss_mb": {
                # ru_maxrss is in KiB on Linux
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    else:
        metrics = tracer.metrics(statistics.median(pass_times))
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        # one file per workload, overwritten by the next traced run
        spans_path = out_dir / f"spans-{args.workload}.npz"
        tracer.write(spans_path)
        context["spans"] = {"file": str(spans_path.relative_to(ROOT)),
                            "count": len(tracer.start)}
    print(json.dumps({"context": context}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
