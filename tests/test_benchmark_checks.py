"""Every benchmark report passes its check, at seed 1.

perfbench/workloads.py is loaded from its file and never changed; each of
its workload configs runs through rhomix.experiments.run_experiment and
its check.  A report the benchmark would count as failed, or a check that
no longer runs on today's rhomix, then fails here and not only in a
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from rhomix.experiments import run_experiment

WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_report_passes_its_check(name):
    configs = workloads.configs(name, 1)
    assert configs
    for config in configs:
        problem = workloads.check(config, run_experiment(config))
        assert problem is None, f"{workloads.label(config)}: {problem}"
