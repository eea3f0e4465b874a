"""The benchmark's hooks and output checks must hold on the package.

perfbench/tracing.py wraps package functions by name and reports a metric
"absent" when none of its hooks resolve; a rename would pass silently
without this check.  perfbench/workloads.py checks every operation's
output, so a change to what the package returns could fail a benchmark run
that the unit tests never see; a small lattice runs those checks here.
"""
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _perfbench(name):
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module    # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


HOOKS = _perfbench("tracing").HOOKS


@pytest.mark.parametrize("target", [h.target for h in HOOKS])
def test_hook_target_exists(target):
    modname, _, path = target.partition(":")
    owner = importlib.import_module(modname)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    # the tracer replaces methods in the class's own namespace
    assert attr in vars(owner), f"{target} does not resolve"


def test_every_verify_metric_names_a_registered_check():
    from pseudoproc.verify import REGISTRY
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    checks = [m["name"][len("verify."):-len("_s")] for m in bench["per_layer"]
              if m["name"].startswith("verify.") and m["name"].endswith("_s")]
    assert checks and sorted(checks) == sorted(REGISTRY)


@pytest.mark.parametrize("name", ["kernel-desk", "fn-spacedrift"])
def test_workload_output_check_passes_on_a_small_lattice(name, tmp_path):
    import numpy as np
    workload = _perfbench("workloads").WORKLOADS[name](
        np.random.default_rng(101))
    workload.points, workload.steps = 64, 4
    scratch, outdir = tmp_path / "setup", tmp_path / "out"
    scratch.mkdir()
    workload.setup(str(scratch))
    check = workload.check(0, str(outdir), workload.run(0, str(outdir)))
    assert check.problems == []
