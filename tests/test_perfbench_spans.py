"""The traced benchmark still finds every library name it wraps.

``perfbench/spans.py`` looks up each layer entry point by name when it
installs its timing wrappers, and its work counters read the wrapped
calls' arguments. A deletion or signature change in the library that
breaks either shows only when the benchmark runs traced, so these tests
resolve every wrapped name and run a small traced ``growth-check``,
``reconstruct``, ``interpolate`` and ``sigma-grid``. ``install`` patches
module attributes, so each traced run is a subprocess; nothing under
``perfbench/`` is changed.
"""

import importlib.util
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import fockspace
from fockspace.io import dumps_json, problem_doc
from fockspace.pointsets import scale_lattice_to_density

ROOT = Path(__file__).resolve().parent.parent

TRACED_MAIN = """
import json, sys
import fockspace.cli as cli
import spans

tracer = spans.install(cli)
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "totals": tracer.totals(), "counts": tracer.counts}))
"""


def test_every_wrapped_name_resolves():
    # spans.py imports nothing from the library at module level
    spec = importlib.util.spec_from_file_location("spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (module, attr) for module, attr, _, _ in spans._FUNCTIONS
        if not callable(getattr(getattr(fockspace, module), attr, None))
    ]
    assert missing == []


def traced(tmp_path, argv):
    """Run the CLI with ``argv`` under the span tracer; its totals and counts."""
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run(
        [sys.executable, "-c", TRACED_MAIN, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0
    return result


def traced_product(tmp_path, argv):
    """``traced``, for a subcommand that builds and evaluates a canonical product."""
    result = traced(tmp_path, argv)
    assert result["totals"]["canonical.product"][0] >= 1
    # counted from the product call's third argument
    assert result["counts"]["canonical.product_factors"] > 0
    assert result["totals"]["canonical.gfun"][0] >= 1
    return result


def write_problem(path, density_ratio):
    """A problem file on the lattice of that density in window 6, all data 1."""
    gamma = scale_lattice_to_density(1.0, density_ratio, 6.0)
    spacing = math.sqrt(math.pi / density_ratio)
    doc = problem_doc(1.0, spacing, gamma.points, np.ones(len(gamma), dtype=complex))
    path.write_text(dumps_json(doc) + "\n", encoding="utf-8")
    return str(path)


def test_traced_growth_check(tmp_path):
    traced_product(tmp_path, [
        "growth-check", "--alpha", "3.14159", "--spacing", "1", "--window", "6",
        "--grid-radius", "3", "--grid-step", "0.5", "--out", "growth",
    ])


def test_traced_reconstruct(tmp_path):
    problem = write_problem(tmp_path / "recon.json", 1.5)
    result = traced_product(tmp_path, [
        "reconstruct", "--in", problem, "--truncation-radius", "5",
        "--grid=-1,1,-1,1,0.5", "--out", "rec",
    ])
    assert result["totals"]["interpolation.reconstruct"][0] == 1
    # the node derivatives, one call over every node
    assert result["totals"]["canonical.deriv"][0] == 1


def test_traced_interpolate(tmp_path):
    problem = write_problem(tmp_path / "interp.json", 0.8)
    result = traced_product(tmp_path, [
        "interpolate", "--in", problem, "--truncation-radius", "5",
        "--grid=-1,1,-1,1,0.5", "--degree", "3", "--out", "interp",
    ])
    # the evaluator methods' wrappers
    assert result["totals"]["interpolation.eval"][0] >= 1
    assert result["totals"]["interpolation.bound"][0] == 1
    assert result["counts"]["interpolation.eval_points"] > 0
    assert result["totals"]["canonical.deriv"][0] == 1


def test_traced_sigma_grid(tmp_path):
    result = traced(tmp_path, [
        "sigma-grid", "--spacing", "1", "--grid=-1,1,-1,1,0.5", "--out", "sigma",
    ])
    assert result["totals"]["canonical.sigma"][0] == 1
