"""The traced benchmark still finds every library name it wraps.

``perfbench/spans.py`` looks up each layer entry point by name when it
installs its timing wrappers, and its work counters read the wrapped
calls' arguments. A deletion or signature change in the library that
breaks either shows only when the benchmark runs traced, so this test
runs one small traced ``growth-check``. ``install`` patches module
attributes, so it runs in a subprocess; nothing under ``perfbench/`` is
changed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_MAIN = """
import json, sys
import fockspace.cli as cli
import spans

tracer = spans.install(cli)
rc = cli.main(sys.argv[1:])
print(json.dumps({"rc": rc, "totals": tracer.totals(), "counts": tracer.counts}))
"""


def test_traced_growth_check(tmp_path):
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    env = {**os.environ, "PYTHONPATH": path}
    argv = [
        "growth-check", "--alpha", "3.14159", "--spacing", "1", "--window", "6",
        "--grid-radius", "3", "--grid-step", "0.5", "--out", "growth",
    ]
    done = subprocess.run(
        [sys.executable, "-c", TRACED_MAIN, *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["rc"] == 0
    assert result["totals"]["canonical.product"][0] >= 1
    # counted from the product call's third argument
    assert result["counts"]["canonical.product_factors"] > 0
