"""Gate self-test: every oracle gate must reject a corrupted output.

    python3 perfbench/selftest.py [--seed N]

Runs each workload once, checks that every gate passes on the real
outputs, then corrupts one output at a time in the smallest way the
gate must still see, re-runs that gate and restores the file. Exits 0
only if every clean output passes and every corruption is rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
from pathlib import Path

import gates
import run
import workloads


def _edit_report(path: Path, edit) -> None:
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["results"])
    path.write_text(json.dumps(doc), encoding="utf-8")


def _edit_csv(path: Path, pick_row, col: int, change) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    rows = [line.rstrip("\n").split(",") for line in lines[1:]]
    k = pick_row(rows)
    rows[k][col] = change(rows[k][col])
    path.write_text(lines[0] + "".join(",".join(r) + "\n" for r in rows), encoding="utf-8")


def _nearest_origin(rows) -> int:
    return min(range(len(rows)), key=lambda k: math.hypot(float(rows[k][0]), float(rows[k][1])))


def _first_sampled_finite(rows) -> int:
    step = max(1, len(rows) // gates.SIGMA_SAMPLES)
    return next(k for k in range(0, len(rows), step) if float(rows[k][2]) != -math.inf)


def _drop_last_row(path: Path) -> None:
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:-1]), encoding="utf-8")


def _bump(index, key, delta):
    def edit(results):
        results[key][index] += delta
    return edit


# command -> [(description, file relative to the output dir, corruption)]
CORRUPTIONS = {
    "lattice": [
        ("one point row dropped", "points.csv", _drop_last_row),
    ],
    "density": [
        ("n_plus at the first radius decremented by one", "density_report.json",
         lambda p: _edit_report(p, _bump(0, "n_plus", -1))),
        ("n_minus at the first radius incremented by one", "density_report.json",
         lambda p: _edit_report(p, _bump(0, "n_minus", 1))),
    ],
    "frame": [
        ("B at the top degree scaled by 1 + 1e-8", "frame_report.json",
         lambda p: _edit_report(p, lambda r: r["ladder"][-1].update(B=r["ladder"][-1]["B"] * (1 + 1e-8)))),
        ("A at the lowest degree raised by 1e-8 of B", "frame_report.json",
         lambda p: _edit_report(p, lambda r: r["ladder"][0].update(A=r["ladder"][0]["A"] + 1e-8 * r["ladder"][0]["B"]))),
    ],
    "reconstruct": [
        ("one recon value nudged by 1e-6", "recon_grid.csv",
         lambda p: _edit_csv(p, _nearest_origin, 2, lambda v: repr(float(v) + 1e-6))),
    ],
    "interpolate": [
        ("max_interior_residual set to 1e-9", "interpolate_report.json",
         lambda p: _edit_report(p, lambda r: r.update(max_interior_residual=1e-9))),
    ],
    "sigma-grid": [
        ("one sampled log_mag shifted by 1e-9", "sigma_grid.csv",
         lambda p: _edit_csv(p, _first_sampled_finite, 2, lambda v: repr(float(v) + 1e-9))),
        ("one sampled phase shifted by 1e-9", "sigma_grid.csv",
         lambda p: _edit_csv(p, _first_sampled_finite, 3, lambda v: repr(float(v) + 1e-9))),
    ],
    "growth-check": [
        ("violations set to 1", "growth_check_report.json",
         lambda p: _edit_report(p, lambda r: r.update(violations=1))),
    ],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if not (run.SRC / "fockspace" / "cli.py").is_file():
        sys.stderr.write(f"selftest: no fockspace sources under {run.SRC}\n")
        return 2

    print("env " + json.dumps(run.environment(), sort_keys=True))
    all_ok = True
    for name in workloads.WORKLOADS:
        work = run.WORK / f"selftest_{name}"
        shutil.rmtree(work, ignore_errors=True)
        invocations = workloads.prepare(name, args.seed, work)
        records = run.run_rep(work, invocations, traced=False)
        for inv, rec in zip(invocations, records):
            clean = rec["gate"]
            clean_ok = rec["rc"] == 0 and clean is not None and clean.ok
            all_ok &= clean_ok
            print(f"{name:<14}{inv.command:<13}clean output            "
                  f"{'passes' if clean_ok else 'FAILS'}: {clean.detail if clean else rec.get('error')}")
            for what, filename, corrupt in CORRUPTIONS[inv.command]:
                target = work / inv.out / filename
                saved = target.read_bytes()
                corrupt(target)
                try:
                    verdict = inv.gate(work)
                except Exception as exc:  # a gate that crashes on bad output still rejects it
                    verdict = gates.GateResult(False, {}, f"gate raised {type(exc).__name__}")
                finally:
                    target.write_bytes(saved)
                rejected = not verdict.ok
                all_ok &= rejected
                print(f"{'':<27}{what:<48}{'rejected' if rejected else 'NOT REJECTED'}: {verdict.detail}")
        shutil.rmtree(work, ignore_errors=True)
    print("gate self-test " + ("passed" if all_ok else "FAILED"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
