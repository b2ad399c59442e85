"""Benchmark of the fockspace command line, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is subcritical, supercritical, or "all" to run the two in turn.
Each CLI invocation runs in its own fresh interpreter (perfbench/child.py)
with BLAS pinned to one thread, so the canonical caches start cold as
they do for a user. Invocations run one at a time, in a closed loop: a
workload's invocations form one repetition, and repetitions continue
while the next one still fits in S seconds (an untraced run makes at
least two).

Every output is checked by an independent oracle (perfbench/gates.py)
and by a determinism digest: the reports without ``wall_time_s`` and the
CSV side files must hash the same in every repetition and in every run
of the same seed on the same sources. A nonzero exit, a gate miss or a
digest mismatch fails the invocation.

With --trace 0 the last stdout line carries the end-to-end metrics:

    setup_s      interpreter start + import fockspace.cli, median per
                 invocation times the workload's invocation count
    total_s      median over repetitions of the summed main(argv) times
    peak_rss_mb  median over repetitions of the largest child peak RSS

With --trace 1, repetitions alternate untraced and traced (layer spans
from perfbench/spans.py) and the last line carries the per-layer
metrics, the per-subcommand times of the untraced repetitions, the
oracle figures and trace.overhead_frac. The lines above it are a
readable table that also gives failed_frac and each subcommand's time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))

import gates  # noqa: E402
import workloads  # noqa: E402

# One BLAS thread in every child: the box has few cores and timings must
# not depend on what else is running.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150

SUBCOMMAND_METRICS = {
    "interpolate": "interpolate_s",
    "density": "density_s",
    "frame": "frame_s",
    "reconstruct": "reconstruct_s",
    "sigma-grid": "sigma_grid_s",
    "growth-check": "growth_check_s",
}
ACCURACY_METRICS = (
    "interpolation.node_residual",
    "interpolation.recon_err",
    "canonical.sigma_err",
    "canonical.growth_violations",
    "sampling.bound_err",
    "pointsets.count_oracle_misses",
)
UNITS = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB", "failed_frac": "ratio"}

_WALL_TIME = re.compile(rb'^\s*"wall_time_s": [^\n]*\n', re.MULTILINE)


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s") or name == "io.s":
        return "s"
    if name.endswith("_frac") or name == "sampling.bound_err":
        return "ratio"
    if name.endswith("_err") or name.endswith("_residual"):
        return "abs"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def child_env() -> dict:
    env = dict(os.environ)
    env.update(BLAS_PIN)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def spawn(work: Path, argv: list, trace_path: Path | None = None) -> dict:
    """Run one child; returns its timing record, with rc != 0 on any failure."""
    result_path = work / "child_result.json"
    result_path.unlink(missing_ok=True)
    env = child_env()
    spawn_t = time.monotonic()
    cmd = [sys.executable, str(HERE / "child.py"), repr(spawn_t), str(result_path),
           str(trace_path) if trace_path else "-", "--", *argv]
    try:
        proc = subprocess.run(cmd, cwd=work, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"rc": -1, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not result_path.is_file():
        tail = proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:]
        return {"rc": proc.returncode or -1, "error": " | ".join(tail)}
    return json.loads(result_path.read_text(encoding="utf-8"))


def digest_dir(path: Path) -> str:
    """SHA-256 of every output file, with the report's wall_time_s line removed."""
    h = hashlib.sha256()
    for f in sorted(path.iterdir()):
        data = f.read_bytes()
        if f.name.endswith("_report.json"):
            data = _WALL_TIME.sub(b"", data)
        h.update(f.name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def source_hash() -> str:
    """Hash of the program sources and the workload definitions."""
    h = hashlib.sha256()
    for f in [*sorted((SRC / "fockspace").rglob("*.py")), HERE / "workloads.py"]:
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


def run_rep(work: Path, invocations: list, traced: bool) -> list:
    """One repetition: every invocation of the workload in order, then the gates.

    Each record's ``wall_s`` is the parent's wall time around the child;
    the gates run after the last child, outside that time.
    """
    for inv in invocations:
        shutil.rmtree(work / inv.out, ignore_errors=True)
    records = []
    for inv in invocations:
        rec = {"command": inv.command, "traced": traced, "gate": None, "digest": None, "wall_s": 0.0}
        records.append(rec)
        try:
            argv = inv.resolve_argv(work)
        except (OSError, KeyError, ValueError) as exc:
            rec.update(rc=-1, error=f"cannot build argv: {exc}")
            continue
        trace_path = work / f"{inv.out}.spans.jsonl" if traced else None
        started = time.monotonic()
        rec.update(spawn(work, argv, trace_path))
        rec["wall_s"] = time.monotonic() - started
    for inv, rec in zip(invocations, records):
        if rec["rc"] != 0:
            continue
        try:
            rec["gate"] = inv.gate(work)
        except Exception:  # a malformed output fails the invocation, not the run
            rec["gate"] = gates.GateResult(False, {}, traceback.format_exc(limit=2))
        rec["digest"] = digest_dir(work / inv.out)
    return records


def _failed(rec: dict) -> bool:
    return rec["rc"] != 0 or rec["gate"] is None or not rec["gate"].ok or rec.get("digest_miss", False)


def check_determinism(reps: list, key: str) -> str | None:
    """Flag digest misses across repetitions and earlier runs; return the workload digest."""
    first = [rec["digest"] for rec in reps[0]]
    for rep in reps[1:]:
        for rec, ref in zip(rep, first):
            if rec["digest"] is not None and ref is not None and rec["digest"] != ref:
                rec["digest_miss"] = True
    if any(d is None for d in first):
        return None
    cache_path = WORK / "digests.json"
    cache = json.loads(cache_path.read_text(encoding="utf-8")) if cache_path.is_file() else {}
    earlier = cache.get(key)
    if earlier is None:
        cache[key] = first
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True), encoding="utf-8")
        os.replace(tmp, cache_path)
    elif earlier != first:
        for rep in reps:
            for rec, ref in zip(rep, earlier):
                if rec["digest"] != ref:
                    rec["digest_miss"] = True
    return hashlib.sha256("".join(first).encode()).hexdigest()


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_pin": BLAS_PIN,
        "machine": platform.machine(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    invocations = workloads.prepare(name, seed, work)

    # the first child also compiles the sources to bytecode; discard it
    probes = [spawn(work, []) for _ in range(SETUP_PROBES + 1)]
    if any(p["rc"] != 0 for p in probes):
        raise SystemExit(f"perfbench: cannot import fockspace.cli: {probes[0].get('error')}")
    setup_samples = [p["setup_s"] for p in probes[1:]]

    # Repetitions continue while the next one fits in the time budget;
    # only time spent in children counts, not the gates. An untraced run
    # makes at least two, so that its medians never rest on one sample; a
    # traced batch is twice as long and one may be all that fits.
    min_batches = 1 if trace else 2
    reps = []
    batches, measured = 0, 0.0
    while True:
        batch = [run_rep(work, invocations, traced=False)]
        if trace:
            batch.append(run_rep(work, invocations, traced=True))
        reps += batch
        batches += 1
        batch_s = sum(rec["wall_s"] for rep in batch for rec in rep)
        measured += batch_s
        if any(rec["rc"] != 0 for rep in batch for rec in rep):
            break
        if batches >= min_batches and measured + batch_s > seconds:
            break

    workload_digest = check_determinism(reps, f"{name}/{seed}/{source_hash()}")
    records = [rec for rep in reps for rec in rep]
    setup_samples += [rec["setup_s"] for rec in records if rec["rc"] == 0]
    failed = sum(_failed(rec) for rec in records)
    plain = [rep for rep in reps if not rep[0]["traced"]]

    def rep_total(rep):
        return sum(rec.get("main_s", 0.0) for rec in rep)

    metrics = {
        "setup_s": statistics.median(setup_samples) * len(invocations),
        "total_s": statistics.median(rep_total(rep) for rep in plain),
        "peak_rss_mb": statistics.median(max(rec.get("peak_rss_mb", 0.0) for rec in rep) for rep in plain),
        "failed_frac": failed / len(records),
    }
    for rec in invocations:
        metric = SUBCOMMAND_METRICS.get(rec.command)
        if metric:
            metrics[metric] = statistics.median(
                r.get("main_s", 0.0) for rep in plain for r in rep if r["command"] == rec.command
            )
    figures = {}
    for rec in records:
        if rec["gate"] is not None:
            for key, value in rec["gate"].figures.items():
                figures[key] = max(figures.get(key, value), value)

    layers = {}
    if trace:
        traced = [rep for rep in reps if rep[0]["traced"]]
        per_rep = []
        for rep in traced:
            sums = {}
            for rec in rep:
                for key, value in rec.get("layers", {}).items():
                    sums[key] = sums.get(key, 0) + value
            per_rep.append(sums)
        keys = sorted({k for sums in per_rep for k in sums})
        for key in keys:
            values = [sums.get(key, 0) for sums in per_rep]
            # counts repeat exactly, so they stay whole numbers
            layers[key] = values[0] if len(set(values)) == 1 else statistics.median(values)
        traced_total = statistics.median(rep_total(rep) for rep in traced)
        layers["trace.overhead_frac"] = (traced_total - metrics["total_s"]) / metrics["total_s"]
        for metric in SUBCOMMAND_METRICS.values():
            layers[metric] = metrics.get(metric, 0.0)
        for key in ACCURACY_METRICS:
            layers[key] = figures.get(key, 0)

    return {
        "name": name,
        "seed": seed,
        "reps": len(plain),
        "records": records,
        "metrics": metrics,
        "layers": layers,
        "digest": workload_digest,
        "attempted": len(records),
        "failed": failed,
    }


def reference_digest(name: str, seed: int):
    path = HERE / "reference_digests.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(name, {}).get(str(seed))


def print_table(res: dict, trace: bool) -> None:
    print(f"workload {res['name']}  seed {res['seed']}  untraced repetitions {res['reps']}  "
          f"invocations {res['attempted']}  failed {res['failed']}")
    for rec in res["records"]:
        gate = rec["gate"]
        status = "FAIL" if _failed(rec) else "ok"
        detail = gate.detail if gate is not None else rec.get("error", "")
        if rec.get("digest_miss"):
            detail += "; output digest differs from an earlier repetition or run"
        tag = " traced" if rec["traced"] else ""
        main_s, cpu_s, setup_s = (rec.get(k, float("nan")) for k in ("main_s", "main_cpu_s", "setup_s"))
        print(f"  {rec['command']:<13}{tag:<7} main {main_s:9.4f} s  cpu {cpu_s:9.4f} s  "
              f"setup {setup_s:7.4f} s  {status:4}  {detail}")
    shown = dict(res["metrics"])
    if trace:
        shown.update(res["layers"])
    for key, value in shown.items():
        text = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        print(f"  {key:<36}{text}  {unit_of(key)}")
    ref = reference_digest(res["name"], res["seed"])
    verdict = "not recorded" if ref is None else ("matches" if ref == res["digest"] else "DIFFERS")
    print(f"  output digest {res['digest']}  (reference for this seed: {verdict})")


def result_line(results: list, trace: bool) -> dict:
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    metrics = {}
    for res in results:
        prefix = "" if len(results) == 1 else res["name"] + "."
        if trace:
            chosen = res["layers"]
        else:
            chosen = {k: res["metrics"][k] for k in ("setup_s", "total_s", "peak_rss_mb")}
        for key, value in chosen.items():
            metrics[prefix + key] = {"value": value, "unit": unit_of(key)}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # A SIGTERM becomes SystemExit, so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "fockspace" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no fockspace sources under {SRC}; run from a checkout\n")
        return 2
    WORK.mkdir(exist_ok=True)
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    print("env " + json.dumps(environment(), sort_keys=True))
    results = []
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_table(res, bool(args.trace))
        results.append(res)
    print(json.dumps(result_line(results, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
