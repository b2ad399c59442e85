"""One fockspace CLI invocation in a fresh interpreter, timed from inside.

    python child.py SPAWN_T RESULT_JSON TRACE_FILE -- [CLI ARGS...]

SPAWN_T is the parent's ``time.monotonic()`` taken just before the
spawn. CLOCK_MONOTONIC is shared by all processes on the machine, so
the reading after ``import fockspace.cli`` minus SPAWN_T is the
interpreter start plus the import. ``main(argv)`` is then timed with
caches cold, as a CLI user pays them. With no CLI arguments the child
only measures the set-up. TRACE_FILE "-" means untraced; otherwise the
layer spans are installed before ``main`` and written to that file.
"""

import time
import json
import resource
import sys


def run() -> int:
    spawn_t = float(sys.argv[1])
    result_path, trace_path = sys.argv[2], sys.argv[3]
    argv = sys.argv[5:]

    import fockspace.cli as cli

    setup_s = time.monotonic() - spawn_t
    tracer = None
    if trace_path != "-":
        import spans

        tracer = spans.install(cli)

    rc, main_s, main_cpu_s = 0, 0.0, 0.0
    if argv:
        started, cpu0 = time.perf_counter(), time.process_time()
        rc = cli.main(argv)
        main_s = time.perf_counter() - started
        main_cpu_s = time.process_time() - cpu0

    result = {
        "rc": rc,
        "setup_s": setup_s,
        "main_s": main_s,
        "main_cpu_s": main_cpu_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        tracer.dump(trace_path)
        result["layers"] = spans.layer_metrics(tracer.totals(), tracer.counts)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(run())
