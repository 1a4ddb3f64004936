"""One pass of the procshap CLI in a fresh interpreter, timed from inside.

Usage: python cli_pass.py STATS.json MODE [procshap arguments...]

MODE is ``setup`` (import the CLI and stop), ``run`` (run it), or
``trace=PREFIX`` (run it with spans recorded, written to PREFIX.bin and
PREFIX.json after the run).  STATS.json receives CLOCK_MONOTONIC readings
(``t_ready`` once ``procshap.cli`` is imported, ``t_start``/``t_end``
around ``main``), the exit code, the user+sys CPU of the pass including
waited-for child processes such as prover calls, and the peak resident set.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  ru_maxrss is no substitute:
    it also counts the benchmark's resident set, which the forked child
    held until exec."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    stats_path, mode, cli_args = sys.argv[1], sys.argv[2], sys.argv[3:]
    import procshap.cli

    stats = {"t_ready": clock()}
    if mode != "setup":
        tracer = None
        if mode.startswith("trace="):
            import tracing

            tracer = tracing.Tracer()
            tracing.install(tracer)
        cpu0 = cpu_seconds()
        stats["t_start"] = clock()
        try:
            code = procshap.cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # reported as a failed pass, not a crashed benchmark
            traceback.print_exc()
            code = 1
        stats["t_end"] = clock()
        stats["cpu_s"] = cpu_seconds() - cpu0
        stats["maxrss_kb"] = peak_rss_kb()
        stats["exit"] = code
        if tracer is not None:
            tracing.dump(tracer, mode.partition("=")[2],
                         {"t_start": stats["t_start"], "t_end": stats["t_end"]})
    with open(stats_path, "w") as handle:
        json.dump(stats, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
