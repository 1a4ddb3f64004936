"""procshap benchmark: end-to-end and per-layer metrics of ``procshap matrix``.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see workloads.py): bundled-exact, synth-mc, synth-large,
prover-exact.  Inputs are generated from the seed before anything is timed.

Each pass runs the real CLI in a fresh interpreter (cli_pass.py) with its
default settings, the 2-thread configuration pool included.  Passes repeat,
one at a time, while another fits in ``--seconds``; at least one runs.

``--trace 0`` reports the end-to-end metrics:
  setup_s      interpreter start plus ``import procshap.cli``, median over
               dedicated set-up samples and every pass
  run_s        CLI entry to the last emitted file, median over passes
  cpu_s        user+sys CPU of the pass, prover subprocesses included
  peak_rss_mb  peak resident set of the CLI process
``--trace 1`` alternates untraced and traced passes for twice ``--seconds``,
at least one of each, and reports the per-layer metrics of layers.py
(medians over traced passes) plus trace.overhead_s, the median traced minus
the median untraced run_s.

Every pass is checked (workloads.Checker).  The result line counts
configurations: ``attempted`` over all passes and ``failed`` among them,
so fail_ratio = failed / attempted.  The last line of stdout is the JSON
result; the lines before it print every metric by name with its unit.

``--write-references`` runs one pass and stores its mined trees (and exact
phi) in references.json as the reference for that workload and seed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from statistics import median

import layers
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKROOT = ROOT / ".perfbench_work"
NAMES = ("bundled-exact", "synth-mc", "synth-large", "prover-exact")
SETUP_SAMPLES = 10
DEADLINE_S = 165  # the whole run ends well within 180 s
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Runner:
    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        # TMPDIR keeps the prover's problem files inside the checkout.
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(workdir))
        self.count = 0

    def spawn(self, mode: str, args: list[str]) -> dict:
        """Run cli_pass.py once; returns its stats plus setup_s, or an
        ``exit`` other than 0 when it failed or ran out of time."""
        self.count += 1
        stats_path = self.workdir / f"stats{self.count}.json"
        cmd = [sys.executable, str(BENCH / "cli_pass.py"), str(stats_path), mode, *args]
        t_spawn = clock()
        proc = subprocess.Popen(cmd, env=self.env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=max(1.0, self.deadline - clock()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"exit": "timeout"}
        if proc.returncode != 0 or not stats_path.exists():
            sys.stderr.write(err[-2000:])
            return {"exit": proc.returncode or "no stats"}
        stats = json.loads(stats_path.read_text())
        stats["setup_s"] = stats["t_ready"] - t_spawn
        if stats.get("exit", 0) != 0:
            sys.stderr.write(err[-2000:])
        return stats

    def cli_pass(self, workload, mode: str) -> tuple[dict, dict | None]:
        out = self.workdir / f"out{self.count + 1}"
        stats = self.spawn(mode, [*workload.cli_args, "--out", str(out)])
        report = None
        if (out / "report.json").exists():
            report = json.loads((out / "report.json").read_text())
        shutil.rmtree(out, ignore_errors=True)
        return stats, report


def measure(workload, runner: Runner, seconds: float, trace: bool, checker):
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            stats = runner.spawn("setup", [])
            if "setup_s" in stats:
                setup.append(stats["setup_s"])
    passes = {"run": [], "trace": []}
    window = 2 * seconds if trace else seconds
    attempted, failures = 0, []
    start = clock()
    walls: list[float] = []
    while True:
        kind = "trace" if trace and len(passes["trace"]) < len(passes["run"]) else "run"
        prefix = runner.workdir / f"trace{runner.count + 1}"
        mode = f"trace={prefix}" if kind == "trace" else "run"
        t0 = clock()
        stats, report = runner.cli_pass(workload, mode)
        walls.append(clock() - t0)
        attempted += workload.configs
        failed = checker.check(report, stats.get("exit"))
        failures += failed
        if "t_end" not in stats:
            break  # a crashed or timed-out pass: nothing more to measure
        if kind == "trace":
            stats["layers"] = layers.analyze(str(prefix))
        else:
            setup.append(stats["setup_s"])
        passes[kind].append(stats)
        need_more = trace and not passes["trace"]
        left = runner.deadline - clock()
        if left < median(walls) or (not need_more and clock() - start + median(walls) > window):
            break
    return setup, passes, attempted, failures


def end_to_end(setup: list[float], runs: list[dict]) -> dict:
    return {
        "setup_s": median(setup),
        "run_s": median([s["t_end"] - s["t_start"] for s in runs]),
        "cpu_s": median([s["cpu_s"] for s in runs]),
        "peak_rss_mb": median([s["maxrss_kb"] / 1024 for s in runs]),
    }


def per_layer(passes: dict) -> dict:
    traced = [s["layers"] for s in passes["trace"]]
    metrics = {}
    for name in traced[0]:
        values = [t[name] for t in traced]
        metrics[name] = None if None in values else median(values)
    untraced = median([s["t_end"] - s["t_start"] for s in passes["run"]])
    metrics[layers.OVERHEAD[0]] = metrics["trace.run_s"] - untraced
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-references", action="store_true")
    args = parser.parse_args(argv)
    began = clock()

    if not (ROOT / "src" / "procshap" / "__init__.py").is_file():
        print(f"error: no procshap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    WORKROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKROOT))
    try:
        workload = workloads.prepare(args.workload, args.seed, workdir)
        runner = Runner(workdir, began + DEADLINE_S)
        if args.write_references:
            return write_references(workload, runner, args.seed)
        checker = workloads.Checker(workload)
        setup, passes, attempted, failures = measure(
            workload, runner, args.seconds, bool(args.trace), checker)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORKROOT.rmdir()
        except OSError:
            pass  # another run is using it

    record = workloads.run_record()
    print(f"# machine: nproc={record['nproc']} cpu={record['cpu']!r} "
          f"python={record['python']} numpy={record['numpy']} src_lines={record['src_lines']}")
    print(f"# workload {args.workload} seed={args.seed} trace={args.trace}: "
          f"{workloads.WHY[args.workload]}")
    if workload.info:
        print("# input: " + " ".join(f"{k}={v}" for k, v in workload.info.items() if k != "log"))
    print(f"# passes: {len(passes['run'])} untraced, {len(passes['trace'])} traced; "
          f"{len(setup)} set-up samples")
    for message in failures:
        print(f"# check failed: {message}")
    print(f"fail_ratio {len(failures) / attempted:.6g} ratio ({len(failures)}/{attempted})")

    if not passes["run"] or (args.trace and not passes["trace"]):
        print("error: no pass completed", file=sys.stderr)
        return 1
    values, units = end_to_end(setup, passes["run"]), dict(END_TO_END)
    if args.trace:
        for name, value in values.items():
            print(f"{name} {value:.6g} {units[name]} (untraced passes)")
        values, units = per_layer(passes), layers.units()
        shares = [(name.split(".")[0], value / values["trace.run_s"])
                  for name, value in values.items()
                  if value is not None and name in layers.SELF_TIMES]
        print("# layer self time over traced run_s (threads summed): "
              + ", ".join(f"{layer} {share:.3f}" for layer, share in shares))
        for layer, moves in layers.MOVES.items():
            print(f"# {layer} metrics should move: {moves}")
    for name, value in values.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {units[name]}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def write_references(workload, runner: Runner, seed: int) -> int:
    stats, report = runner.cli_pass(workload, "run")
    if report is None:
        print("error: the pass failed; no references written", file=sys.stderr)
        return 1
    path = workloads.REFERENCES
    references = json.loads(path.read_text()) if path.exists() else {}
    references[workload.name] = workloads.reference_entry(workload, report, seed)
    path.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    print(f"wrote references for {workload.name} (seed {seed}) to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
