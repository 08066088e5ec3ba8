"""rabiqed benchmark: the CLI as its users run it, one workload per run.

    python3 perfbench/run.py --workload readme --seed 1 --seconds 20 --trace 0

Run from anywhere; the package is taken from the ``src`` directory next to
this one, never from an installed copy.  A run

1. records the environment and pins BLAS to one thread in every child;
2. with ``--trace 0``, times a fresh ``import rabiqed.cli`` several times
   (``setup_s``), then runs passes of the workload's operations, each one in
   a fresh interpreter as a CLI user would, one after another, for about
   ``--seconds`` (always at least one pass); every child's time is scaled
   to a reference host speed (HostClock);
3. with ``--trace 1``, profiles the import and runs traced in-process passes
   (trace.py) for the per-layer metrics instead;
4. checks every output against reference.json, writes a result file under
   ``perfbench/out/results`` and prints the metrics: a readable report on
   stderr, and one JSON object as the last line of stdout.

It exits 2, printing no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
SETUP_REPEATS = 5
IMPORT_PROFILES = 3
# A run must end within 180 s; no child may start or run past this.
RUN_DEADLINE_S = 165.0
# HostClock's kernel time on a 2-vCPU 2.1 GHz Xeon VM in its faster state.
REFERENCE_KERNEL_S = 0.025

# End-to-end metrics of the readable report, by operation kind.
KIND_METRICS = {"sweep_s": workloads.SWEEP, "fit_s": workloads.FIT,
                "evolve_s": workloads.EVOLVE, "steady_s": workloads.STEADY}


@dataclass
class Child:
    seconds: float
    exit: int
    rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(THREADS, PYTHONPATH=str(SRC))
    return env


def run_child(argv: list[str], cwd: Path, timeout: float, stdout=subprocess.DEVNULL,
              stderr=subprocess.DEVNULL) -> Child:
    """Run one child to completion; its wall time and its own peak RSS.

    The child is waited for without reaping (WNOWAIT), so the timeout can
    still kill it safely, and then reaped with wait4 for its own rusage.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=stdout, stderr=stderr)
    timer = threading.Timer(max(timeout, 0.1), os.kill, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        seconds = time.perf_counter() - start
    finally:
        timer.cancel()
        timer.join()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(seconds=seconds, exit=proc.returncode, rss_mb=usage.ru_maxrss / 1024.0)


def environment() -> dict:
    """What the timings depend on, read from a child with the children's settings."""
    probe = ("import json, os, sys, numpy, scipy, rabiqed; "
             "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']; "
             "print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'scipy': scipy.__version__, "
             "'blas': blas.get('name', '') + ' ' + str(blas.get('version', '')), "
             "'package': os.path.realpath(rabiqed.__file__)}))")
    result = subprocess.run([sys.executable, "-c", probe], env=child_env(),
                            capture_output=True, text=True, timeout=60, check=True)
    info = json.loads(result.stdout)
    package = info.pop("package")
    if Path(package).resolve().parent != (SRC / "rabiqed").resolve():
        raise RuntimeError(f"rabiqed imported from {package}, not from {SRC}")
    cpu = ""
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    info.update(THREADS, nproc=len(os.sched_getaffinity(0)), cpu=cpu)
    return info


def source_identity() -> dict:
    """The code measured: git commit if there is one, and a hash of the source."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "rabiqed").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel",
                              "HEAD"], capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT.resolve():
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def command(op: workloads.Op) -> list[str]:
    if op.program == workloads.LIBRARY:
        return [sys.executable, str(BENCH / "coherent.py"), *op.args]
    return [sys.executable, "-m", "rabiqed.cli", *op.args]


def fresh_workdir(workload: str) -> Path:
    workdir = OUT / "work" / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / workloads.CONFIG_NAME).write_text(json.dumps(workloads.CONFIG, indent=2))
    return workdir


class HostClock:
    """Converts children's wall times to seconds at a reference host speed.

    On a shared VM the host switches between speeds about 1.4x apart every
    few seconds, and the share of time spent slow differs from run to run,
    so raw wall times of identical runs spread by up to 30%.  A fixed kernel,
    a Python loop and eight LAPACK ``eigh`` of a 120x120 matrix, is timed in
    this process before and after each child, and the child's time is
    scaled by REFERENCE_KERNEL_S over the kernel's mean time around it.
    The kernel does not use the package, so a change to the package moves
    the scaled time as much as the raw one.
    """

    def __init__(self):
        os.environ.update(THREADS)
        import numpy as np  # after the pinning, which OpenBLAS reads at load
        a = np.random.default_rng(0).standard_normal((120, 120))
        self.matrix, self.eigh = a + a.T, np.linalg.eigh
        self.last = self.kernel_s()

    def kernel_s(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        for _ in range(8):
            self.eigh(self.matrix)
        return time.perf_counter() - start

    def scaled(self, seconds: float) -> float:
        """A child's time that has just ended, at the reference speed."""
        after = self.kernel_s()
        result = seconds * REFERENCE_KERNEL_S * 2 / (self.last + after)
        self.last = after
        return result


def check_outputs(ops, workdir: Path, reference: dict, failures: dict[str, list]) -> None:
    for op in ops:
        if op.id not in failures:
            problems = checks.check(op, workdir, reference.get(op.key))
            if problems:
                failures[op.id] = problems


def untraced_pass(ops, workload: str, reference: dict, clock: HostClock,
                  deadline: float) -> dict:
    """Run every operation in a fresh interpreter; time, measure, then check."""
    workdir = fresh_workdir(workload)
    timings, scaled, failures = {}, {}, {}
    for op in ops:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            failures[op.id] = ["not run: the run's deadline passed"]
            continue
        with open(workdir / f"{op.id}.stderr", "wb") as err:
            child = run_child(command(op), workdir, remaining, stderr=err)
        timings[op.id] = child
        scaled[op.id] = clock.scaled(child.seconds)
        stderr = (workdir / f"{op.id}.stderr").read_text(errors="replace")
        if child.exit != 0 or "Traceback" in stderr:
            failures[op.id] = [f"exit {child.exit}", *stderr.splitlines()[-3:]]
    check_outputs(ops, workdir, reference, failures)
    kinds = {op.id: op.kind for op in ops}
    metrics = {"wall_s": sum(scaled.values()),
               "wall_raw_s": sum(c.seconds for c in timings.values()),
               "peak_rss_mb": max((c.rss_mb for c in timings.values()), default=0.0)}
    for name, kind in KIND_METRICS.items():
        if kind in kinds.values():
            metrics[name] = sum(t for i, t in scaled.items() if kinds[i] == kind)
    return {"metrics": metrics, "failures": failures,
            "ops": {i: {"seconds": c.seconds, "scaled_s": scaled[i], "exit": c.exit,
                        "rss_mb": c.rss_mb} for i, c in timings.items()}}


def traced_pass(ops, workload: str, seed: int, reference: dict, deadline: float) -> dict:
    """Run trace.py once: every operation in-process, with spans."""
    workdir = fresh_workdir(workload)
    spans = OUT / "spans" / f"{workload}-seed{seed}.csv"
    spans.parent.mkdir(parents=True, exist_ok=True)
    layers = workdir / "layers.json"
    argv = [sys.executable, str(BENCH / "trace.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir), "--spans", str(spans),
            "--metrics", str(layers)]
    with open(workdir / "trace.stderr", "wb") as err:
        child = run_child(argv, BENCH, deadline - time.monotonic(), stderr=err)
    failures = {}
    try:
        result = json.loads(layers.read_text())
    except (OSError, ValueError):
        stderr = (workdir / "trace.stderr").read_text(errors="replace")
        failures = {op.id: [f"traced pass exit {child.exit}", *stderr.splitlines()[-3:]]
                    for op in ops}
        return {"metrics": {}, "failures": failures, "seconds": child.seconds}
    for status in result["ops"]:
        if status["exit"] != 0:
            failures[status["id"]] = [f"exit {status['exit']}"]
    check_outputs(ops, workdir, reference, failures)
    return {"metrics": result["metrics"], "failures": failures, "seconds": child.seconds,
            "spans": result["spans"], "spans_file": str(spans.relative_to(ROOT))}


def setup_seconds(clock: HostClock, deadline: float) -> tuple[list[float], list[float]]:
    """Raw and scaled times of fresh interpreters importing the CLI, what
    every command pays."""
    argv = [sys.executable, "-c", "import rabiqed.cli"]
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        child = run_child(argv, ROOT, deadline - time.monotonic())
        if child.exit != 0:
            raise RuntimeError(f"import rabiqed.cli exited {child.exit}")
        raw.append(child.seconds)
        scaled.append(clock.scaled(child.seconds))
    return raw, scaled


def import_profile() -> dict[str, float]:
    """Import time of the CLI and of scipy.sparse within it, via -X importtime."""
    probe = ("import time; t = time.perf_counter(); import rabiqed.cli; "
             "print(time.perf_counter() - t)")
    result = subprocess.run([sys.executable, "-X", "importtime", "-c", probe],
                            env=child_env(), capture_output=True, text=True,
                            timeout=60, check=True)
    sparse_us = [int(m.group(1)) for m in re.finditer(
        r"^import time:\s+\d+ \|\s+(\d+) \|\s*scipy\.sparse$", result.stderr, re.M)]
    return {"cli.import_s": float(result.stdout.strip()),
            "cli.import_scipy_sparse_s": max(sparse_us, default=0) * 1e-6}


def passes(run_one, seconds: float, deadline: float) -> list[dict]:
    """Closed loop: start another pass while its midpoint falls within --seconds.

    So a run measures about --seconds, give or take half a pass, and always
    at least one pass; no pass starts unless it should end before the deadline.
    """
    results = []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(run_one())
        now = time.monotonic()
        last = now - began
        if now + last / 2 > start + seconds or now + last > deadline:
            return results


def median_metrics(results: list[dict]) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for result in results:
        for name, value in result["metrics"].items():
            values.setdefault(name, []).append(value)
    return {name: statistics.median(v) for name, v in values.items()}


def report(workload: str, seed: int, units: dict[str, str], metrics: dict,
           attempted: int, failed: int, n_passes: int, traced: bool) -> None:
    lines = [f"rabiqed benchmark: workload {workload}, seed {seed}, "
             f"{'traced' if traced else 'untraced'}, {n_passes} pass(es)"]
    if traced:
        for name, unit in units.items():
            lines.append(f"  {name:<32} {metrics.get(name, 0.0):.6g} {unit}")
    else:
        for name in ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s", *KIND_METRICS,
                     "peak_rss_mb"):
            value = metrics.get(name)
            unit = "MB" if name == "peak_rss_mb" else "s"
            shown = "n/a (no such operation)" if value is None else f"{value:.4f} {unit}"
            lines.append(f"  {name:<14} {shown}")
        lines.append(f"  {'fail_frac':<14} {failed / attempted:.4f} ratio "
                     f"({failed} of {attempted} operations)")
    print("\n".join(lines), file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="rabiqed benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "rabiqed" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'rabiqed'}", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text())
    env = environment()
    # byte-compile once so that no timed child pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "rabiqed")],
                   env=child_env(), check=True, timeout=120)
    ops = workloads.operations(args.workload, args.seed)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    if args.trace:
        profiles = [import_profile() for _ in range(IMPORT_PROFILES)]
        results = passes(lambda: traced_pass(ops, args.workload, args.seed, reference,
                                             deadline), args.seconds, deadline)
        all_metrics = median_metrics(results)
        for name in profiles[0]:
            all_metrics[name] = statistics.median(p[name] for p in profiles)
    else:
        clock = HostClock()
        setup_raw, setup = setup_seconds(clock, deadline)
        results = passes(lambda: untraced_pass(ops, args.workload, reference, clock,
                                               deadline), args.seconds, deadline)
        all_metrics = median_metrics(results)
        all_metrics["setup_s"] = statistics.median(setup)
        all_metrics["setup_raw_s"] = statistics.median(setup_raw)

    attempted = len(ops) * len(results)
    failed = sum(len(r["failures"]) for r in results)
    record = {"workload": args.workload, "seed": args.seed,
              "variant": workloads.variant(args.seed), "seconds": args.seconds,
              "trace": args.trace, "environment": env, "code": source_identity(),
              "inputs": [" ".join(op.args) for op in ops],
              "attempted": attempted, "failed": failed, "metrics": all_metrics,
              "passes": results}
    results_dir = OUT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for r in results:
        for op_id, problems in r["failures"].items():
            print(f"FAILED {op_id}: " + "; ".join(problems), file=sys.stderr)
    report(args.workload, args.seed, units, all_metrics, attempted, failed,
           len(results), bool(args.trace))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": all_metrics.get(name, 0.0), "unit": unit}
                                  for name, unit in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
