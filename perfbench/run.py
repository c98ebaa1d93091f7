"""Benchmark of the founderhmm command line, driven in-process.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

Run from a source checkout: the package is imported from ``src/`` next to
this directory, and the command exits 2 without a result when it is not
there. One client in one process runs the workload's command chain
through ``founderhmm.cli.main`` in a closed loop, each command starting
when the previous one returns, for about ``--seconds`` seconds.

``--trace 0`` prints the end-to-end metrics. Each iteration of the loop
runs the set-up and then the chain, untraced and timed apart. ``--trace 1``
prints the per-layer metrics: a traced set-up, untraced runs for half the
time, then one traced run whose spans are written to
``.bench_work/traces/``. The first run's outputs are checked in full, and
every later run and set-up, traced or not, must write byte-identical
files. The last line of standard output is the result as JSON; the line
before it holds run details and the environment.

``--workload all`` runs each workload in a process of its own, so that
peak memory is that workload's alone.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import numpy as np

import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")
# A cheap set-up is repeated within an iteration, to give its median more
# samples than there are chain runs.
SETUP_MIN_S = 0.5
# The CPU of the shared 2-core VM this was built on runs at speeds up to 2x
# apart, switching within seconds, in shares that drift over minutes: the
# median chain time of 40-second windows of scan-distinct ranged 4.2-6.3 s,
# while host_probe ranged 1.35-2.8 ms. Wall times are therefore reported
# scaled by PROBE_REF_S / (mean probe of the process); README.md gives the
# spreads with and without it. PROBE_REF_S is the probe's fast time there.
PROBE_REF_S = 0.0014


class ProgramMissing(Exception):
    pass


def load_program():
    """Import founderhmm from this checkout's ``src/`` and nowhere else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "founderhmm", "cli.py")):
        raise ProgramMissing(f"no founderhmm sources under {src}")
    sys.path.insert(0, src)
    # The package re-exports the function ``simulate`` under the name of
    # its module, so the modules are taken from the import system.
    fh = types.SimpleNamespace(**{
        name: importlib.import_module(f"founderhmm.{name}")
        for name in ("cli", "io_formats", "simulate")})
    if not os.path.abspath(fh.cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"founderhmm imported from {fh.cli.__file__}")
    return fh


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def environment():
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "commit": commit()}


def commit():
    """HEAD of the checkout's git metadata, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


_K = 5
_TRANS = np.full((_K, _K), 0.1 / _K) + np.eye(_K) * 0.9
_EMIT = np.linspace(0.1, 0.9, _K)
_PLANES = (np.outer(1 - _EMIT, 1 - _EMIT), np.outer(_EMIT, _EMIT))


def host_probe():
    """Seconds that a fixed forward recursion over 5 x 5 pair states takes
    now, the median of five. It calls nothing of founderhmm, so it measures
    the host and not the program."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        state = np.full((_K, _K), 1.0 / _K ** 2)
        for i in range(300):
            state = _TRANS.T @ state @ _TRANS
            state *= _PLANES[i % 3 != 0]
            state /= state.sum()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Runner:
    """Runs CLI command chains, probes the host between commands, and keeps
    the tally behind ``failed``."""

    def __init__(self, cli):
        self.cli = cli  # main is looked up per call, so tracing can wrap it
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.probes = []

    def chain(self, commands):
        """Run commands in order until one fails; return (seconds spent in
        the commands, ok)."""
        gc.collect()
        seconds = 0.0
        for argv in commands:
            self.probes.append(host_probe())
            self.attempted += 1
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = self.cli.main(argv)
            seconds += time.perf_counter() - start
            if code != 0:
                self.failed += 1
                self.errors.append(f"{argv[0]} exited {code}: "
                                   f"{sink.getvalue().strip()[-500:]}")
                return seconds, False
        self.probes.append(host_probe())
        return seconds, True

    def speed_scale(self):
        """PROBE_REF_S over the mean probe: the factor that turns this
        process's wall times into seconds at the reference host speed."""
        return PROBE_REF_S / statistics.mean(self.probes)

    def fail(self, message):
        self.failed += 1
        self.errors.append(message)


def read_all(paths):
    out = {}
    for path in paths:
        with open(path, "rb") as fh:
            out[path] = fh.read()
    return out


class BenchError(Exception):
    pass


class SameBytes:
    """Holds the first reading of some files; later readings must match."""

    def __init__(self, paths):
        self.paths = paths
        self.first = None

    def matches(self):
        produced = read_all(self.paths)
        if self.first is None:
            self.first = produced
        return produced == self.first


def closed_loop(runner, w, seed, files, data, budget, with_setup):
    """Iterations for about ``budget`` seconds, and at least one. Each runs
    the set-up, when ``with_setup``, until SETUP_MIN_S is spent, and then
    the chain, timed apart, so that both medians sample the same stretch of
    machine time. The first chain's outputs are checked in full; every
    later chain and set-up must write the same bytes as the first. Returns
    the set-up and chain wall times and the chain outputs' SameBytes, whose
    ``first`` stays None when no chain passed the checks."""
    setup = workloads.setup_commands(w, seed, files)
    setup_bytes = SameBytes(workloads.setup_outputs(w, files))
    commands = workloads.run_commands(w, seed, files)
    run_bytes = SameBytes(workloads.run_outputs(w, files))
    setup_walls, walls = [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + statistics.median(walls)
                        + sum(setup_walls) / len(walls) <= budget):
        spent = 0.0
        while with_setup and spent < SETUP_MIN_S:
            wall, ok = runner.chain(setup)
            if not ok:
                raise BenchError(runner.errors[-1])
            setup_walls.append(wall)
            spent += wall
            if not setup_bytes.matches():
                runner.fail("set-up outputs differ between repeats")
        wall, ok = runner.chain(commands)
        walls.append(wall)
        if not ok:
            continue
        try:
            if run_bytes.first is None:
                workloads.check_outputs(w, files, data)
            if not run_bytes.matches():
                runner.fail("outputs differ from the first run's")
        except (workloads.CheckFailed, OSError, ValueError, LookupError) as exc:
            runner.fail(f"output check: {type(exc).__name__}: {exc}")
    return setup_walls, walls, run_bytes


def measure(w, seed, files, data, runner, seconds):
    """End-to-end metrics from untraced set-ups and runs."""
    setup_walls, walls, run_bytes = closed_loop(runner, w, seed, files, data,
                                                seconds, True)
    scale = runner.speed_scale()
    metrics = {"run_s": statistics.median(walls) * scale,
               "setup_s": statistics.median(setup_walls) * scale,
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    details = {"setup_walls": setup_walls, "run_walls": walls,
               "probes": len(runner.probes), "speed_scale": scale}
    return metrics, run_bytes.first is not None, details


def measure_traced(w, seed, files, data, runner, seconds):
    """Per-layer metrics from a traced set-up and one traced run, after
    untraced runs for half the time; returns the tracer too."""
    t = tracing.Tracer()
    t.run = "setup"
    t.install()
    try:
        _, ok = runner.chain(workloads.setup_commands(w, seed, files))
    finally:
        t.uninstall()
    if not ok:
        raise BenchError(runner.errors[-1])
    _, walls, run_bytes = closed_loop(runner, w, seed, files, data,
                                      seconds / 2.0, False)
    t.run = "run"
    t.install()
    try:
        traced_wall, ok = runner.chain(workloads.run_commands(w, seed, files))
    finally:
        t.uninstall()
    if ok and run_bytes.first is not None and not run_bytes.matches():
        runner.fail("traced outputs differ from the untraced run's")
    run_spans = [s for s in t.spans if s.run == "run"]
    metrics = tracing.layer_metrics(t.spans, run_spans, traced_wall,
                                    statistics.median(walls))
    details = {"run_walls": walls, "traced_wall": traced_wall}
    return metrics, run_bytes.first is not None, details, t


def run_workload(w, seed, seconds, trace, fh):
    e2e_units, layer_units = load_spec()
    units = layer_units if trace else e2e_units
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{w.name}-seed{seed}-pid{os.getpid()}")
    os.makedirs(workdir)
    try:
        files = workloads.Files(workdir)
        runner = Runner(fh.cli)
        data = fh.simulate.simulate(fh.simulate.SimConfig(seed=seed, **w.sim))
        details = {"workload": w.name, "seed": seed, "seconds": seconds,
                   "trace": trace, "env": environment()}
        if trace:
            metrics, checked, extra, t = measure_traced(
                w, seed, files, data, runner, seconds)
        else:
            metrics, checked, extra = measure(w, seed, files, data, runner,
                                              seconds)
        details.update(extra)
        try:
            metrics.update(workloads.quality(w, files, data, fh))
        except Exception as exc:  # a failed run can leave any artifact behind
            runner.fail(f"quality: {type(exc).__name__}: {exc}")
            metrics.update(dict.fromkeys(workloads.QUALITY, 0.0))
        metrics["ok_frac"] = 1.0 - runner.failed / runner.attempted
        missing = set(units) - set(metrics)
        if missing:
            raise BenchError(f"metrics not measured: {sorted(missing)}")
        if trace:
            os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
            trace_file = os.path.join(WORK, "traces", f"{w.name}-seed{seed}.json")
            t.dump(trace_file, {**details, "metrics": metrics})
            details["trace_file"] = os.path.relpath(trace_file, ROOT)
        details["errors"] = runner.errors
        result = {"correct": runner.failed == 0 and checked,
                  "attempted": runner.attempted,
                  "failed": runner.failed,
                  "metrics": {name: {"value": metrics[name], "unit": unit}
                              for name, unit in units.items()}}
        return details, result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run_all(args):
    """Each workload in a process of its own; print their lines and a
    combined result whose metric names carry the workload's name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, check=False, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(json.dumps({"workload": name, **result}))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        fh = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"error: cannot load the program: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        details, result = run_workload(workloads.WORKLOADS[args.workload],
                                       args.seed, args.seconds, args.trace, fh)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
