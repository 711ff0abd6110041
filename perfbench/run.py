#!/usr/bin/env python3
"""se3kit benchmark: drives the `se3kit` CLI from outside, one fresh child
process per command, one command at a time, and checks every output.

    python3 perfbench/run.py --workload track --seed 1 --seconds 25 --trace 0

Run from the repository root.  `--trace 0` repeats the workload's
commands for `--seconds` and reports end-to-end medians; `--trace 1`
times a few untraced passes, then runs one pass with every layer's
public functions wrapped (perfbench/spans.py) and reports per-layer
metrics.  The last stdout line is one JSON object; the lines before it
are a readable table, the environment record and the output-hash check.

    python3 perfbench/run.py --workload track --seed 1 --record-reference

runs one pass and stores its output hashes in perfbench/reference.json.
See perfbench/README.md for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import yaml

import check
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CONFIGS = SRC / "se3kit" / "configs"
WORK = HERE / "_work"
REFERENCE = HERE / "reference.json"

# se3kit arguments per command, before --seed/--out-dir/--quiet.  The
# inputs are the shipped configs at their shipped length.
WORKLOADS = {
    # 2700 sequential predict/fuse steps of one arm pair; the trial runner
    # idles and the largest trajectory CSV is written.
    "track": (("run", "track_periodic.yaml", "--trials", "1"),),
    # Two perception channels, push_step and the pushing plant per step,
    # and two trials through the CLI's concurrent trial runner.
    "push_dual": (("run", "push_dual.yaml", "--trials", "2"),),
    # No control loop; every input is independent by construction.
    "offline": (("run", "filter_study.yaml"), ("run", "dataset.yaml"),
                ("fusion-bench", "--trials", "200")),
}

SETUP_SAMPLES = 5

# A run must end within 180 s; no pass starts that would likely cross this.
RUN_BUDGET_S = 165.0


def child_env() -> dict:
    """The environment every CLI child gets, identical on every commit."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


def environment(env: dict) -> dict:
    import numpy

    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "inherited_OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


class Child:
    """One finished CLI process: exit code, wall/CPU time, peak RSS, output."""

    def __init__(self, argv, env, timeout: float):
        stdout_path, stderr_path = WORK / "stdout.txt", WORK / "stderr.txt"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.returncode = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.stdout = stdout_path.read_text(errors="replace")
        self.stderr = stderr_path.read_text(errors="replace")
        self.problems = check.check_process(self.returncode, self.stderr)


def cli_argv(command, seed: int, out_dir: Path) -> list:
    args = [str(CONFIGS / a) if a.endswith(".yaml") else a for a in command]
    return args + ["--seed", str(seed), "--out-dir", str(out_dir), "--quiet"]


def command_config(command):
    """(config path or None, parsed config) of one workload command."""
    for a in command:
        if a.endswith(".yaml"):
            path = CONFIGS / a
            with open(path) as fh:
                return path, yaml.safe_load(fh)
    return None, {}


def _flag(command, name: str, default):
    return int(command[command.index(name) + 1]) if name in command else default


def check_outputs(command, out_dir: Path, dt: dict) -> tuple:
    """(steps completed, problems) for one finished workload command.

    Steps are control steps for closed-loop runs and filter predict/correct
    steps for filter_study; the other offline commands have none.
    """
    path, config = command_config(command)
    task = config.get("task", "fusion_bench")
    if task in check.TRAJECTORY:
        if path not in dt:
            return 0, ["validate reported no dt"]
        trials = _flag(command, "--trials", config.get("trials", 1))
        return check.check_trials(out_dir, path.stem, task, trials, dt[path])
    if task == "filter_study":
        grid = config["sigma_grid"]
        steps = (config["steps"] - 1) * sum(1 for s in grid if math.isfinite(s))
        return steps, check.check_filter_study(out_dir, grid)
    if task == "gen_dataset":
        return 0, check.check_dataset(out_dir, config["samples"])
    return 0, check.check_fusion_bench(out_dir, _flag(command, "--trials", 200))


class Pass:
    """One pass over a workload's commands, outputs checked and hashed."""

    def __init__(self, commands, seed: int, env: dict, dt: dict,
                 deadline: float, trace_dir: Path | None = None):
        out_dir = WORK / "out"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        self.wall_s = self.cpu_s = self.rss_mb = 0.0
        self.steps = 0
        self.failed = 0
        self.problems = []
        self.span_files = []
        for i, command in enumerate(commands):
            argv = cli_argv(command, seed, out_dir)
            if trace_dir is None:
                argv = [sys.executable, "-m", "se3kit.cli"] + argv
            else:
                self.span_files.append(trace_dir / f"spans{i}.json")
                argv = [sys.executable, str(HERE / "spans.py"),
                        str(self.span_files[-1])] + argv
            child = Child(argv, env, deadline - time.perf_counter())
            self.wall_s += child.wall_s
            self.cpu_s += child.cpu_s
            self.rss_mb = max(self.rss_mb, child.rss_mb)
            steps, problems = check_outputs(command, out_dir, dt)
            problems = child.problems + problems
            if problems:
                self.failed += 1
                self.problems += [f"{' '.join(command)}: {p}" for p in problems]
            else:
                self.steps += steps
        self.attempted = len(commands)
        self.hashes = check.hashes(out_dir)
        self.output_bytes = sum(p.stat().st_size for p in out_dir.iterdir())


def setup(commands, env: dict, samples: int, deadline: float):
    """Time `se3kit validate` over the workload's configs in fresh processes.

    One untimed pass first, so that bytecode caches are written; returns
    (per-sample seconds, dt per closed-loop config, attempted, problems).
    """
    paths = [p for p in (command_config(c)[0] for c in commands) if p]
    times, dt, attempted, problems = [], {}, 0, []
    for k in range(samples + 1):
        total = 0.0
        for path in paths:
            child = Child([sys.executable, "-m", "se3kit.cli", "validate", str(path)],
                          env, deadline - time.perf_counter())
            attempted += 1
            total += child.wall_s
            problems += [f"validate {path.name}: {p}" for p in child.problems]
            m = re.search(r"at dt=(\S+) s", child.stdout)
            if m:
                dt[path] = float(m.group(1))
        if k:
            times.append(total)
    return times, dt, attempted, problems


def repeat(commands, seed, env, dt, seconds: float, start: float) -> list:
    """Passes until `seconds` have elapsed (at least one), stopping early
    rather than let the run outgrow its budget."""
    passes = []
    begin = time.perf_counter()
    deadline = start + RUN_BUDGET_S
    while True:
        passes.append(Pass(commands, seed, env, dt, deadline))
        now = time.perf_counter()
        if now - begin >= seconds or now + 1.5 * passes[-1].wall_s > deadline:
            return passes


def quartiles(values) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def reference_check(workload: str, seed: int, passes) -> str:
    """'true'/'false' against the stored hashes; 'unknown' without them."""
    if any(p.hashes != passes[0].hashes for p in passes):
        return "false (outputs differ between passes)"
    try:
        with open(REFERENCE) as fh:
            stored = json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        stored = None
    if stored is None:
        return f"unknown (no reference for seed {seed})"
    return "true" if stored == passes[0].hashes else "false"


def record_reference(workload: str, seed: int, passes) -> None:
    try:
        with open(REFERENCE) as fh:
            stored = json.load(fh)
    except FileNotFoundError:
        stored = {}
    stored.setdefault(workload, {})[str(seed)] = passes[0].hashes
    with open(REFERENCE, "w") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")


def end_to_end(setup_times, passes) -> dict:
    """Metric -> (samples, unit); the median of the samples is reported."""
    return {
        "setup_s": (setup_times, "s"),
        "wall_s": ([p.wall_s for p in passes], "s"),
        "cpu_s": ([p.cpu_s for p in passes], "s"),
        "steps_per_s": ([p.steps / p.wall_s for p in passes], "1/s"),
        "peak_rss_mb": ([p.rss_mb for p in passes], "MB"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="run one pass and store its output hashes")
    args = parser.parse_args(argv)

    if not (SRC / "se3kit" / "cli.py").is_file():
        print(f"perfbench: no se3kit sources under {SRC}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    env = child_env()
    record = environment(env)
    record["loadavg_before"] = os.getloadavg()
    commands = WORKLOADS[args.workload]
    deadline = start + RUN_BUDGET_S

    samples = 0 if args.trace or args.record_reference else SETUP_SAMPLES
    setup_times, dt, attempted, problems = setup(commands, env, samples, deadline)
    failed = len(problems)

    if args.record_reference:
        passes = [Pass(commands, args.seed, env, dt, deadline)]
    elif args.trace:
        passes = repeat(commands, args.seed, env, dt, args.seconds / 2, start)
        trace_dir = WORK / "trace"
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir()
        traced = Pass(commands, args.seed, env, dt, deadline, trace_dir)
        if traced.hashes != passes[0].hashes:
            traced.problems.append("traced outputs differ from untraced outputs")
            traced.failed = max(traced.failed, 1)
    else:
        passes = repeat(commands, args.seed, env, dt, args.seconds, start)
    record["loadavg_after"] = os.getloadavg()

    all_passes = passes + ([traced] if args.trace else [])
    attempted += sum(p.attempted for p in all_passes)
    failed += sum(p.failed for p in all_passes)
    problems += [q for p in all_passes for q in p.problems]
    for q in problems[:20]:
        print(f"FAILED {q}")

    if args.record_reference:
        if failed:
            return 1
        record_reference(args.workload, args.seed, passes)
        print(f"recorded {len(passes[0].hashes)} output hashes for "
              f"{args.workload} seed {args.seed}")
        return 0

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{len(passes)} untraced pass(es)")
    print("env " + json.dumps(record, sort_keys=True))
    print(f"outputs_identical: {reference_check(args.workload, args.seed, passes)}")
    print(f"failed_frac: {failed / attempted:.4g} ({failed} of {attempted} commands)")
    metrics = {}
    if args.trace:
        untraced = statistics.median(p.wall_s for p in passes)
        layers = spans.layer_metrics(
            [spans.load(f) for f in traced.span_files if f.is_file()],
            traced.output_bytes,
            traced.wall_s / untraced - 1.0)
        for name, (value, unit) in layers.items():
            print(f"  {name:34s} {value:14.6g} {unit}")
            metrics[name] = {"value": value, "unit": unit}
    else:
        for name, (values, unit) in end_to_end(setup_times, passes).items():
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            print(f"  {name:12s} {med:12.6g} {unit:4s} n={len(values)} "
                  f"q1={q1:.6g} q3={q3:.6g}")
            metrics[name] = {"value": med, "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
