"""Span recorder for the traced benchmark run, and the per-layer metrics
derived from its spans.

Recording happens inside one `se3kit` CLI process: run this file as

    python3 perfbench/spans.py <spans.json> <se3kit arguments...>

with `src/` on PYTHONPATH.  It wraps every function in TARGETS at every
module binding (``from .liegroup import exp`` makes a separate binding in
each importing module) and on the classes that own the traced methods,
runs ``se3kit.cli.main``, and writes the spans when the command ends.

Each thread keeps its own parent stack, so a span opened in a
``ThreadPoolExecutor`` worker never becomes the child of whatever the main
thread has open.  Spans stay in memory until the command ends.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import statistics
import sys
import threading
import time

# span name -> (module, attribute); "Class.method" patches the class.
TARGETS = {
    "liegroup.exp": ("se3kit.liegroup", "exp"),
    "liegroup.log": ("se3kit.liegroup", "log"),
    "liegroup.inv_left_jacobian": ("se3kit.liegroup", "inv_left_jacobian"),
    "liegroup.adjoint": ("se3kit.liegroup", "adjoint"),
    "liegroup.renormalized": ("se3kit.liegroup", "Pose.renormalized"),
    "uncertainty.fuse": ("se3kit.uncertainty", "fuse"),
    "uncertainty.transform": ("se3kit.uncertainty", "transform"),
    "filtering.step": ("se3kit.filtering", "step"),
    "filtering.filter_study": ("se3kit.filtering", "filter_study"),
    "control.servo_step": ("se3kit.control", "servo_step"),
    "control.push_step": ("se3kit.control", "push_step"),
    "sim.contact_pose": ("se3kit.sim", "contact_pose"),
    "sim.observe": ("se3kit.sim", "observe"),
    "sim.run_scenario": ("se3kit.sim", "run_scenario"),
    "sim.TrajectoryLog.add": ("se3kit.sim", "TrajectoryLog.add"),
    "sim.TrajectoryLog.write_csv": ("se3kit.sim", "TrajectoryLog.write_csv"),
    "sim.write_metrics_json": ("se3kit.sim", "write_metrics_json"),
    "gdnmath.sample_contact_pose": ("se3kit.gdnmath", "sample_contact_pose"),
    "gdnmath.label_pipeline": ("se3kit.gdnmath", "label_pipeline"),
    "cli.load_config": ("se3kit.cli", "load_config"),
}

# Span record layout: (span id, parent id or -1, name, thread ident,
# start ns, end ns, key).
SID, PARENT, NAME, THREAD, START, END, KEY = range(7)


class Recorder:
    """Collects spans from wrapped functions, one parent stack per thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def wrap(self, name: str, fn, keyed: bool = False):
        spans, ids, local = self.spans, self._ids, self._local
        clock = time.perf_counter_ns
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            sid = next(ids)
            parent = stack[-1] if stack else -1
            key = id(args[0]) if keyed and args else 0
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, get_ident(), start, end, key))

        return wrapper

    def save(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(sorted(self.spans), fh, separators=(",", ":"))


def install(recorder: Recorder) -> None:
    """Wrap every TARGETS entry at every binding in the se3kit modules."""
    for mod in ("se3kit", "se3kit.liegroup", "se3kit.uncertainty",
                "se3kit.filtering", "se3kit.control", "se3kit.sim",
                "se3kit.gdnmath", "se3kit.cli"):
        importlib.import_module(mod)
    modules = [m for k, m in sorted(sys.modules.items())
               if m is not None and (k == "se3kit" or k.startswith("se3kit."))]
    for name, (modname, attr) in TARGETS.items():
        owner = sys.modules[modname]
        # contact_pose spans carry their surface object's id, so step
        # intervals are taken per surface (per perception channel).
        keyed = name == "sim.contact_pose"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name)
            setattr(cls, meth, recorder.wrap(name, getattr(cls, meth), keyed))
            continue
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original, keyed)
        for mod in modules:
            for binding, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, binding, wrapper)


# --------------------------------------------------------------------------
# Analysis


def self_ns(spans) -> dict:
    """Span id -> duration minus the part of it that its child spans cover."""
    children = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = {}
    for s in spans:
        start, end = s[START], s[END]
        covered = 0
        cursor = start
        for c0, c1 in sorted(children.get(s[SID], ())):
            c0, c1 = max(c0, cursor), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                cursor = c1
        out[s[SID]] = end - start - covered
    return out


def _quantile(values, q: int) -> float:
    """q-th percentile (1..99) by statistics.quantiles; 0.0 below 2 values."""
    if len(values) < 2:
        return 0.0
    return statistics.quantiles(values, n=100)[q - 1]


def step_intervals_ms(spans) -> list:
    """Intervals between successive sim.contact_pose calls on one surface.

    `spans` is a list of per-command span lists; object ids are only
    meaningful within one process, so each command is grouped separately.
    """
    out = []
    for command in spans:
        starts = {}
        for s in command:
            if s[NAME] == "sim.contact_pose":
                starts.setdefault(s[KEY], []).append(s[START])
        for seq in starts.values():
            seq.sort()
            out.extend((b - a) / 1e6 for a, b in zip(seq, seq[1:]))
    return out


def trial_overlap(command) -> float:
    """Sum of run_scenario span time over the runner's wall time, for one
    command; 1.0 means trials ran one after another.  0.0 without trials."""
    runs = [s for s in command if s[NAME] == "sim.run_scenario"]
    if not runs:
        return 0.0
    busy = sum(s[END] - s[START] for s in runs)
    wall = max(s[END] for s in runs) - min(s[START] for s in runs)
    return busy / wall if wall > 0 else 0.0


# name -> unit; the order in which metrics are reported.
LAYER_METRICS = {
    "liegroup.exp.calls": "count",
    "liegroup.exp.us": "us",
    "liegroup.log.calls": "count",
    "liegroup.log.us": "us",
    "liegroup.inv_left_jacobian.calls": "count",
    "liegroup.inv_left_jacobian.us": "us",
    "liegroup.renormalized.calls": "count",
    "liegroup.renormalized.us": "us",
    "liegroup.adjoint.calls": "count",
    "liegroup.self_s": "s",
    "uncertainty.fuse.calls": "count",
    "uncertainty.fuse.us": "us",
    "uncertainty.fuse.self_us": "us",
    "uncertainty.fuse.iterations": "count",
    "uncertainty.transform.us": "us",
    "uncertainty.self_s": "s",
    "filtering.step.calls": "count",
    "filtering.step.us": "us",
    "filtering.filter_study.s": "s",
    "control.servo_step.calls": "count",
    "control.servo_step.us": "us",
    "control.push_step.us": "us",
    "sim.contact_pose.us": "us",
    "sim.observe.us": "us",
    "sim.run_scenario.s": "s",
    "sim.run_scenario.self_s": "s",
    "sim.TrajectoryLog.add.us": "us",
    "sim.TrajectoryLog.write_csv.s": "s",
    "sim.output_bytes": "bytes",
    "sim.step_ms_p50": "ms",
    "sim.step_ms_p99": "ms",
    "gdnmath.sample_contact_pose.us": "us",
    "gdnmath.label_pipeline.us": "us",
    "cli.load_config.s": "s",
    "cli.trial_overlap": "ratio",
    "cli.write_s": "s",
    "trace.overhead_frac": "ratio",
}


def layer_metrics(commands, output_bytes: int, overhead_frac: float) -> dict:
    """Per-layer metrics from the spans of every command in one traced pass.

    `commands` is a list of span lists, one per CLI process.  A `.us`
    metric is the mean per call including children, `.calls` an exact
    count, `.s` a total.  A layer the workload never enters reads 0.
    """
    spans = [s for command in commands for s in command]
    own = self_ns(spans)
    by_name = {}
    for s in spans:
        by_name.setdefault(s[NAME], []).append(s)

    def calls(name):
        return len(by_name.get(name, ()))

    def total_s(name):
        return sum(s[END] - s[START] for s in by_name.get(name, ())) / 1e9

    def mean_us(name):
        n = calls(name)
        return total_s(name) * 1e6 / n if n else 0.0

    def self_s(prefix):
        return sum(own[s[SID]] for s in spans if s[NAME].startswith(prefix)) / 1e9

    fuses = by_name.get("uncertainty.fuse", [])
    exp_children = {}
    for s in by_name.get("liegroup.exp", ()):
        exp_children[s[PARENT]] = exp_children.get(s[PARENT], 0) + 1
    iterations = [exp_children.get(s[SID], 0) for s in fuses]
    intervals = step_intervals_ms(commands)
    overlaps = [trial_overlap(c) for c in commands
                if any(s[NAME] == "sim.run_scenario" for s in c)]

    values = {
        "liegroup.exp.calls": calls("liegroup.exp"),
        "liegroup.exp.us": mean_us("liegroup.exp"),
        "liegroup.log.calls": calls("liegroup.log"),
        "liegroup.log.us": mean_us("liegroup.log"),
        "liegroup.inv_left_jacobian.calls": calls("liegroup.inv_left_jacobian"),
        "liegroup.inv_left_jacobian.us": mean_us("liegroup.inv_left_jacobian"),
        "liegroup.renormalized.calls": calls("liegroup.renormalized"),
        "liegroup.renormalized.us": mean_us("liegroup.renormalized"),
        "liegroup.adjoint.calls": calls("liegroup.adjoint"),
        "liegroup.self_s": self_s("liegroup."),
        "uncertainty.fuse.calls": len(fuses),
        "uncertainty.fuse.us": mean_us("uncertainty.fuse"),
        "uncertainty.fuse.self_us": (
            sum(own[s[SID]] for s in fuses) / 1e3 / len(fuses) if fuses else 0.0),
        "uncertainty.fuse.iterations": (
            statistics.median_low(iterations) if iterations else 0),
        "uncertainty.transform.us": mean_us("uncertainty.transform"),
        "uncertainty.self_s": self_s("uncertainty."),
        "filtering.step.calls": calls("filtering.step"),
        "filtering.step.us": mean_us("filtering.step"),
        "filtering.filter_study.s": total_s("filtering.filter_study"),
        "control.servo_step.calls": calls("control.servo_step"),
        "control.servo_step.us": mean_us("control.servo_step"),
        "control.push_step.us": mean_us("control.push_step"),
        "sim.contact_pose.us": mean_us("sim.contact_pose"),
        "sim.observe.us": mean_us("sim.observe"),
        "sim.run_scenario.s": total_s("sim.run_scenario"),
        "sim.run_scenario.self_s": sum(
            own[s[SID]] for s in by_name.get("sim.run_scenario", ())) / 1e9,
        "sim.TrajectoryLog.add.us": mean_us("sim.TrajectoryLog.add"),
        "sim.TrajectoryLog.write_csv.s": total_s("sim.TrajectoryLog.write_csv"),
        "sim.output_bytes": output_bytes,
        "sim.step_ms_p50": _quantile(intervals, 50),
        "sim.step_ms_p99": _quantile(intervals, 99),
        "gdnmath.sample_contact_pose.us": mean_us("gdnmath.sample_contact_pose"),
        "gdnmath.label_pipeline.us": mean_us("gdnmath.label_pipeline"),
        "cli.load_config.s": (
            total_s("cli.load_config") / calls("cli.load_config")
            if calls("cli.load_config") else 0.0),
        "cli.trial_overlap": statistics.median(overlaps) if overlaps else 0.0,
        "cli.write_s": (total_s("sim.TrajectoryLog.write_csv")
                        + total_s("sim.write_metrics_json")),
        "trace.overhead_frac": overhead_frac,
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}


def load(path) -> list:
    with open(path) as fh:
        return [tuple(s) for s in json.load(fh)]


def _main(argv) -> int:
    out_path, cli_args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    from se3kit import cli

    try:
        return cli.main(cli_args)
    finally:
        recorder.save(out_path)


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
