"""Command-line front end.

Subcommands:
  run           execute a YAML scenario config (closed-loop tasks, or the
                offline filter_study / fusion_bench / gen_dataset tasks)
  filter-study  dynamics-noise sweep without a config file
  fusion-bench  convergence profile of on-manifold fusion
  gen-dataset   sample contact poses and twist labels to CSV
  validate      check a config and echo the resolved scenario, writing
                nothing

Flags are config keys, checked by the same schema as the file's keys.
Exit codes: 0 success, 2 configuration error (nothing is written, no
directory is created), 3 divergence during simulation.  Output locations
default to --out-dir, then the SE3KIT_OUT_DIR environment variable, then
the working directory.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import difflib
import math
import os
import sys
from pathlib import Path

import numpy as np
import yaml

from . import control, filtering, sim, uncertainty
from .errors import DOMAIN_ERRORS, ConfigError, DivergenceError
from .gdnmath import label_pipeline, sample_contact_pose
from .liegroup import exp

# --------------------------------------------------------------------------
# Offline routines


def _run_filter_study(steps: int, sigma_grid, seed: int, out: Path, quiet: bool):
    rng = np.random.default_rng(seed)
    pairs = sim.make_study_sequence(steps, rng)
    table = filtering.filter_study(pairs, sigma_grid, seed=seed)
    filtering.write_study_csv(table, out)
    if not quiet:
        print(f"filter study: {steps} steps, seed {seed}")
        for sigma, mae in table.items():
            label = "inf" if math.isinf(sigma) else f"{sigma:g}"
            print(f"  sigma_psi={label:>6}  MAE "
                  + " ".join(f"{m:.4f}" for m in mae))
        print(f"wrote {out}")
    return 0


def _random_concentrated_pair(rng):
    def spd():
        a = rng.standard_normal((6, 6))
        q, _ = np.linalg.qr(a)
        return q @ np.diag(rng.uniform(0.01, 0.5, 6)) @ q.T

    base = exp(np.concatenate([rng.uniform(-50, 50, 3), rng.uniform(-0.5, 0.5, 3)]))
    offset = exp(0.2 * rng.standard_normal(6))
    return (uncertainty.PoseGaussian(base, spd()),
            uncertainty.PoseGaussian(offset @ base, spd()))


def _run_fusion_bench(trials: int, seed: int, out: Path, quiet: bool):
    rng = np.random.default_rng(seed)
    pairs = [_random_concentrated_pair(rng) for _ in range(trials)]
    a = uncertainty.PoseGaussian.stack(first for first, _ in pairs)
    b = uncertainty.PoseGaussian.stack(second for _, second in pairs)

    # Convergence profile: the passes fuse ran on each pair, stopping at the
    # first whose correction is below uncertainty._FUSE_TOL.  All pairs fuse
    # as one stack, once; each element stops on its own.
    for _, _, passes in uncertainty._fuse_iterates(a, b):
        pass
    histogram = {str(k): int(np.count_nonzero(passes == k))
                 for k in range(1, uncertainty._FUSE_ITERATIONS + 1)}

    sim.write_metrics_json(
        {"trials": trials, "seed": seed, "iteration_histogram": histogram}, out)
    if not quiet:
        print(f"fusion bench: {trials} fusion pairs, seed {seed}")
        print("iterations to converge: "
              + ", ".join(f"{k}: {v}" for k, v in sorted(histogram.items())))
        print(f"wrote {out}")
    return 0


# gen-dataset draws, labels and writes this many samples at a time, so its
# arrays, and its peak memory, do not grow with the sample count: labelling
# all 5000 shipped samples as one stack raised the peak by 4 MB (500 at a
# time by 0.4 MB), while blocks of 100 kept it at the per-sample loop's.
_DATASET_BLOCK = 100


def _run_gen_dataset(samples: int, seed: int, out: Path, quiet: bool):
    rng = np.random.default_rng(seed)
    with open(out, "w", newline="") as fh:
        fh.write("x,y,z,alpha,beta,gamma,xi_0,xi_1,xi_2,xi_3,xi_4,xi_5\n")
        for start in range(0, samples, _DATASET_BLOCK):
            euler = np.array([sample_contact_pose(rng)
                              for _ in range(min(_DATASET_BLOCK, samples - start))])
            # one stacked pass labels the block
            for row in np.concatenate((euler, label_pipeline(euler)), axis=1):
                fh.write(",".join(f"{v:.17g}" for v in row.tolist()) + "\n")
    if not quiet:
        print(f"wrote {samples} samples to {out}")
    return 0


# An offline task: its routine, its output file, its own keys with their
# defaults, and its subcommand's help; the integer keys are also flags.
_Offline = collections.namedtuple("_Offline", "run out defaults help")
_OFFLINE = {
    "filter_study": _Offline(_run_filter_study, "filter_study.csv", {
        "steps": 2000, "sigma_grid": [10.0, 1.0, 0.1, 0.01, math.inf]},
        "dynamics-noise sweep"),
    "fusion_bench": _Offline(_run_fusion_bench, "fusion_bench.json", {"trials": 200},
                             "fusion convergence histogram"),
    "gen_dataset": _Offline(_run_gen_dataset, "dataset.csv", {"samples": 1000},
                            "sample contact poses to CSV"),
}
_ALL_TASKS = sim.TASKS + tuple(_OFFLINE)


# --------------------------------------------------------------------------
# Config loading and validation


def _check_positive_int(v):
    return sim.is_integer(v) and v >= 1


# The closed-loop schema is declared on sim.Scenario's fields.
_SCENARIO_FIELDS = {f.name: f for f in dataclasses.fields(sim.Scenario)}


def _check_sigma_grid(v):
    # Each finite row is a dynamics noise level.
    return (isinstance(v, list) and len(v) >= 1
            and all(x == math.inf or sim._is_sigma(x) for x in v))


# key -> (validator, human description of the expected value)
_KEY_SPECS = {
    **{name: (f.metadata["check"], f.metadata["expect"])
       for name, f in _SCENARIO_FIELDS.items()},
    "task": (lambda v: v in _ALL_TASKS, f"one of {', '.join(_ALL_TASKS)}"),
    "trials": (_check_positive_int, "a positive integer"),
    "steps": (lambda v: sim.is_integer(v) and v >= 2, "an integer of at least 2"),
    "sigma_grid": (_check_sigma_grid,
                   "a list of positive numbers whose squares are finite (or .inf)"),
    "samples": (_check_positive_int, "a positive integer"),
}

_COMMON_KEYS = {"task", "seed"}
# Closed-loop keys without a default.
_REQUIRED = [name for name, f in _SCENARIO_FIELDS.items()
             if f.default is dataclasses.MISSING]


def _task_keys(task: str) -> set:
    """Keys a task's config may carry besides the common ones."""
    if task in _OFFLINE:
        return set(_OFFLINE[task].defaults)
    return {"trials"} | {name for name, f in _SCENARIO_FIELDS.items()
                         if task in f.metadata["tasks"]}


def _check_keys(task: str, items, where) -> None:
    """Check (key, value) pairs against the schema of `task`; `where(key)`
    locates a key in the diagnostic (a file line or a flag)."""
    allowed = _COMMON_KEYS | _task_keys(task)
    for key, value in items:
        if key not in allowed:
            if key in _KEY_SPECS:
                hint = f" (not valid for task '{task}')"
            else:
                near = difflib.get_close_matches(str(key), sorted(allowed), n=1)
                hint = f" (did you mean '{near[0]}'?)" if near else ""
            raise ConfigError(f"{where(key)}: unknown key '{key}'{hint}")
        check, expect = _KEY_SPECS[key]
        if not check(value):
            raise ConfigError(
                f"{where(key)}: '{key}' must be {expect}, got {value!r}")


def _repeated_key(root):
    """The first top-level key node that repeats an earlier key, or None.

    Run before construction, which keeps the last of two equal keys and
    folds a `<<` merge (an override, not a repeat) into the mapping."""
    seen = set()
    for key, _ in root.value if isinstance(root, yaml.MappingNode) else ():
        if isinstance(key, yaml.ScalarNode) and key.tag != "tag:yaml.org,2002:merge":
            if (key.tag, key.value) in seen:
                return key
            seen.add((key.tag, key.value))
    return None


def load_config(path) -> dict:
    """Parse and validate a scenario config; raises ConfigError.

    The returned dict is exactly the file's content (no defaults filled
    in); resolution against defaults happens when the scenario is built.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as e:
        raise ConfigError(f"{path}: cannot read config ({e.strerror})")
    # One parse: the node tree locates the keys and constructs their values.
    try:
        loader = yaml.SafeLoader(text)
        root = loader.get_single_node()
        repeated = _repeated_key(root)
        data = None if root is None else loader.construct_document(root)
    except yaml.YAMLError as e:
        mark = getattr(e, "problem_mark", None)
        line = f":{mark.line + 1}" if mark is not None else ""
        raise ConfigError(f"{path}{line}: not valid YAML ({e.__class__.__name__})")
    except (ValueError, OverflowError, RecursionError) as e:
        # PyYAML does not wrap a constructor's ValueError (a date such as
        # 2001-13-45), a \U escape past Unicode or nesting too deep to compose;
        # the node under construction, else the read position, locates them.
        node = next(reversed(loader.recursive_objects), None)
        mark = loader.get_mark() if node is None else node.start_mark
        raise ConfigError(f"{path}:{mark.line + 1}: not valid YAML "
                          f"({e.__class__.__name__}: {e})")
    if root is None:
        raise ConfigError(f"{path}: config is empty")
    if not isinstance(data, dict):
        raise ConfigError(f"{path}:1: config must be a mapping of keys to values")
    if repeated is not None:
        raise ConfigError(f"{path}:{repeated.start_mark.line + 1}: "
                          f"duplicate key '{repeated.value}'")
    lines = {key.value: key.start_mark.line + 1 for key, _ in root.value}

    def where(key):
        return f"{path}:{lines.get(str(key), 1)}"

    task = data.get("task")
    if task is None:
        raise ConfigError(f"{path}:1: missing required key 'task'")
    ok, expect = _KEY_SPECS["task"]
    if not ok(task):
        raise ConfigError(f"{where('task')}: task must be {expect}, got {task!r}")
    _check_keys(task, data.items(), where)
    missing = [key for key in _REQUIRED if key not in data]
    if task in sim.TASKS and missing:
        raise ConfigError(f"{path}:1: task '{task}' requires '{missing[0]}'")
    return data


def _build_scenario(config: dict, seed: int) -> sim.Scenario:
    fields = {k: v for k, v in config.items() if k in _SCENARIO_FIELDS}
    try:
        return sim.Scenario(**fields | {"seed": seed})
    except ValueError as e:
        raise ConfigError(str(e))


def _resolve(args) -> tuple:
    """(config, scenarios): the file's keys, or an offline subcommand's task,
    with the flags laid over them (and an offline task's defaults under
    them), all checked; and one Scenario per closed-loop trial."""
    if args.command in ("run", "validate"):
        config = load_config(args.config)
    else:
        config = {"task": args.command.replace("-", "_")}
    flags = {k: v for k, v in vars(args).items() if k in _KEY_SPECS and v is not None}
    _check_keys(config["task"], flags.items(), lambda key: f"--{key}")
    config.update(flags)
    if config["task"] in _OFFLINE:
        return _OFFLINE[config["task"]].defaults | config, []
    seed = config.get("seed", 0)
    try:
        return config, [_build_scenario(config, seed + i)
                        for i in range(config.get("trials", 1))]
    except ConfigError as e:
        # a rule between keys, so the config file is its location
        raise ConfigError(f"{args.config}: {e}") from None


# --------------------------------------------------------------------------
# Scenario trials


def _aggregate(per_trial: list) -> dict:
    """mean and std (ddof=0) of every numeric metric shared by all trials."""
    summary = {}
    keys = set(per_trial[0]) - {"trial", "seed"}
    for m in per_trial[1:]:
        keys &= set(m)
    for key in sorted(keys):
        values = [m[key] for m in per_trial]
        if all(sim.is_number(v) for v in values):
            arr = np.array(values, dtype=float)
            summary[key] = {"mean": float(arr.mean()), "std": float(arr.std())}
    return summary


def _run_trials(scenarios: list, stem: str, out_dir: Path, quiet: bool) -> int:
    # In lockstep: each step observes and filters every trial's arms as one
    # stack (sim.run_scenarios), and each trial's outputs are its own run's.
    results = sim.run_scenarios(scenarios)

    per_trial = []
    for i, ((traj, metrics), scn) in enumerate(zip(results, scenarios)):
        traj.write_csv(out_dir / f"{stem}_trial{i}.csv")
        metrics = dict(metrics, trial=i, seed=scn.seed)
        sim.write_metrics_json(metrics, out_dir / f"{stem}_trial{i}_metrics.json")
        per_trial.append(metrics)
        if not quiet:
            shown = {k: v for k, v in metrics.items()
                     if k not in ("task", "trial") and v is not None}
            print(f"trial {i}: " + ", ".join(
                f"{k}={v:.4g}" if sim.is_number(v) else f"{k}={v}"
                for k, v in sorted(shown.items())))

    summary = {"task": scenarios[0].task, "trials": len(scenarios),
               "seed": scenarios[0].seed, "metrics": _aggregate(per_trial)}
    sim.write_metrics_json(summary, out_dir / f"{stem}_summary.json")
    if not quiet:
        for key, stats in summary["metrics"].items():
            print(f"{key}: {stats['mean']:.6g} +/- {stats['std']:.6g}")
        print(f"wrote {len(scenarios)} trial logs and {stem}_summary.json to {out_dir}")
    return 0


# --------------------------------------------------------------------------
# Entry points


def _add_common(p: argparse.ArgumentParser):
    p.add_argument("--seed", type=int, default=None,
                   help="override the base random seed")
    p.add_argument("--out-dir", default=None,
                   help="output directory (default: $SE3KIT_OUT_DIR or '.')")
    p.add_argument("--quiet", action="store_true", help="suppress stdout chatter")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="se3kit",
        description="closed-loop tactile servoing scenarios and supporting "
                    "estimation benchmarks (units: mm, rad, s)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a YAML scenario config")
    p_run.add_argument("config", help="scenario config file")
    p_run.add_argument("--trials", type=int, default=None,
                       help="override the number of trials")
    p_run.add_argument("--dt", type=float, default=None,
                       help="override the control period in seconds")
    _add_common(p_run)

    for task, offline in _OFFLINE.items():
        p = sub.add_parser(task.replace("_", "-"), help=offline.help)
        for key, default in offline.defaults.items():
            if sim.is_integer(default):
                p.add_argument(f"--{key}", type=int, help=f"default {default}")
        _add_common(p)

    p_val = sub.add_parser("validate", help="check a config without running")
    p_val.add_argument("config", help="scenario config file")
    return parser


def _resolve_out_dir(arg) -> Path:
    out = Path(arg if arg is not None else os.environ.get("SE3KIT_OUT_DIR", "."))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _validate_cmd(config_path, config: dict, scenarios: list) -> int:
    task = config["task"]
    print(f"{config_path}: ok")
    print(f"task: {task} (units: mm, rad, s)")
    if scenarios:
        scn = scenarios[0]
        print(f"duration: {scn.duration} s at dt={scn.dt:.6g} s "
              f"({scn.n_steps} steps)")
        print(f"controller presets: {', '.join(sim.controller_presets(scn))}")
        if task in sim._PUSH_TASKS:
            print("alignment switch-off radius: "
                  f"{control._SWITCH_OFF_RADIUS:g} mm, "
                  f"termination radius: {sim._TERMINATION_RADIUS:g} mm")
        print(f"trials: {len(scenarios)}, base seed: {scn.seed}")
        print("would write: per-trial trajectory CSV, per-trial metrics JSON, "
              "summary JSON")
    else:
        print(", ".join(f"{k}: {config[k]}" for k in _OFFLINE[task].defaults))
        print(f"would write: {_OFFLINE[task].out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, scenarios = _resolve(args)
        if args.command == "validate":
            return _validate_cmd(args.config, config, scenarios)
        out_dir = _resolve_out_dir(args.out_dir)
        if scenarios:
            return _run_trials(scenarios, Path(args.config).stem, out_dir, args.quiet)
        offline = _OFFLINE[config["task"]]
        try:
            return offline.run(**{k: config[k] for k in offline.defaults},
                               seed=config.get("seed", 0), out=out_dir / offline.out,
                               quiet=args.quiet)
        except DOMAIN_ERRORS as e:
            raise DivergenceError(f"{config['task']}: {type(e).__name__}: {e}") from e
    except ConfigError as e:
        print(f"se3kit: config error: {e}", file=sys.stderr)
        return 2
    except DivergenceError as e:
        print(f"se3kit: diverged: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
