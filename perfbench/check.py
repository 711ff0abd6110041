"""Output checks for one `se3kit` CLI command run by the benchmark.

A command counts as failed when any check here returns a problem: a
non-zero exit, a traceback on stderr, a missing output, a wrong CSV
header, a numeric cell that is not finite, or a row count that does not
match what the command was asked to produce.  Warnings on stderr (fuse
warns on the wide-sigma filter_study rows) are expected and pass.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

_POSE_COLUMNS = ("t", "arm", "x", "y", "z", "qw", "qx", "qy", "qz",
                 "twist_0", "twist_1", "twist_2", "twist_3", "twist_4",
                 "twist_5", "belief_cov_trace")

# Trajectory CSV header and logged arms per closed-loop task.
TRAJECTORY = {
    "track": (_POSE_COLUMNS + ("depth_mm", "track_error_mm", "track_error_deg",
                               "est_error_mm", "est_error_deg"), 2),
    "push_dual": (_POSE_COLUMNS + ("bearing_rad", "target_distance_mm",
                                   "tip_distance_mm", "depth_mm",
                                   "follower_depth_mm", "stability_margin"), 2),
}

STUDY_HEADER = ("sigma_psi", "v_x", "v_y", "v_z", "omega_x", "omega_y", "omega_z")
DATASET_HEADER = ("x", "y", "z", "alpha", "beta", "gamma",
                  "xi_0", "xi_1", "xi_2", "xi_3", "xi_4", "xi_5")


def check_process(returncode: int, stderr: str) -> list:
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    return problems


def read_csv(path: Path, header, text_columns=(), inf_columns=()):
    """(rows, problems): rows of a CSV whose cells must be finite numbers,
    empty, or text in `text_columns`; `inf` is allowed in `inf_columns`."""
    if not path.is_file():
        return [], [f"{path.name}: missing"]
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or tuple(rows[0]) != tuple(header):
        return [], [f"{path.name}: wrong header"]
    problems = []
    text = {header.index(c) for c in text_columns}
    infs = {header.index(c) for c in inf_columns}
    for n, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            problems.append(f"{path.name}:{n}: {len(row)} cells, expected {len(header)}")
            continue
        for i, cell in enumerate(row):
            if i in text or cell == "":
                continue
            try:
                v = float(cell)
            except ValueError:
                problems.append(f"{path.name}:{n}: {header[i]} is not a number")
                continue
            if not math.isfinite(v) and not (i in infs and v == math.inf):
                problems.append(f"{path.name}:{n}: {header[i]} is {cell}")
        if len(problems) > 20:
            break
    return rows[1:], problems


def read_json(path: Path):
    if not path.is_file():
        return None, [f"{path.name}: missing"]
    try:
        with open(path) as fh:
            return json.load(fh), []
    except ValueError:
        return None, [f"{path.name}: not valid JSON"]


def check_trials(out_dir: Path, stem: str, task: str, trials: int, dt: float):
    """(control steps completed, problems) for a closed-loop `run`."""
    header, arms = TRAJECTORY[task]
    problems = []
    steps = 0
    for i in range(trials):
        metrics, p = read_json(out_dir / f"{stem}_trial{i}_metrics.json")
        problems += p
        rows, p = read_csv(out_dir / f"{stem}_trial{i}.csv", header,
                           text_columns=("arm",))
        problems += p
        if metrics is None:
            continue
        runtime = metrics.get("runtime_s")
        if not isinstance(runtime, (int, float)) or not math.isfinite(runtime):
            problems.append(f"{stem}_trial{i}_metrics.json: no finite runtime_s")
            continue
        n_steps = round(runtime / dt)
        if len(rows) != n_steps * arms:
            problems.append(f"{stem}_trial{i}.csv: {len(rows)} rows, expected "
                            f"{n_steps} steps x {arms} arms")
        steps += n_steps
    _, p = read_json(out_dir / f"{stem}_summary.json")
    return steps, problems + p


def check_filter_study(out_dir: Path, sigma_grid) -> list:
    rows, problems = read_csv(out_dir / "filter_study.csv", STUDY_HEADER,
                              inf_columns=("sigma_psi",))
    if not problems and len(rows) != len(sigma_grid):
        problems.append(f"filter_study.csv: {len(rows)} rows, expected {len(sigma_grid)}")
    return problems


def check_dataset(out_dir: Path, samples: int) -> list:
    rows, problems = read_csv(out_dir / "dataset.csv", DATASET_HEADER)
    if not problems and len(rows) != samples:
        problems.append(f"dataset.csv: {len(rows)} rows, expected {samples}")
    return problems


def check_fusion_bench(out_dir: Path, trials: int) -> list:
    data, problems = read_json(out_dir / "fusion_bench.json")
    if data is None:
        return problems
    hist = data.get("iteration_histogram")
    if not isinstance(hist, dict) or sum(hist.values()) != trials:
        problems.append(f"fusion_bench.json: histogram does not count {trials} trials")
    return problems


def hashes(out_dir: Path) -> dict:
    """File name -> sha256 of every file in `out_dir`."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir()) if p.is_file()}
