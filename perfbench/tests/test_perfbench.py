"""Tests of the benchmark itself: span arithmetic, output checks, names.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def span(sid, parent, name, thread, start, end, key=0):
    return (sid, parent, name, thread, start, end, key)


def test_self_time_on_nested_tree_over_two_threads():
    # Thread 1: root [0, 100] > a [10, 30], b [40, 90] > c [50, 60].
    # Thread 2 overlaps it in wall time: r2 [20, 80] > d [30, 50].
    tree = [
        span(0, -1, "sim.run_scenario", 1, 0, 100),
        span(1, 0, "uncertainty.fuse", 1, 10, 30),
        span(2, -1, "sim.run_scenario", 2, 20, 80),
        span(3, 2, "uncertainty.fuse", 2, 30, 50),
        span(4, 0, "uncertainty.fuse", 1, 40, 90),
        span(5, 4, "liegroup.exp", 1, 50, 60),
    ]
    assert spans.self_ns(tree) == {0: 30, 1: 20, 2: 40, 3: 20, 4: 40, 5: 10}
    assert spans.trial_overlap(tree) == pytest.approx((100 + 60) / 100)
    metrics = spans.layer_metrics([tree], output_bytes=7, overhead_frac=0.5)
    assert metrics["sim.run_scenario.self_s"][0] == pytest.approx(70e-9)
    assert metrics["uncertainty.fuse.calls"][0] == 3
    assert metrics["uncertainty.fuse.self_us"][0] == pytest.approx(80e-3 / 3)
    assert metrics["uncertainty.self_s"][0] == pytest.approx(80e-9)
    assert metrics["liegroup.self_s"][0] == pytest.approx(10e-9)
    assert metrics["uncertainty.fuse.iterations"][0] == 0  # median of 0, 0, 1


def test_recorder_keeps_one_parent_stack_per_thread():
    rec = spans.Recorder()
    barrier = threading.Barrier(2)
    inner = rec.wrap("liegroup.exp", lambda: time.sleep(0.01))

    def outer_fn():
        barrier.wait()
        inner()
        barrier.wait()

    outer = rec.wrap("sim.run_scenario", outer_fn)
    threads = [threading.Thread(target=outer) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    by_id = {s[spans.SID]: s for s in rec.spans}
    inners = [s for s in rec.spans if s[spans.NAME] == "liegroup.exp"]
    assert len(inners) == 2 and len(by_id) == 4
    for s in inners:
        parent = by_id[s[spans.PARENT]]
        assert parent[spans.NAME] == "sim.run_scenario"
        assert parent[spans.THREAD] == s[spans.THREAD]


def test_step_intervals_are_per_surface_and_per_command():
    ms = 1_000_000
    cmd = [span(0, -1, "sim.contact_pose", 1, 0, 1, key=7),
           span(1, -1, "sim.contact_pose", 1, 1 * ms, 2, key=8),
           span(2, -1, "sim.contact_pose", 1, 3 * ms, 4, key=7),
           span(3, -1, "sim.contact_pose", 1, 6 * ms, 7, key=7)]
    other = [span(0, -1, "sim.contact_pose", 1, 100 * ms, 1, key=7)]
    assert sorted(spans.step_intervals_ms([cmd, other])) == [3.0, 3.0]


def _write_trial(out: Path, rows: int, runtime_steps: int, cell="0.5"):
    header, _ = check.TRAJECTORY["track"]
    lines = [",".join(header)]
    for k in range(rows):
        arm = "leader" if k % 2 == 0 else "follower"
        cells = [str(k), arm] + [cell] * (len(header) - 2)
        lines.append(",".join(cells))
    (out / "t_trial0.csv").write_text("\n".join(lines) + "\n")
    (out / "t_trial0_metrics.json").write_text(
        json.dumps({"runtime_s": runtime_steps * 0.5}))
    (out / "t_summary.json").write_text("{}")


def test_checker_accepts_complete_trial(tmp_path):
    _write_trial(tmp_path, rows=6, runtime_steps=3)
    steps, problems = check.check_trials(tmp_path, "t", "track", 1, dt=0.5)
    assert (steps, problems) == (3, [])


def test_checker_flags_truncated_csv(tmp_path):
    _write_trial(tmp_path, rows=5, runtime_steps=3)
    _, problems = check.check_trials(tmp_path, "t", "track", 1, dt=0.5)
    assert any("5 rows, expected 3 steps x 2 arms" in p for p in problems)


def test_checker_flags_nan_cell(tmp_path):
    _write_trial(tmp_path, rows=6, runtime_steps=3, cell="nan")
    _, problems = check.check_trials(tmp_path, "t", "track", 1, dt=0.5)
    assert problems and all("is nan" in p for p in problems)


def test_checker_flags_missing_file_and_wrong_header(tmp_path):
    _, problems = check.check_trials(tmp_path, "t", "track", 1, dt=0.5)
    assert any("missing" in p for p in problems)
    (tmp_path / "dataset.csv").write_text("x,y\n1,2\n")
    assert check.check_dataset(tmp_path, 1) == ["dataset.csv: wrong header"]


def test_checker_allows_inf_only_for_the_bypass_row(tmp_path):
    rows = [",".join(check.STUDY_HEADER), "inf," + ",".join(["0.1"] * 6)]
    (tmp_path / "filter_study.csv").write_text("\n".join(rows) + "\n")
    assert check.check_filter_study(tmp_path, [float("inf")]) == []
    rows[1] = "0.1,inf," + ",".join(["0.1"] * 5)
    (tmp_path / "filter_study.csv").write_text("\n".join(rows) + "\n")
    assert check.check_filter_study(tmp_path, [0.1]) == ["filter_study.csv:2: v_x is inf"]


def test_checker_flags_exit_code_and_traceback_not_warnings():
    assert check.check_process(1, "") == ["exit code 1"]
    assert check.check_process(0, "Traceback (most recent call last):\n") == [
        "traceback on stderr"]
    assert check.check_process(0, "UserWarning: fuse input a has ...") == []


def test_metric_names_and_units_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = [m["name"] for m in bench["end_to_end"]]
    layer = [m["name"] for m in bench["per_layer"]]
    assert e2e == list(run.end_to_end([1.0], []).keys())
    assert layer == list(spans.LAYER_METRICS)
    for name in e2e + layer + [w["name"] for w in bench["workloads"]]:
        assert NAME.match(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert units == spans.LAYER_METRICS
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


def test_traced_command_wraps_every_binding(tmp_path):
    config = tmp_path / "short.yaml"
    config.write_text("task: track\ntrack_profile: periodic\nduration: 1.0\n")
    out = tmp_path / "spans.json"
    subprocess.run(
        [sys.executable, str(BENCH / "spans.py"), str(out), "run", str(config),
         "--out-dir", str(tmp_path), "--quiet"],
        check=True, env=run.child_env(), timeout=120)
    recorded = spans.load(out)
    names = {s[spans.NAME] for s in recorded}
    by_id = {s[spans.SID]: s for s in recorded}
    parents = {(s[spans.NAME], by_id[s[spans.PARENT]][spans.NAME])
               for s in recorded if s[spans.PARENT] >= 0}
    # exp and log reach each of these modules through its own import.
    for pair in [("liegroup.exp", "uncertainty.fuse"),
                 ("liegroup.log", "uncertainty.fuse"),
                 ("liegroup.log", "control.servo_step"),
                 ("liegroup.log", "sim.observe"),
                 ("liegroup.exp", "sim.observe"),
                 ("uncertainty.fuse", "filtering.step"),
                 ("liegroup.renormalized", "sim.run_scenario"),
                 ("sim.TrajectoryLog.add", "sim.run_scenario")]:
        assert pair in parents, pair
    assert {"cli.load_config", "sim.TrajectoryLog.write_csv",
            "sim.write_metrics_json", "sim.contact_pose"} <= names
    metrics = spans.layer_metrics([recorded], 0, 0.0)
    assert metrics["filtering.step.calls"][0] == 29
    assert metrics["uncertainty.fuse.iterations"][0] == 5
    assert metrics["cli.trial_overlap"][0] == pytest.approx(1.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "track", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
