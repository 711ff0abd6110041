"""Command-line front end: config validation, runs, and file outputs.

Every test drives main(argv) in-process and points --out-dir at tmp_path,
so nothing lands in the working directory.
"""

import collections
import contextlib
import csv
import dataclasses
import io
import json
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings, strategies as st

from se3kit import cli, control, sim
from se3kit.cli import main
from se3kit.gdnmath import label_pipeline, sample_contact_pose
from se3kit.liegroup import log

from oracles import fusion_histogram_per_pair

TRACK_STATIC = """\
task: track
duration: 6
track_profile: static
trials: 1
"""


def write_config(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


# --------------------------------------------------------------------------
# validate


def test_validate_minimal_track_config(tmp_path, capsys):
    rc = main(["validate", write_config(tmp_path, "task: track\nduration: 6\n")])
    out = capsys.readouterr().out
    assert rc == 0
    assert ": ok" in out
    assert "task: track (units: mm, rad, s)" in out
    assert "(180 steps)" in out  # 6 s at the default 30 Hz
    assert "controller presets: tracking" in out
    assert "trials: 1, base seed: 0" in out
    assert "would write:" in out
    # the preset the echo names resolves to the documented gain row
    cfg = control.preset("tracking")
    assert np.array_equal(cfg.pid.kp, [5.0, 5.0, 5.0, 2.0, 2.0, 0.0])


def test_validate_push_echoes_radii(tmp_path, capsys):
    rc = main(["validate", write_config(tmp_path, "task: push_single\nduration: 30\n")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "controller presets: push_pid1, push_pid2_single" in out
    assert "alignment switch-off radius: 120 mm" in out
    assert "termination radius: 20 mm" in out


def test_validate_offline_tasks(tmp_path, capsys):
    rc = main(["validate", write_config(
        tmp_path, "task: filter_study\nsteps: 500\nsigma_grid: [1, 0.1, .inf]\n")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "steps: 500" in out
    assert "would write: filter_study.csv" in out

    rc = main(["validate", write_config(tmp_path, "task: gen_dataset\nsamples: 10\n")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "samples: 10" in out
    assert "would write: dataset.csv" in out


def test_validate_missing_task(tmp_path, capsys):
    rc = main(["validate", write_config(tmp_path, "duration: 6\n")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("se3kit: config error:")
    assert "'task'" in err


def test_unknown_key_gets_suggestion_and_line(tmp_path, capsys):
    path = write_config(tmp_path, "task: track\ndurationn: 6\n")
    rc = main(["validate", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}:2:" in err
    assert "did you mean 'duration'?" in err


def test_key_from_other_task_named_as_such(tmp_path, capsys):
    path = write_config(tmp_path, "task: track\nduration: 6\nsurface: flat\n")
    rc = main(["validate", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{path}:3:" in err
    assert "not valid for task 'track'" in err


def test_bad_value_diagnostic_states_expectation(tmp_path, capsys):
    path = write_config(tmp_path, "task: track\nduration: -1\n")
    rc = main(["validate", path])
    err = capsys.readouterr().err
    assert rc == 2
    assert "'duration' must be a positive number of seconds" in err
    assert "got -1" in err


def test_unreadable_and_malformed_files(tmp_path, capsys):
    rc = main(["validate", str(tmp_path / "missing.yaml")])
    assert rc == 2
    assert "cannot read config" in capsys.readouterr().err

    rc = main(["validate", write_config(tmp_path, "")])
    assert rc == 2
    assert "config is empty" in capsys.readouterr().err

    rc = main(["validate", write_config(tmp_path, "- 1\n- 2\n")])
    assert rc == 2
    assert "mapping" in capsys.readouterr().err

    rc = main(["validate", write_config(tmp_path, "task: [unclosed\n")])
    assert rc == 2
    assert "not valid YAML" in capsys.readouterr().err


# Values validate rejects, by the task whose config may carry the key.
REJECTED = [
    ("track", "dt", -0.1),
    ("track", "seed", -1),
    ("follow", "surface_radius", 0),
    ("follow", "surface_radius", float("inf")),
    # its square overflows inside the surface projection
    ("follow", "surface_radius", 1.0e155),
    ("push_dual", "tall", "yes"),
    ("track", "dt", 1.0e-300),
    ("track", "dt", float("inf")),
    # fewer than one control step: duration / dt rounds to 0
    ("track", "dt", 20.0),
]


@pytest.mark.parametrize("task,key,value", REJECTED)
def test_scenario_rejects_what_validate_rejects(tmp_path, capsys, task, key, value):
    config = {"task": task, "duration": 5, key: value}
    rc = main(["validate", write_config(tmp_path, yaml.safe_dump(config))])
    err = capsys.readouterr().err
    assert rc == 2
    with pytest.raises(ValueError) as raised:
        sim.Scenario(task=task, duration=5.0, **{key: value})
    assert f"'{key}' must be" in str(raised.value)
    assert str(raised.value) in err


CONFIG_DIR = Path(sim.__file__).parent / "configs"
CLOSED_LOOP_CONFIGS = [
    pytest.param(path.read_text(), id=path.stem)
    for path in sorted(CONFIG_DIR.glob("*.yaml"))
    if yaml.safe_load(path.read_text())["task"] in sim.TASKS
] + [pytest.param("task: push_single\ntall: true\nduration: 60\n",
                  id="push_single_tall")]


@pytest.mark.parametrize("text", CLOSED_LOOP_CONFIGS)
def test_validate_echoes_the_presets_run_uses(tmp_path, capsys, monkeypatch, text):
    assert main(["validate", write_config(tmp_path, text)]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("controller presets: "))
    echoed = line.split(": ", 1)[1].split(", ")

    used = []
    preset = control.preset

    def recording_preset(name):
        used.append(name)
        return preset(name)

    monkeypatch.setattr(control, "preset", recording_preset)
    # The preset choice does not depend on the length of the run.
    short = dict(yaml.safe_load(text), duration=0.2, trials=1)
    path = write_config(tmp_path, yaml.safe_dump(short), "short.yaml")
    assert main(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    assert used == echoed


# --------------------------------------------------------------------------
# run


def test_bad_config_writes_nothing(tmp_path, capsys):
    out_dir = tmp_path / "never"
    path = write_config(tmp_path, "task: track\ndurationn: 6\n")
    rc = main(["run", path, "--out-dir", str(out_dir)])
    assert rc == 2
    assert not out_dir.exists()


def test_run_track_writes_trial_files(tmp_path, capsys):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, TRACK_STATIC, "track_static.yaml")
    rc = main(["run", path, "--out-dir", str(out_dir), "--seed", "3"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "trial 0:" in out
    assert "wrote 1 trial logs" in out

    csv_path = out_dir / "track_static_trial0.csv"
    metrics_path = out_dir / "track_static_trial0_metrics.json"
    summary_path = out_dir / "track_static_summary.json"
    assert csv_path.exists() and metrics_path.exists() and summary_path.exists()

    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("t,arm,x,y,z,qw,qx,qy,qz,twist_0")
    assert header.endswith(",est_error_deg")

    metrics = json.loads(metrics_path.read_text())
    assert metrics["trial"] == 0
    assert metrics["seed"] == 3  # --seed overrides the config seed
    assert metrics["runtime_s"] == 6.0

    summary = json.loads(summary_path.read_text())
    assert summary["task"] == "track"
    assert summary["trials"] == 1
    for stats in summary["metrics"].values():
        assert set(stats) == {"mean", "std"}
    assert "track_error_mm" in summary["metrics"]


def test_run_trials_and_dt_overrides(tmp_path):
    out_dir = tmp_path / "out"
    path = write_config(tmp_path, TRACK_STATIC, "short.yaml")
    rc = main(["run", path, "--out-dir", str(out_dir), "--trials", "2",
               "--dt", "0.1", "--quiet"])
    assert rc == 0
    # 60 steps at dt=0.1, two arms logged per step, plus the header
    for i in range(2):
        lines = (out_dir / f"short_trial{i}.csv").read_text().splitlines()
        assert len(lines) == 121
    summary = json.loads((out_dir / "short_summary.json").read_text())
    assert summary["trials"] == 2
    # per-trial seeds are seed + index
    seeds = [json.loads((out_dir / f"short_trial{i}_metrics.json").read_text())["seed"]
             for i in range(2)]
    assert seeds == [0, 1]


def test_run_rejects_zero_trials(tmp_path, capsys):
    path = write_config(tmp_path, TRACK_STATIC)
    rc = main(["run", path, "--out-dir", str(tmp_path / "o"), "--trials", "0"])
    assert rc == 2
    assert "'trials' must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_run_quiet_suppresses_stdout(tmp_path, capsys):
    path = write_config(tmp_path, TRACK_STATIC)
    rc = main(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_run_dispatches_offline_task(tmp_path):
    path = write_config(tmp_path, "task: gen_dataset\nsamples: 5\n")
    rc = main(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"])
    assert rc == 0
    assert (tmp_path / "o" / "dataset.csv").exists()


def test_divergence_maps_to_exit_3(tmp_path, capsys, monkeypatch):
    from se3kit.errors import DivergenceError

    run_scenario = sim.run_scenario

    def second_trial_blows_up(scenario):
        if scenario.seed == 1:
            raise DivergenceError("pose left the workspace")
        return run_scenario(scenario)

    monkeypatch.setattr(sim, "run_scenario", second_trial_blows_up)
    path = write_config(tmp_path, TRACK_STATIC)
    out_dir = tmp_path / "o"
    rc = main(["run", path, "--out-dir", str(out_dir), "--trials", "2"])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("se3kit: diverged:")
    # Every file is written after the last trial, so the finished first
    # trial leaves nothing either; the directory was made before the trials.
    assert list(out_dir.iterdir()) == []


# (config, where the diagnostic says the run stopped, the error it names)
@pytest.mark.parametrize("text,where,cause", [
    pytest.param("task: track\nduration: 10\ndt: 0.5\n", "track step ", "NoContactError",
                 id="coarse_dt"),
    pytest.param("task: track\nduration: 1.0e+300\ndt: 1.0e+299\n", "track step ",
                 "ApproximationDomainError", id="huge_leader_step"),
    pytest.param("task: push_single\nduration: 10\ndt: 0.5\n", "push_single step 9: ",
                 "ApproximationDomainError", id="push_single_coarse_dt"),
    pytest.param("task: filter_study\nsteps: 3\nsigma_grid: [1.0e+154]\n", "filter_study: ",
                 "CovarianceError", id="filter_study_sigma_1e154"),
])
def test_lost_contact_maps_to_exit_3(tmp_path, capsys, text, where, cause):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(["run", write_config(tmp_path, text), "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith(f"se3kit: diverged: {where}")
    assert cause in err
    assert "Traceback" not in err
    # numpy's overflow noise must not precede the diagnostic on stderr
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []


# --------------------------------------------------------------------------
# offline subcommands


def test_filter_study_csv_layout_and_inf_row(tmp_path, capsys):
    rc = main(["filter-study", "--steps", "40", "--out-dir", str(tmp_path),
               "--quiet"])
    assert rc == 0
    lines = (tmp_path / "filter_study.csv").read_text().splitlines()
    assert lines[0] == "sigma_psi,v_x,v_y,v_z,omega_x,omega_y,omega_z"
    assert len(lines) == 6  # default grid: 10, 1, 0.1, 0.01, inf
    inf_rows = [ln for ln in lines[1:] if ln.startswith("inf,")]
    assert len(inf_rows) == 1

    # the inf row bypasses the filter: raw observation MAE, bit for bit
    pairs = sim.make_study_sequence(40, np.random.default_rng(0))
    raw = np.mean([np.abs(log(obs.mean) - log(true))
                   for true, obs in pairs], axis=0)
    written = np.array([float(v) for v in inf_rows[0].split(",")[1:]])
    assert np.array_equal(written, raw)


def test_gen_dataset_layout(tmp_path, capsys):
    rc = main(["gen-dataset", "--samples", "5", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 5 samples" in out
    lines = (tmp_path / "dataset.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,alpha,beta,gamma,xi_0,xi_1,xi_2,xi_3,xi_4,xi_5"
    assert len(lines) == 6
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 12
        assert all(np.isfinite(float(c)) for c in cells)


def test_gen_dataset_matches_per_sample_loop(tmp_path):
    # 250 samples: two full blocks of the stacked labelling and a partial one
    assert main(["gen-dataset", "--samples", "250", "--seed", "5",
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    rng = np.random.default_rng(5)
    expected = ["x,y,z,alpha,beta,gamma,xi_0,xi_1,xi_2,xi_3,xi_4,xi_5"]
    for _ in range(250):
        euler = sample_contact_pose(rng)
        row = list(euler) + list(label_pipeline(euler))
        expected.append(",".join(f"{v:.17g}" for v in row))
    assert (tmp_path / "dataset.csv").read_text() == "\n".join(expected) + "\n"


def test_gen_dataset_seed_semantics(tmp_path):
    for sub, seed in (("a", "7"), ("b", "7"), ("c", "8")):
        rc = main(["gen-dataset", "--samples", "20", "--seed", seed,
                   "--out-dir", str(tmp_path / sub), "--quiet"])
        assert rc == 0
    a = (tmp_path / "a" / "dataset.csv").read_bytes()
    b = (tmp_path / "b" / "dataset.csv").read_bytes()
    c = (tmp_path / "c" / "dataset.csv").read_bytes()
    assert a == b
    assert a != c


def test_fusion_bench_histogram(tmp_path, capsys):
    rc = main(["fusion-bench", "--trials", "4", "--out-dir", str(tmp_path),
               "--quiet"])
    assert rc == 0
    payload = json.loads((tmp_path / "fusion_bench.json").read_text())
    assert payload["trials"] == 4
    hist = payload["iteration_histogram"]
    assert set(hist) == {"1", "2", "3", "4", "5"}
    assert sum(hist.values()) == 4


def test_fusion_bench_stack_matches_per_pair_loop(tmp_path):
    assert main(["fusion-bench", "--trials", "40", "--seed", "4",
                 "--out-dir", str(tmp_path), "--quiet"]) == 0
    payload = json.loads((tmp_path / "fusion_bench.json").read_text())
    rng = np.random.default_rng(4)
    pairs = [cli._random_concentrated_pair(rng) for _ in range(40)]
    assert payload["iteration_histogram"] == fusion_histogram_per_pair(pairs)


# --------------------------------------------------------------------------
# flags are config keys: one schema for the file and the command line


def shipped(name):
    return str(CONFIG_DIR / name)


# (argv before --out-dir, config text or None, the start of the message:
# the located key).  A config text is written to scenario.yaml, which
# takes the place of "{cfg}" and prefixes a ":line:" location.
NOT_FOR_DATASET = "unknown key 'trials' (not valid for task 'gen_dataset')"
REJECTED_INPUTS = [
    pytest.param(["filter-study", "--steps", "0"], None, "--steps: 'steps' must be",
                 id="filter_study_steps_0"),
    pytest.param(["gen-dataset", "--seed", "-1"], None, "--seed: 'seed' must be",
                 id="gen_dataset_seed_negative"),
    pytest.param(["fusion-bench", "--trials", "0"], None, "--trials: 'trials' must be",
                 id="fusion_bench_trials_0"),
    pytest.param(["gen-dataset", "--samples", "-3"], None,
                 "--samples: 'samples' must be", id="gen_dataset_samples_negative"),
    pytest.param(["run", shipped("track_periodic.yaml"), "--trials", "0"], None,
                 "--trials: 'trials' must be", id="run_trials_0"),
    pytest.param(["run", shipped("track_periodic.yaml"), "--dt", "-1"], None,
                 "--dt: 'dt' must be", id="run_dt_negative"),
    pytest.param(["run", shipped("dataset.yaml"), "--trials", "3", "--dt", "0.1"],
                 None, f"--trials: {NOT_FOR_DATASET}",
                 id="run_offline_closed_loop_flags"),
    pytest.param(["run", shipped("filter_study.yaml"), "--seed", "-1"], None,
                 "--seed: 'seed' must be", id="run_offline_seed_negative"),
    pytest.param(["run", "{cfg}"], "task: gen_dataset\ntrials: 3\n",
                 f":2: {NOT_FOR_DATASET}", id="gen_dataset_trials_key"),
    pytest.param(["run", "{cfg}"], "task: filter_study\nsteps: 1\n",
                 ":2: 'steps' must be", id="filter_study_steps_1"),
    pytest.param(["run", "{cfg}"], "task: filter_study\nsigma_grid: [0, .inf]\n",
                 ":2: 'sigma_grid' must be", id="filter_study_sigma_0"),
    pytest.param(["run", "{cfg}"], "task: filter_study\nsteps: 3\nsigma_grid: [1.0e+300]\n",
                 ":3: 'sigma_grid' must be", id="filter_study_sigma_overflow"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: 1\n1: 2\n",
                 ":3: unknown key '1'", id="non_string_key"),
    pytest.param(["run", "{cfg}"], "task: push_single\nduration: 5\ntarget_y: .nan\n",
                 ":3: unknown key 'target_y'", id="push_target_key"),
    pytest.param(["run", "{cfg}"],
                 "task: follow\nsurface: flat\nduration: 5\nsurface_radius: 5\n",
                 ": 'surface_radius' is read only by the ramp and the hemisphere, "
                 "not by surface 'flat'", id="flat_surface_radius"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: 5\nduration: 6\n",
                 ":3: duplicate key 'duration'", id="duplicate_key"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: .inf\n",
                 ":2: 'duration' must be", id="duration_inf"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: 1" + "0" * 400 + "\n",
                 ":2: 'duration' must be", id="duration_beyond_float"),
    # settings that are constants, not keys
    *[pytest.param(["run", "{cfg}"], f"task: {task}\nduration: 5\n{key}: 1\n",
                   f":3: unknown key '{key}'", id=f"{key}_key")
      for task, key in [("track", "observation_std"), ("track", "observation_multiplier"),
                        ("track", "dynamics_sigma"), ("follow", "follow_speed"),
                        ("push_single", "object_alpha"), ("push_dual", "object_r0"),
                        ("push_single", "switch_off_radius"),
                        ("push_dual", "termination_radius")]],
    # YAML that composes but does not construct
    pytest.param(["run", "{cfg}"], "task: !!python/name:os.system\n",
                 ":1: not valid YAML (ConstructorError)", id="python_tag"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: !!binary xyz\n",
                 ":2: not valid YAML (ConstructorError)", id="bad_base64"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: 2001-13-45\n",
                 ":2: not valid YAML (ValueError: month must be in 1..12)",
                 id="bad_timestamp"),
    pytest.param(["run", "{cfg}"], "task: track\n? [a, b]\n: 3\n",
                 ":2: not valid YAML (ConstructorError)", id="unhashable_key"),
    # YAML the parser lets through as a Python error
    pytest.param(["run", "{cfg}"], 'task: track\nduration: "\\UFFFFFFFF"\n',
                 ":2: not valid YAML (OverflowError", id="escape_beyond_unicode"),
    pytest.param(["run", "{cfg}"], "task: track\nduration: " + "[" * 5000 + "]" * 5000 + "\n",
                 ":2: not valid YAML (RecursionError", id="deep_nesting"),
]


@pytest.mark.parametrize("argv,text,message", REJECTED_INPUTS)
def test_rejected_inputs_exit_2_and_create_nothing(tmp_path, capsys, argv, text,
                                                    message):
    if text is not None:
        argv = [a.replace("{cfg}", write_config(tmp_path, text)) for a in argv]
        message = str(tmp_path / "scenario.yaml") + message
    out_dir = tmp_path / "never"
    rc = main(argv + ["--out-dir", str(out_dir)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"se3kit: config error: {message}")
    assert "Traceback" not in err
    assert not out_dir.exists()


# The smallest offline inputs the routines accept, and the largest they refuse.
@pytest.mark.parametrize("text,rc", [
    pytest.param("task: filter_study\nsteps: 2\n", 0, id="steps_2"),
    pytest.param("task: filter_study\nsteps: 20\nsigma_grid: [0.01, .inf]\n", 0,
                 id="sigma_0.01"),
    pytest.param("task: filter_study\nsteps: 1\n", 2, id="steps_1"),
    pytest.param("task: filter_study\nsteps: 20\nsigma_grid: [0, .inf]\n", 2,
                 id="sigma_0"),
])
def test_offline_boundary_agrees_in_validate_and_run(tmp_path, capsys, text, rc):
    path = write_config(tmp_path, text)
    assert main(["validate", path]) == rc
    out_dir = tmp_path / "o"
    assert main(["run", path, "--out-dir", str(out_dir), "--quiet"]) == rc
    assert (out_dir / "filter_study.csv").exists() == (rc == 0)
    assert "Traceback" not in capsys.readouterr().err


# --------------------------------------------------------------------------
# shared plumbing


def test_env_var_sets_default_out_dir(tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("SE3KIT_OUT_DIR", str(target))
    rc = main(["gen-dataset", "--samples", "3", "--quiet"])
    assert rc == 0
    assert (target / "dataset.csv").exists()


def test_subcommands_never_mutate_config(tmp_path):
    path = write_config(tmp_path, TRACK_STATIC)
    before = Path(path).read_bytes()
    assert main(["validate", path]) == 0
    assert main(["run", path, "--out-dir", str(tmp_path / "o"), "--quiet"]) == 0
    assert Path(path).read_bytes() == before


# --------------------------------------------------------------------------
# the exit-code contract over configs validate accepts

SECONDS = st.floats(0.05, 1.0)
POSITIVE = st.floats(0.01, 1000.0)
# Each Scenario field but task and duration; the closed-loop configs draw
# from the keys their task reads.
FIELD_VALUES = {
    # at least 1/50 s, so a run is at most 50 steps; .inf is rejected
    "dt": st.one_of(st.floats(0.02, 2.5), st.sampled_from([1.0 / 30.0, float("inf")])),
    "seed": st.integers(0, 1000),
    "track_profile": st.sampled_from(sim.TRACK_PROFILES),
    "surface": st.sampled_from(sim.SURFACES),
    "surface_radius": POSITIVE,
    "tall": st.booleans(),
}
SCENARIO_KEYS = {f.name: f.metadata["tasks"] for f in dataclasses.fields(sim.Scenario)
                 if f.name not in ("task", "duration")}


def closed_loop_config(task):
    optional = {key: FIELD_VALUES[key] for key, tasks in SCENARIO_KEYS.items()
                if task in tasks}
    return st.fixed_dictionaries(
        {"task": st.just(task), "duration": SECONDS},
        optional=optional | {"trials": st.integers(1, 2)})


OFFLINE_CONFIGS = [
    st.fixed_dictionaries({"task": st.just("filter_study"), "steps": st.integers(2, 20)},
                          optional={"sigma_grid": st.lists(
                              st.one_of(POSITIVE, st.just(float("inf"))),
                              min_size=1, max_size=3)}),
    st.fixed_dictionaries({"task": st.just("fusion_bench"), "trials": st.integers(1, 5)}),
    st.fixed_dictionaries({"task": st.just("gen_dataset"), "samples": st.integers(1, 5)}),
]
CONFIGS = st.one_of([closed_loop_config(task) for task in sim.TASKS] + OFFLINE_CONFIGS)


def main_output(argv):
    """(exit code, stdout, stderr) of one in-process command; stderr ends
    with the warnings the command raised."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        rc = main(argv)
    for w in caught:
        err.write(warnings.formatwarning(w.message, w.category, w.filename, w.lineno))
    return rc, out.getvalue(), err.getvalue()


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(CONFIGS.map(yaml.safe_dump))
@example("task: !!python/name:os.system\n")
@example("task: track\nduration: !!binary xyz\n")
@example("task: track\nduration: 2001-13-45\n")
@example("task: track\n? [a, b]\n: 3\n")
@example("task: track\nduration: 1\ndt: .inf\n")
@example("task: track\nduration: 1\ndt: 2\n")
@example("task: follow\nsurface: hemisphere\nduration: 1\ndt: 0.5\n")
@example("task: push_single\nduration: 1\ntarget_y: .nan\n")
@example("task: follow\nsurface: ramp\nduration: 1\nsurface_radius: .inf\n")
@example("task: follow\nsurface: ramp\nduration: 0.5\nsurface_radius: 1.0e+155\n")
@example("task: follow\nsurface: hemisphere\nduration: 0.5\nsurface_radius: 1.0e+155\n")
@example("task: filter_study\nsteps: 3\nsigma_grid: [1.0e+154]\n")
def test_exit_code_contract(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.yaml"
        path.write_text(text)
        out_dir = Path(tmp) / "out"
        rc_validate, echo, err_validate = main_output(["validate", str(path)])
        rc, _, err = main_output(["run", str(path), "--out-dir", str(out_dir)])

        assert rc in (0, 2, 3)
        assert (rc == 2) == (rc_validate == 2)
        assert "Traceback" not in err_validate + err
        # fuse's concentration warning may explain a run; numpy's noise may not
        assert "RuntimeWarning" not in err_validate + err
        if rc == 2:
            assert not out_dir.exists()
        if rc != 0:
            return
        for json_path in out_dir.glob("*.json"):
            json.loads(json_path.read_text(), parse_constant=reject_constant)
        steps = re.search(r"\((\d+) steps\)", echo)
        for csv_path in out_dir.glob("*_trial*.csv"):
            with open(csv_path, newline="") as fh:
                rows_per_arm = collections.Counter(row["arm"] for row in csv.DictReader(fh))
            assert rows_per_arm and set(rows_per_arm.values()) == {int(steps[1])}
