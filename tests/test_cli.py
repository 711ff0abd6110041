"""Command-line front end: config validation, runs, and file outputs.

Every test drives main(argv) in-process and points --out-dir at tmp_path,
so nothing lands in the working directory.
"""

import json
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from se3kit import cli, control, sim
from se3kit.cli import main
from se3kit.liegroup import log

from oracles import fusion_histogram_per_pair

TRACK_STATIC = """\
task: track
duration: 6
track_profile: static
trials: 1
observation_std: [0.1, 0.1, 0.1, 0.001, 0.001, 0.001]
"""

PUSH_MINIMAL = """\
task: push_single
duration: 30
switch_off_radius: 120
termination_radius: 20
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
    rc = main(["validate", write_config(tmp_path, PUSH_MINIMAL)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "controller presets: push_pid1, push_pid2_single" in out
    assert "alignment switch-off radius: 120 mm" in out
    assert "termination radius: 20 mm" in out


def test_validate_radius_override_applied(tmp_path, capsys):
    text = PUSH_MINIMAL.replace("switch_off_radius: 120", "switch_off_radius: 90")
    rc = main(["validate", write_config(tmp_path, text)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "switch-off radius: 90 mm" in out


def test_validate_radius_ordering_rejected(tmp_path, capsys):
    text = PUSH_MINIMAL.replace("termination_radius: 20", "termination_radius: 150")
    rc = main(["validate", write_config(tmp_path, text)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("se3kit: config error:")
    assert "switch_off_radius" in err


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
    ("track", "observation_multiplier", 0),
    ("push_single", "object_alpha", 1.5),
    ("track", "dt", -0.1),
    ("track", "observation_std", [1, 1, 1]),
    ("track", "seed", -1),
    ("follow", "surface_radius", 0),
    ("push_dual", "tall", "yes"),
    ("track", "dt", 1.0e-300),
    ("track", "dynamics_sigma", 1.0e+300),
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

    def blow_up(scenario, rng):
        raise DivergenceError("pose left the workspace")

    monkeypatch.setattr(sim, "run_scenario", blow_up)
    path = write_config(tmp_path, TRACK_STATIC)
    rc = main(["run", path, "--out-dir", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 3
    assert err.startswith("se3kit: diverged:")


# (config, where the diagnostic says the run stopped, the error it names)
@pytest.mark.parametrize("text,where,cause", [
    pytest.param("task: track\nduration: 10\ndt: 0.5\n", "track step ", "NoContactError",
                 id="coarse_dt"),
    pytest.param("task: track\nduration: 5\nobservation_std: [5, 5, 5, 1, 1, 1]\n",
                 "track step ", "NoContactError", id="noisy_observations"),
    pytest.param("task: track\nduration: 1.0e+300\ndt: 1.0e+299\n", "track step ",
                 "ApproximationDomainError", id="huge_leader_step"),
    pytest.param("task: push_dual\nduration: 5\nobject_r0: 1.0e-300\n", "push_dual step ",
                 "ApproximationDomainError", id="tiny_object_r0"),
    pytest.param("task: track\nduration: 0.5\ndynamics_sigma: 1.0e+154\n", "track step ",
                 "CovarianceError", id="track_sigma_1e154"),
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
