"""End-to-end acceptance runs, one test per criterion the toolkit ships with.

Each test prints a PASS/FAIL line with its headline numbers before
asserting, so the captured output of this module reads as an acceptance
report.  One criterion states a bound this implementation measurably does
not reach: the moving-leader tracking error in criterion 7a.  That test
fails honestly, and its message carries the measured values and the error
budget behind them (estimate error, spin-axis share, spin gain).
Everything here re-derives its expected values from oracles or hand
computation, never from the library path under test.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

import se3kit
from se3kit import cli, control, filtering, sim
from se3kit.control import PidState, pid_step, preset, servo_step
from se3kit.gdnmath import (HeteroPrediction, SoftboundParams, mean_nll,
                            softbound, softplus_stable, weighted_mse)
from se3kit.liegroup import adjoint, bch_compose, exp, log
from se3kit.uncertainty import (PoseGaussian, _fuse_iterates, fuse, gaussian_product,
                                to_global_tangent)

from conftest import oracle_fusion_pairs, random_pose
from oracles import mean_discrepancy, product_mode_oracle

CONFIG_DIR = Path(se3kit.__file__).parent / "configs"

# Wall-clock seconds spent inside the four task-simulation tests; the last
# of them checks the shared five-minute budget.
_SCENARIO_WALL = []


def _report(name: str, ok: bool, detail: str):
    print(f"{name}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{name}: {detail}"


def _spd(rng, lo, hi):
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    return q @ np.diag(rng.uniform(lo, hi, 6)) @ q.T


# --------------------------------------------------------------------------
# 1. Lie-group suite


def test_criterion_1_lie_group_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)

    n = 10_000
    rhos = rng.uniform(-10.0, 10.0, (n, 3))
    axes = rng.standard_normal((n, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    angles = rng.uniform(0.0, 3.0, n)
    worst_rt = 0.0
    for i in range(n):
        xi = np.concatenate([rhos[i], angles[i] * axes[i]])
        err = float(np.linalg.norm(log(exp(xi)) - xi))
        if err > worst_rt:
            worst_rt = err

    worst_ad = 0.0
    for _ in range(1000):
        a = random_pose(rng)
        b = random_pose(rng)
        err = float(np.max(np.abs(adjoint(a @ b) - adjoint(a) @ adjoint(b))))
        if err > worst_ad:
            worst_ad = err

    # Dropped terms in the one-sided expansion are O(eps^2): the log-log
    # fit of error against the flagged argument's norm must slope >= 1.8.
    eps_grid = (1e-1, 1e-2, 1e-3, 1e-4)
    mean_errs = []
    for eps in eps_grid:
        errs = []
        for _ in range(40):
            xi1 = np.concatenate([rng.uniform(-1, 1, 3), rng.uniform(-0.4, 0.4, 3)])
            unit = rng.standard_normal(6)
            unit /= np.linalg.norm(unit)
            xi2 = eps * unit
            approx = bch_compose(xi1, xi2, small="second")
            exact = log(exp(xi1) @ exp(xi2))
            errs.append(np.linalg.norm(approx - exact))
        mean_errs.append(np.mean(errs))
    slope = float(np.polyfit(np.log(eps_grid), np.log(mean_errs), 1)[0])

    wall = time.perf_counter() - t0
    ok = worst_rt < 1e-9 and worst_ad < 1e-9 and slope >= 1.8 and wall < 10.0
    _report(
        "criterion 1 (Lie-group suite)", ok,
        f"10^4 roundtrips worst {worst_rt:.2e}, adjoint homomorphism worst "
        f"{worst_ad:.2e}, BCH slope {slope:.2f}, wall {wall:.1f}s")


# --------------------------------------------------------------------------
# 2. Fusion vs derivative-free oracle


def test_criterion_2_fusion_vs_oracle():
    t0 = time.perf_counter()
    pairs = oracle_fusion_pairs()

    discrepancies = [mean_discrepancy(fuse(a, b).mean, product_mode_oracle(a, b))
                     for a, b in pairs]

    # The fifth pass's correction, of a fuse that runs all five: with a zero
    # tolerance no pass stops it early.  X5 = exp(mu5) X4, so |mu5| is
    # exactly the tangent distance between the 4- and 5-pass means.
    def fifth_correction(a, b):
        (mean_4, _, _), (mean_5, _, _) = list(_fuse_iterates(a, b, tol=0.0))[3:]
        return mean_discrepancy(mean_5, mean_4)

    converged = sum(fifth_correction(a, b) < 1e-10 for a, b in pairs)

    mean_disc = float(np.mean(discrepancies))
    wall = time.perf_counter() - t0
    ok = mean_disc < 1e-3 and converged >= 95 and wall < 30.0
    _report(
        "criterion 2 (fusion vs product-mode oracle)", ok,
        f"mean discrepancy {mean_disc:.2e} (max {np.max(discrepancies):.2e}), "
        f"|mu_5| < 1e-10 on {converged}/100, wall {wall:.1f}s")


# --------------------------------------------------------------------------
# 3. Euclidean limit


def test_criterion_3_euclidean_limit():
    rng = np.random.default_rng(42)
    base = [(0.5 * rng.standard_normal(6), 0.5 * rng.standard_normal(6),
             _spd(rng, 0.2, 1.0), _spd(rng, 0.2, 1.0)) for _ in range(20)]

    scales = (1e-2, 1e-3, 1e-4)
    mean_disc = []
    for s in scales:
        r = math.sqrt(s)  # offsets shrink with the covariance's std scale
        ds = []
        for u, v, sa, sb in base:
            a = PoseGaussian(exp(r * u), s * sa)
            b = PoseGaussian(exp(r * v), s * sb)
            fused = fuse(a, b)
            prod = gaussian_product(to_global_tangent(a), to_global_tangent(b))
            ds.append(np.linalg.norm(log(fused.mean) - prod.mean))
        mean_disc.append(float(np.mean(ds)))

    slope = float(np.polyfit(np.log(scales), np.log(mean_disc), 1)[0])
    ok = slope >= 0.9
    _report(
        "criterion 3 (Euclidean limit)", ok,
        "fusion-vs-Gaussian-product discrepancy "
        + ", ".join(f"{d:.1e}@s={s:g}" for d, s in zip(mean_disc, scales))
        + f"; log-log slope {slope:.2f}")


# --------------------------------------------------------------------------
# 4. Filter study


def test_criterion_4_filter_study():
    t0 = time.perf_counter()
    pairs = sim.make_study_sequence(2000, np.random.default_rng(0))
    grid = (10.0, 1.0, 0.1, 0.01, math.inf)
    table = filtering.filter_study(pairs, grid, seed=0)

    finite = np.array([table[s] for s in grid[:-1]])
    raw = table[math.inf]
    monotone = bool(np.all(np.diff(finite, axis=0) < 0))
    ratios = finite[-1] / raw
    wall = time.perf_counter() - t0

    names = ("v_x", "v_y", "v_z", "omega_x", "omega_y", "omega_z")
    ratio_text = ", ".join(f"{n}={r:.3f}" for n, r in zip(names, ratios))
    ok = monotone and bool(np.all(ratios < 0.25)) and wall < 60.0
    _report(
        "criterion 4 (filter study)", ok,
        f"monotone={monotone}, sigma=0.01 filtered/raw ratios [{ratio_text}] "
        f"(bound 0.25 per component), wall {wall:.1f}s")


# --------------------------------------------------------------------------
# 5. Controller unit suite


def test_criterion_5_controller_suite():
    t0 = time.perf_counter()
    dt = 1.0 / 30.0

    # Zero error passes the feedforward through bit for bit.
    cfg = preset("tracking")
    ff = np.array([0.3, -1.2, 4.0, 0.01, -0.02, 0.05])
    out, _ = pid_step(cfg.pid, PidState.initial(6), ff, np.zeros(6), dt)
    passthrough = bool(np.array_equal(out, ff))
    twist_cmd, _, _ = servo_step(cfg, PidState.initial(6),
                                 cfg.reference_contact_pose, dt)
    servo_zero = bool(np.allclose(twist_cmd, cfg.feedforward_twist,
                                  atol=1e-12))

    # Proportional linearity before clipping.
    lin_pid = control.PidConfig(kp=np.full(6, 1.7), ki=np.zeros(6),
                                kd=np.zeros(6))
    e = np.array([0.4, -0.2, 1.0, 0.05, -0.1, 0.3])
    one, _ = pid_step(lin_pid, PidState.initial(6), np.zeros(6), e, dt)
    scaled, _ = pid_step(lin_pid, PidState.initial(6), np.zeros(6), 3.7 * e, dt)
    linear = bool(np.allclose(scaled, 3.7 * one, rtol=1e-12))

    # Anti-windup: the integral never leaves its clip interval.
    aw_pid = control.PidConfig(kp=np.zeros(6), ki=np.full(6, 0.5),
                               kd=np.zeros(6), integral_clip=(-2.0, 2.0))
    state = PidState.initial(6)
    rng = np.random.default_rng(5)
    contained = True
    for _ in range(200):
        _, state = pid_step(aw_pid, state, np.zeros(6),
                            rng.uniform(-50, 50, 6), dt)
        if np.any(np.abs(state.integral) > 2.0):
            contained = False
            break

    # Preset gain substitution against hand-computed first-step outputs:
    # u = Kp e + Ki e dt (integral seeded at e dt, derivative zero).
    e1 = np.ones(6)
    got, _ = pid_step(preset("tracking").pid, PidState.initial(6),
                      np.zeros(6), e1, dt)
    want = (np.array([5, 5, 5, 2, 2, 0]) * e1
            + np.array([0.5, 0.5, 0.5, 0.2, 0.2, 0.2]) * e1 * dt)
    presets_ok = bool(np.allclose(got, want, rtol=1e-12))
    scalar = preset("push_pid2_single")
    got_s, _ = pid_step(scalar, PidState.initial(1), np.zeros(1),
                        np.array([2.0]), 0.5)
    presets_ok = presets_ok and got_s[0] == pytest.approx(
        0.9 * 2.0 + 0.3 * (2.0 * 0.5), rel=1e-12)

    wall = time.perf_counter() - t0
    ok = (passthrough and servo_zero and linear and contained and presets_ok
          and wall < 5.0)
    _report(
        "criterion 5 (controller suite)", ok,
        f"ff passthrough={passthrough}, servo zero-error={servo_zero}, "
        f"linearity={linear}, anti-windup={contained}, "
        f"preset steps={presets_ok}, wall {wall:.2f}s")


# --------------------------------------------------------------------------
# 6. Bearing partials and the steering sign flip


def test_criterion_6_bearing_partials_and_sign_flip():
    rng = np.random.default_rng(6)
    worst_rel = 0.0
    for _ in range(50):
        y, z = rng.uniform(-300, 300, 2)
        if math.hypot(y, z) < 1.0:
            continue
        obj = sim.PushedObject(y=y, z=z, phi=rng.uniform(-1, 1))
        d_dy, d_dz, d_dphi, flip = sim.bearing_sensitivity(obj)
        h = 1e-5 * max(1.0, math.hypot(y, z))
        fd_y = (sim.PushedObject(y + h, z, obj.phi).bearing
                - sim.PushedObject(y - h, z, obj.phi).bearing) / (2 * h)
        fd_z = (sim.PushedObject(y, z + h, obj.phi).bearing
                - sim.PushedObject(y, z - h, obj.phi).bearing) / (2 * h)
        worst_rel = max(worst_rel,
                        abs(fd_y - d_dy) / max(abs(d_dy), 1e-12),
                        abs(fd_z - d_dz) / max(abs(d_dz), 1e-12))
        assert d_dphi == -1.0
        assert flip == sim._OBJECT_R0 / sim._OBJECT_ALPHA

    # Rollouts: tangential pushing steers the bearing one way inside the
    # flip radius and the opposite way outside it.
    def net_bearing(r):
        obj = sim.PushedObject(y=0.0, z=r)
        start = obj.bearing
        for _ in range(5):
            obj = sim.push_object_step(obj, (0.5, 0.0))
        return obj.bearing - start

    flip_r = sim._OBJECT_R0 / sim._OBJECT_ALPHA
    inside = net_bearing(0.7 * flip_r)
    outside = net_bearing(1.3 * flip_r)
    sign_flips = inside > 0 > outside

    ok = worst_rel < 1e-6 and sign_flips
    _report(
        "criterion 6 (bearing partials, sign flip)", ok,
        f"worst FD relative error {worst_rel:.2e}; rollout net bearing "
        f"{inside:+.4f} rad inside vs {outside:+.4f} rad outside the "
        f"{flip_r:.2f} mm flip radius")


# --------------------------------------------------------------------------
# 7. Task simulations, five seeded trials each


def _run_trials(config_name: str, trials: int = 5):
    config = cli.load_config(CONFIG_DIR / config_name)
    t0 = time.perf_counter()
    # in lockstep, as the CLI runs a config's trials
    out = [metrics for _, metrics in sim.run_scenarios(
        [cli._build_scenario(config, seed=i) for i in range(trials)])]
    _SCENARIO_WALL.append(time.perf_counter() - t0)
    return out


def _stats(metrics, key):
    vals = np.array([m[key] for m in metrics], dtype=float)
    return float(vals.mean()), float(vals.std()), vals


def test_criterion_7_track(monkeypatch):
    # Record the servo's error signal, log(X_sf X_s'f^-1) of the filtered
    # contact, so the report can split the rotational error by axis.
    servo_errors = []
    servo_step_ = control.servo_step

    def recording_servo_step(cfg, pid, observed_contact, dt):
        out = servo_step_(cfg, pid, observed_contact, dt)
        servo_errors.append(log(out[2]))
        return out

    monkeypatch.setattr(control, "servo_step", recording_servo_step)
    metrics = _run_trials("track_periodic.yaml")

    mm_mean, mm_std, mm = _stats(metrics, "track_error_mm")
    deg_mean, deg_std, deg = _stats(metrics, "track_error_deg")
    est_mm, _, _ = _stats(metrics, "est_error_mm")
    est_deg, _, _ = _stats(metrics, "est_error_deg")
    # The trials run in lockstep, so the calls come step-major: reshape
    # them trial-major.  Steady state is the second half of each trial, as
    # in the metrics.
    rot = np.array(servo_errors).reshape(-1, len(metrics), 6).swapaxes(0, 1)[:, :, 3:]
    rot = np.degrees(rot[:, rot.shape[1] // 2:].reshape(-1, 3))
    axis_deg = np.mean(np.abs(rot), axis=0)
    spin_share = float(np.sum(rot[:, 2] ** 2) / np.sum(rot ** 2))
    spin_kp = float(preset("tracking").pid.kp[5])
    est_side = "above" if est_deg >= 0.5 else "below"

    ok = bool(np.all(mm < 1.0) and np.all(deg < 0.5))
    _report(
        "criterion 7a (track, periodic leader)", ok,
        f"steady-state pose error {mm_mean:.2f} +/- {mm_std:.2f} mm, "
        f"{deg_mean:.2f} +/- {deg_std:.2f} deg over 5 seeds (bounds 1 mm / "
        f"0.5 deg). The estimate alone is {est_mm:.2f} mm / {est_deg:.2f} deg "
        f"off, {est_side} the 0.5 deg bound on its own, and the servo cannot "
        "correct an error it does not observe. The "
        f"servo's steady-state error signal averages {axis_deg[2]:.2f} deg "
        f"about the spin axis against {axis_deg[0]:.2f} / {axis_deg[1]:.2f} "
        f"deg about the tilt axes ({100 * spin_share:.0f}% of the squared "
        f"rotational error), and the tracking preset pins spin kp = "
        f"{spin_kp:g} (criterion 5), so spin is corrected by the integral "
        "and derivative terms alone")


def test_criterion_7_follow():
    lines = []
    ok = True
    for name in ("follow_ramp.yaml", "follow_hemisphere.yaml"):
        metrics = _run_trials(name)
        d_mean, d_std, depth = _stats(metrics, "mean_depth_error_mm")
        a_mean, a_std, angle = _stats(metrics, "mean_normal_angle_deg")
        ok = ok and bool(np.all(depth < 0.5) and np.all(angle < 1.0))
        surface = name.split("_")[1].split(".")[0]
        lines.append(f"{surface}: depth {d_mean:.3f} +/- {d_std:.3f} mm, "
                     f"normal {a_mean:.2f} +/- {a_std:.2f} deg")
    _report("criterion 7b (surface following)", ok,
            "; ".join(lines) + " (bounds 0.5 mm / 1 deg)")


def test_criterion_7_push_single():
    metrics = _run_trials("push_single.yaml")
    terminated = all(m["terminated"] for m in metrics)
    e_mean, e_std, err = _stats(metrics, "final_target_error_mm")
    ok = terminated and bool(np.all(err < 10.0))
    _report(
        "criterion 7c (single-arm pushing)", ok,
        f"terminated on all 5 seeds: {terminated}; final target error "
        f"{e_mean:.2f} +/- {e_std:.2f} mm (bound 10 mm)")


def test_criterion_7_push_dual():
    metrics = _run_trials("push_dual.yaml")
    terminated = all(m["terminated"] for m in metrics)
    w_mean, w_std, worst = _stats(metrics, "follower_depth_worst_mm")
    ok = terminated and bool(np.all(worst <= 1.5))
    total = sum(_SCENARIO_WALL)
    ok = ok and total < 300.0
    _report(
        "criterion 7d (dual-arm pushing)", ok,
        f"terminated on all 5 seeds: {terminated}; worst follower depth "
        f"deviation {w_mean:.2f} +/- {w_std:.2f} mm (bound 1.5 mm); "
        f"scenario-suite wall total {total:.0f}s of the 300s budget")


# --------------------------------------------------------------------------
# 8. Numerical-stability suite


def test_criterion_8_numerical_stability():
    extremes = [-1e308, -1e-308, 0.0, 1e-308, 1e308]
    sp = [softplus_stable(x) for x in extremes]
    sp_ok = all(map(math.isfinite, sp)) and all(
        a <= b for a, b in zip(sp, sp[1:]))

    params = SoftboundParams(-5.0, 10.0)
    sb = [softbound(x, params) for x in extremes]
    sb_ok = (all(map(math.isfinite, sb))
             and all(a <= b for a, b in zip(sb, sb[1:]))
             and all(-5.0 < v < 10.0 for v in sb))

    big = weighted_mse(np.full((2, 6), 1e100), np.full((2, 6), -1e100))
    nll_big = mean_nll(
        np.full(6, 1e3),
        HeteroPrediction(mu=np.zeros(6), inv_sigma=np.full(6, 1e6)))
    nll_small = mean_nll(
        np.full(6, 1e3),
        HeteroPrediction(mu=np.zeros(6), inv_sigma=np.full(6, 1e-6)))
    loss_ok = all(map(math.isfinite, (big, nll_big, nll_small)))

    # Stationarity: per component, inv_sigma = 1/|e| minimises the NLL.
    errs = np.array([0.5, 0.25, 2.0, 1.0, 0.1, 4.0])
    labels = np.zeros(6)
    s_star = 1.0 / errs
    worst_fd = 0.0
    bracketed = True
    for j in range(6):
        h = 1e-4 * s_star[j]

        def nll_at(sj):
            s = s_star.copy()
            s[j] = sj
            return mean_nll(labels, HeteroPrediction(mu=errs, inv_sigma=s))

        up, mid, dn = (nll_at(s_star[j] + h), nll_at(s_star[j]),
                       nll_at(s_star[j] - h))
        bracketed = bracketed and up > mid < dn
        worst_fd = max(worst_fd, abs(up - dn) / (2 * h))

    ok = sp_ok and sb_ok and loss_ok and bracketed and worst_fd < 1e-4
    _report(
        "criterion 8 (numerical stability)", ok,
        f"softplus extremes finite+monotone={sp_ok}, softbound={sb_ok}, "
        f"losses finite on extreme inputs={loss_ok}, NLL stationarity worst "
        f"FD {worst_fd:.1e}")


# --------------------------------------------------------------------------
# 9. Determinism


def test_criterion_9_determinism(tmp_path):
    scn = sim.Scenario(task="track", duration=6.0, track_profile="static")
    outputs = []
    for run in range(2):
        traj, metrics = sim.run_scenario(scn)
        csv_path = tmp_path / f"direct_{run}.csv"
        json_path = tmp_path / f"direct_{run}.json"
        traj.write_csv(csv_path)
        sim.write_metrics_json(metrics, json_path)
        outputs.append((csv_path.read_bytes(), json_path.read_bytes()))
    direct_ok = outputs[0] == outputs[1]

    cfg = tmp_path / "scenario.yaml"
    cfg.write_text("task: track\nduration: 6\ntrack_profile: static\n"
                   "trials: 2\nseed: 9\n")
    cli_files = []
    for run in range(2):
        out_dir = tmp_path / f"cli_{run}"
        rc = cli.main(["run", str(cfg), "--out-dir", str(out_dir), "--quiet"])
        assert rc == 0
        cli_files.append({p.name: p.read_bytes()
                          for p in sorted(out_dir.iterdir())})
    cli_ok = (cli_files[0] == cli_files[1] and len(cli_files[0]) == 5)

    ok = direct_ok and cli_ok
    _report(
        "criterion 9 (determinism)", ok,
        f"direct rerun CSV+JSON byte-identical: {direct_ok}; CLI rerun "
        f"({len(cli_files[0])} files, 2 trials) byte-identical: {cli_ok}")
