"""Hash every output a checkout's shipped configs write, to check a refactor.

Runs each `src/se3kit/configs/*.yaml` with `se3kit run <config> --seed 3`
at its full trial count, plus `se3kit fusion-bench --trials 200 --seed 3`,
into a temporary directory.  Each config's `se3kit validate <config>`
stdout is kept there too, as `<stem>_validate.txt`; every command runs
from the checkout's root with the config's relative path, so the
`<path>: ok` line reads the same in any checkout.  Two configs that
diverge, a `push_dual` run at `dt: 0.5` and a `track` run at
`dt: 1.0e+299`, each with several trials, run from a second temporary
directory; each run's exit code and stderr are kept as
`<name>_diverged.txt`.  Prints one `sha256  filename` line per file,
sorted by name.  Comparing two checkouts is one diff:

    python3 scripts/hash_outputs.py /path/to/parent-checkout > before.txt
    python3 scripts/hash_outputs.py > after.txt
    diff before.txt after.txt

The checkout to hash defaults to the one holding this script; its
package is imported from its own `src/`.  `scripts/peak_rss.py` and
`scripts/output_drift.py` run the same commands (`commands`,
`write_outputs`).  Uses the standard library only.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "3"
FUSION_BENCH_TRIALS = "200"

# name -> a config whose run diverges (exit 3)
DIVERGING = {
    "push_dual": "task: push_dual\nduration: 10\ndt: 0.5\ntrials: 3\n",
    "track": "task: track\nduration: 1.0e+300\ndt: 1.0e+299\ntrials: 2\n",
}


def checkout_root(argv: list) -> Path:
    """The checkout named on the command line, else the one holding this script."""
    return Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()


def commands(checkout: Path) -> list:
    """The se3kit arguments of every command, before --seed/--out-dir/--quiet:
    `run` of each shipped config by its path relative to the checkout's
    root, then `fusion-bench`."""
    configs = sorted((checkout / "src" / "se3kit" / "configs").glob("*.yaml"))
    if not configs:
        sys.exit(f"no configs under {checkout}/src/se3kit/configs")
    return ([("run", str(config.relative_to(checkout))) for config in configs]
            + [("fusion-bench", "--trials", FUSION_BENCH_TRIALS)])


def _run(checkout: Path, *args: str) -> subprocess.CompletedProcess:
    """Run the checkout's CLI from its root."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "se3kit.cli", *args]
    return subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)


def _se3kit(checkout: Path, *args: str) -> str:
    """Run the checkout's CLI from its root; returns stdout."""
    done = _run(checkout, *args)
    if done.returncode != 0:
        sys.exit(f"{' '.join(done.args)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def write_outputs(checkout: Path, out_dir: Path) -> None:
    """Run every command into out_dir, with each config's validate echo,
    and each diverging config's exit code and stderr."""
    for command in commands(checkout):
        _se3kit(checkout, *command, "--seed", SEED, "--out-dir", str(out_dir), "--quiet")
        if command[0] == "run":
            (out_dir / f"{Path(command[1]).stem}_validate.txt").write_text(
                _se3kit(checkout, "validate", command[1]))
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in DIVERGING.items():
            config = Path(tmp) / f"{name}.yaml"
            config.write_text(text)
            done = _run(checkout, "run", str(config), "--seed", SEED, "--out-dir", tmp,
                        "--quiet")
            (out_dir / f"{name}_diverged.txt").write_text(
                f"exit {done.returncode}\n{done.stderr}")


def main(argv: list) -> int:
    checkout = checkout_root(argv)
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        write_outputs(checkout, out_dir)
        for path in sorted(out_dir.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
