"""Hash every output a checkout's shipped configs write, to check a refactor.

Runs each `src/se3kit/configs/*.yaml` with `se3kit run <config> --seed 3`
at its full trial count, plus `se3kit fusion-bench --trials 200 --seed 3`,
into a temporary directory.  Each config's `se3kit validate <config>`
stdout is kept there too, as `<stem>_validate.txt`; every command runs
from the checkout's root with the config's relative path, so the
`<path>: ok` line reads the same in any checkout.  Prints one
`sha256  filename` line per file, sorted by name.  Comparing two
checkouts is one diff:

    python3 scripts/hash_outputs.py /path/to/parent-checkout > before.txt
    python3 scripts/hash_outputs.py > after.txt
    diff before.txt after.txt

The checkout to hash defaults to the one holding this script; its
package is imported from its own `src/`.  Uses the standard library only.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEED = "3"
FUSION_BENCH_TRIALS = "200"


def _se3kit(checkout: Path, *args: str) -> str:
    """Run the checkout's CLI from its root; returns stdout."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    cmd = [sys.executable, "-m", "se3kit.cli", *args]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr}")
    return done.stdout


def main(argv: list) -> int:
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parents[1]).resolve()
    configs = sorted((checkout / "src" / "se3kit" / "configs").glob("*.yaml"))
    if not configs:
        sys.exit(f"no configs under {checkout}/src/se3kit/configs")
    with tempfile.TemporaryDirectory() as tmp:
        out_dir = Path(tmp)
        common = ("--seed", SEED, "--out-dir", str(out_dir), "--quiet")
        for config in configs:
            rel = str(config.relative_to(checkout))
            _se3kit(checkout, "run", rel, *common)
            (out_dir / f"{config.stem}_validate.txt").write_text(
                _se3kit(checkout, "validate", rel))
        _se3kit(checkout, "fusion-bench", "--trials", FUSION_BENCH_TRIALS, *common)
        for path in sorted(out_dir.iterdir()):
            print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
