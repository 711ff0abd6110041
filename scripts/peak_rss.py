"""Peak resident memory of every command a checkout's shipped configs run.

Runs each `src/se3kit/configs/*.yaml` with `se3kit run <config> --seed 3`
at its full trial count, plus `se3kit fusion-bench --trials 200 --seed 3`,
the commands `scripts/hash_outputs.py` hashes (its `commands`), one at a
time into a temporary directory.  Each command runs under a small wrapper
process that starts the CLI, waits for it and reports its own
`RUSAGE_CHILDREN` peak: the CLI's peak alone, since the wrapper is smaller
than the CLI and no copy of a larger parent (a benchmark harness, say) is
counted in it.
Prints one `peak_mb  command` line per command (MB = 2^20 bytes), in run
order.  Comparing two checkouts is one diff:

    python3 scripts/peak_rss.py /path/to/parent-checkout > before.txt
    python3 scripts/peak_rss.py > after.txt
    diff before.txt after.txt

The checkout to measure defaults to the one holding this script; its
package is imported from its own `src/`.  The CLI runs with one OpenBLAS
thread, as `perfbench/run.py` runs it.  Uses the standard library only.
"""

import os
import subprocess
import sys
import tempfile
from pathlib import Path

from hash_outputs import SEED, checkout_root, commands

# Started as `python -c WRAPPER <se3kit arguments>`: runs the CLI as its
# only child and prints that child's peak RSS in KiB (Linux ru_maxrss).
WRAPPER = """
import resource, subprocess, sys
code = subprocess.call([sys.executable, "-m", "se3kit.cli", *sys.argv[1:]])
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
sys.exit(code)
"""


def _peak_mb(checkout: Path, pycache: str, *args: str) -> float:
    """Run the checkout's CLI from its root under the wrapper; its peak RSS."""
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONPYCACHEPREFIX=pycache,
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    cmd = [sys.executable, "-c", WRAPPER, *args]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"se3kit {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return int(done.stdout.split()[-1]) / 1024.0


def main(argv: list) -> int:
    checkout = checkout_root(argv)
    runs = commands(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        pycache = str(Path(tmp) / "pycache")
        # compile once, so that no reading includes compiling the package
        _peak_mb(checkout, pycache, "validate", runs[0][1])
        for command in runs:
            peak = _peak_mb(checkout, pycache, *command, "--seed", SEED, "--out-dir", tmp,
                            "--quiet")
            print(f"{peak:.2f}  {' '.join(command)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
