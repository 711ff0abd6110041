"""How far two checkouts' outputs drift apart, file by file.

Runs the commands `scripts/hash_outputs.py` hashes (every shipped config
with `--seed 3` at its full trial count, `fusion-bench --trials 200
--seed 3`, each config's `validate` echo, and the exit code and stderr of
two diverging configs) once for each checkout, each into its own
temporary directory, and prints one line per file, sorted by name:

    <filename>  identical
    <filename>  <largest relative difference>  line <n>: <before> -> <after>

A file whose bytes differ is split into numbers and the text between
them.  The relative difference of two numbers is |a - b| / max(|a|, |b|);
the line shows the numbers with the largest one.  A cell near zero can
read a large relative difference from a tiny absolute one, so a CSV line
ends with `column-scaled <x>` too: the largest |a - b| over the largest
magnitude in the same column, in either file.  A file whose text between
the numbers differs, or that only one checkout wrote, is reported as such
instead.

    python3 scripts/output_drift.py /path/to/parent-checkout [checkout]

The second checkout defaults to the one holding this script.  Uses the
standard library only.
"""

import math
import re
import sys
import tempfile
from pathlib import Path

from hash_outputs import checkout_root, write_outputs

# A number as the CLI writes one ("%.17g", "inf", "nan"); a digit inside a
# name, such as xi_0 or trial1, also matches, and matches itself.
_NUMBER = re.compile(r"[-+]?(?:inf|nan|(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def _relative(a: str, b: str, scale: float) -> float:
    """|a - b| / scale; 0 for equal values, nan and inf included, and inf
    where only one of them is finite."""
    x, y = float(a), float(b)
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / scale


def drift(name: str, before: bytes, after: bytes) -> str:
    """'identical', or the largest relative difference between the numbers
    of two files with the same text between their numbers."""
    if before == after:
        return "identical"
    old, new = before.decode(), after.decode()
    if _NUMBER.split(old) != _NUMBER.split(new):
        return "differs outside its numbers"
    # (line, column, a, b) for every number; a CSV line holds one per column
    cells = [(line, column, a, b)
             for line, (old_line, new_line) in enumerate(zip(old.splitlines(),
                                                             new.splitlines()), 1)
             for column, (a, b) in enumerate(zip(_NUMBER.findall(old_line),
                                                 _NUMBER.findall(new_line)))]
    worst, where = max((_relative(a, b, max(abs(float(a)), abs(float(b)))),
                        f"line {line}: {a} -> {b}") for line, _, a, b in cells)
    report = f"{worst:.2e}  {where}"
    if name.endswith(".csv"):
        scale = {}
        for _, column, a, b in cells:
            scale[column] = max(scale.get(column, 0.0), abs(float(a)), abs(float(b)))
        report += "  column-scaled {:.2e}".format(
            max(_relative(a, b, scale[column]) for _, column, a, b in cells))
    return report


def main(argv: list) -> int:
    if not argv:
        sys.exit(__doc__)
    before, after = checkout_root(argv[:1]), checkout_root(argv[1:])
    with tempfile.TemporaryDirectory() as tmp:
        dirs = (Path(tmp) / "before", Path(tmp) / "after")
        for checkout, out_dir in zip((before, after), dirs):
            out_dir.mkdir()
            write_outputs(checkout, out_dir)
        for name in sorted({p.name for d in dirs for p in d.iterdir()}):
            paths = [d / name for d in dirs]
            if not all(p.exists() for p in paths):
                print(f"{name}  only {'before' if paths[0].exists() else 'after'}")
            else:
                print(f"{name}  {drift(name, *(p.read_bytes() for p in paths))}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
