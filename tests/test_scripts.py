"""The drift report of scripts/output_drift.py, which compares two
checkouts' outputs file by file."""

import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.fixture(scope="module")
def drift():
    """output_drift.drift, imported by path; the script imports
    hash_outputs from its own directory."""
    sys.path.insert(0, str(SCRIPTS))
    try:
        spec = importlib.util.spec_from_file_location("output_drift", SCRIPTS / "output_drift.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(SCRIPTS))
        sys.modules.pop("hash_outputs", None)
    return module.drift


def test_identical_bytes_read_identical(drift):
    text = b"t,x\n0,1.5\n0.033333333333333333,nan\n"
    assert drift("run.csv", text, text) == "identical"


def test_round_off_reports_its_relative_difference_and_line(drift):
    before = b'{\n  "a": 1.0,\n  "b": 0.30000000000000004\n}\n'
    after = b'{\n  "a": 1.0,\n  "b": 0.3\n}\n'
    # (0.30000000000000004 - 0.3) / 0.30000000000000004 = 1.85e-16
    assert drift("metrics.json", before, after) == (
        "1.85e-16  line 3: 0.30000000000000004 -> 0.3")


def test_text_outside_the_numbers_is_reported_as_such(drift):
    assert drift("out.txt", b"depth: 1.5 mm\n", b"depth: 1.5 cm\n") == (
        "differs outside its numbers")
    assert drift("out.txt", b"x: 1\n", b"x: 1\ny: 2\n") == "differs outside its numbers"


def test_inf_and_nan_cells(drift):
    # Equal infs and nans read no difference; only the 2 -> 2.5 cell does.
    before = b"x,y\n1,nan\ninf,2\n-inf,nan\n"
    after = b"x,y\n1,nan\ninf,2.5\n-inf,nan\n"
    assert drift("run.csv", before, after) == (
        "2.00e-01  line 3: 2 -> 2.5  column-scaled 2.00e-01")
    # A cell that turns infinite or nan is an infinite difference.
    assert drift("run.csv", b"x\n1\n", b"x\ninf\n") == "inf  line 2: 1 -> inf  column-scaled inf"
    assert drift("run.csv", b"x\n1\n", b"x\nnan\n") == "inf  line 2: 1 -> nan  column-scaled inf"


def test_a_csv_cell_near_zero_reads_small_against_its_column(drift):
    # 1e-20 -> 2e-20 is 0.5 relative, but 1e-22 of its column's largest
    # magnitude, 100.00000000000001, whose own cell moved by one ulp of 100:
    # 1.42e-14 / 100 = 1.42e-16.
    before = b"t,v\n0,100\n1,1e-20\n"
    after = b"t,v\n0,100.00000000000001\n1,2e-20\n"
    assert drift("run.csv", before, after) == (
        "5.00e-01  line 3: 1e-20 -> 2e-20  column-scaled 1.42e-16")
    # The same bytes in a file that is not a CSV get no column figure.
    assert drift("run.txt", before, after) == "5.00e-01  line 3: 1e-20 -> 2e-20"
