"""The column-by-column differ of tools/golden_diff.py."""

import importlib.util
from pathlib import Path

import numpy as np

_PATH = Path(__file__).resolve().parents[1] / "tools" / "golden_diff.py"
_SPEC = importlib.util.spec_from_file_location("golden_diff", _PATH)
golden_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden_diff)


def test_ulps_count_against_the_column_scale():
    # a value crossing zero used to read as about 1e16 ulp of its own size
    old = np.array([1.0, 0.5, 1e-17, 0.25])
    new = np.array([1.0, 0.5, -1e-17, 0.25 + 2 * np.spacing(1.0)])
    absolute, ulp = golden_diff.differences(old, new)
    assert absolute[2] == 2e-17 and ulp[2] < 1.0
    assert ulp.tolist()[:2] == [0.0, 0.0] and ulp[3] == 2.0


def test_equal_nan_and_zero_columns_read_zero():
    a = np.array([0.0, np.nan, -0.0])
    absolute, ulp = golden_diff.differences(a, a.copy())
    assert absolute.tolist() == [0.0, 0.0, 0.0] and ulp.tolist() == [0.0, 0.0, 0.0]


def test_byte_check_sees_a_formatting_change():
    # the same values in another format: the value diff reads 0 on them
    old = b"t,x\n0,1.5\n1,2\n"
    new = b"t,x\n0,1.5\n1,2.0\n"
    assert golden_diff.byte_check(old, old) == "byte-identical"
    assert golden_diff.byte_check(old, new) == \
        "bytes differ: 1 of 4 lines, the first at line 3, sizes 14 -> 16"


def test_column_worst_names_the_row_of_the_worst_ulp():
    old = np.array([1.0, 0.5, 0.25, 0.125])
    new = old + np.array([0.0, 4.0, 1.0, 3.0]) * np.spacing(1.0)
    eta = np.array([0.5, 0.999, 0.2, 0.9])
    worst = golden_diff.column_worst(*golden_diff.differences(old, new), eta)
    assert worst == {"abs": 4 * np.spacing(1.0), "ulp": 4.0, "row": 1, "low": 3.0}
