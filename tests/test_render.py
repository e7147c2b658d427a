"""The array renderers against their oracles, byte for byte: CSV values
against Python's ``"%.17g" % x``, JSON values against ``float.__repr__``
and whole JSON sweeps against ``json.dumps``; emit's destinations;
rendering's working memory."""

import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jcm_entropy import SimulationConfig, SweepResult, _g17, emit, run_sweep
from jcm_entropy.sweep import BASE_COLUMNS


def percent_lines(values) -> bytes:
    """The oracle: one ``%`` formatting per value, one value a line."""
    return "".join("%.17g\n" % x for x in np.asarray(values).tolist()).encode()


def repr_lines(values) -> bytes:
    """The oracle: one ``float.__repr__`` per value, one value a line."""
    special = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    texts = map(float.__repr__, np.asarray(values).tolist())
    return "".join(special.get(text, text) + "\n" for text in texts).encode()


def rendered(values, end: str, shortest: bool = False) -> bytes:
    """``values`` as a table of one column, each followed by ``end``."""
    return b"".join(_g17.render([np.asarray(values, dtype=np.float64)], end, end, shortest))


def assert_renders(values, shortest: bool):
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    got = rendered(values, "\n", shortest)
    want = (repr_lines if shortest else percent_lines)(values)
    if got != want:
        pairs = zip(got.split(b"\n"), want.split(b"\n"), values.tolist())
        bad = [(x, g, w) for g, w, x in pairs if g != w]
        pytest.fail(f"{len(bad)} values differ, first {bad[:3]}")


def around(x, steps=4):
    """``x`` and the ``steps`` floats on either side of it."""
    below, above = [x], [x]
    for _ in range(steps):
        below.append(math.nextafter(below[-1], -math.inf))
        above.append(math.nextafter(above[-1], math.inf))
    return below[::-1] + above[1:]


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_any_floats(xs):
    assert_renders(xs, False)


def test_random_bit_patterns():
    bits = np.random.default_rng(9).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    assert_renders(bits.view(np.float64), False)


def test_exact_tie_rounds_half_to_even():
    # 3 * 2**-24 = 1.78813934326171875e-07 exactly: 18 digits ending in 5
    assert rendered([3 * 2 ** -24], "\n") == b"1.7881393432617188e-07\n"


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05])
def test_both_sides_of_each_notation_switch(edge):
    # the decimal exponent changes at each edge, and the notation at 1e-4
    # and 1e17
    values = around(edge)
    assert_renders(values + [-x for x in values], False)


def test_notation_switches():
    values = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e17, 0.0), 1e17]
    assert rendered(values, ",") == b"9.9999999999999991e-05,0.0001,99999999999999984,1e+17,"


@pytest.mark.parametrize("edge", [1e-200, 1e200])
def test_both_sides_of_the_array_range(edge):
    values = around(edge)
    assert_renders(values + [-x for x in values], False)


def test_signed_zeros_and_specials():
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324,
              sys.float_info.max, -sys.float_info.max, sys.float_info.min]
    assert rendered(values[:2], ",") == b"0,-0,"
    assert_renders(values, False)


def test_powers_of_ten_and_round_numbers():
    values = [10.0 ** j for j in range(-310, 309)] + [float(n) for n in range(-1000, 1001)]
    assert_renders(values + [x * 0.1 for x in values], False)


def test_ends_follow_each_value():
    columns = [np.array([1.5, 0.1]), np.array([-2.0, 3.0]), np.array([1e-7, 1e300])]
    assert b"".join(_g17.render(columns, ",", "\n")) == b"1.5,-2,9.9999999999999995e-08\n" \
        b"0.10000000000000001,3,1.0000000000000001e+300\n"


@pytest.mark.parametrize("shortest", [False, True])
@pytest.mark.parametrize("ncols, nrows", [(1, 9000), (11, 1000), (12, 373), (5000, 3)])
def test_blocks_hold_whole_rows(ncols, nrows, shortest):
    # at most BLOCK values a block, but one row wider than BLOCK is a block
    rng = np.random.default_rng(ncols)
    table = rng.standard_normal((nrows, ncols)) * 10.0 ** rng.integers(-8, 8, (nrows, ncols))
    blocks = list(_g17.render(list(table.T), ";", "|", shortest))
    for block in blocks:
        values = block.count(b";") + block.count(b"|")
        assert block.endswith(b"|") and values == block.count(b"|") * ncols
        assert 0 < values <= max(_g17.BLOCK, ncols)
    rows = table.tolist()
    if shortest:
        oracle = [json.dumps(row, separators=(";", ""))[1:-1] for row in rows]
    else:
        oracle = [";".join("%.17g" % x for x in row) for row in rows]
    assert b"".join(blocks) == "".join(row + "|" for row in oracle).encode()


@pytest.mark.parametrize("shortest", [False, True])
def test_a_table_without_rows_renders_nothing(shortest):
    assert list(_g17.render([np.empty(0)] * 3, ",", "\n", shortest)) == []


def percent_csv(result) -> bytes:
    """The CSV text of a sweep by one ``%`` formatting per value."""
    row = ",".join(["%.17g"] * len(result.columns))
    rows = zip(*(result.data[name].tolist() for name in result.columns))
    lines = [",".join(result.columns)] + [row % values for values in rows]
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture(scope="module")
def sweep():
    # more rows than one block of values, and a last block cut short
    result = run_sweep(SimulationConfig(alpha_mag=7.0, t_end=30.0, t_steps=3001))
    assert result.data["t"].size * len(result.columns) > 2 * _g17.BLOCK
    return result


def test_csv_matches_percent_route(sweep, tmp_path):
    out = tmp_path / "sweep.csv"
    emit(sweep, path=str(out))
    assert out.read_bytes() == percent_csv(sweep)


def test_file_and_stdout_give_the_same_bytes(sweep, tmp_path, capsysbinary, monkeypatch):
    out = tmp_path / "sweep.csv"
    emit(sweep, path=str(out))
    print("before", end="")  # left in the text layer: written first
    emit(sweep)
    assert capsysbinary.readouterr().out == b"before" + out.read_bytes()
    text = io.StringIO()  # a stdout with no binary buffer takes text
    monkeypatch.setattr(sys, "stdout", text)
    emit(sweep)
    assert text.getvalue().encode() == out.read_bytes()


def test_rendering_memory_is_bounded_by_the_block(tmp_path):
    # 200000 rows, 2.2e6 values: 0.5 MiB beyond the output's 47 MB, where
    # whole-grid (30, values) text fields would take 66 MB and the `%`
    # route, holding the rows as Python strings, peaked 100 MiB beyond it
    rows = 200_000
    rng = np.random.default_rng(3)
    data = {name: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
            for name in BASE_COLUMNS}
    result = SweepResult(SimulationConfig(alpha_mag=1.0), data)
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        emit(result, path=str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 40 * 10 ** 6
    assert peak - size <= 1024 * _g17.BLOCK


def test_json_rendering_memory_is_bounded_by_the_block(tmp_path):
    # the same 200000 rows as JSON, about 60 MB: the route through
    # `tolist` and one `json.dumps` of all rows peaked 121 MiB beyond it
    rows = 200_000
    rng = np.random.default_rng(3)
    data = {name: rng.standard_normal(rows) * 10.0 ** rng.integers(-8, 8, rows)
            for name in BASE_COLUMNS}
    result = SweepResult(SimulationConfig(alpha_mag=1.0), data)
    out = tmp_path / "big.json"
    tracemalloc.start()
    try:
        emit(result, format="structured", path=str(out))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 50 * 10 ** 6
    assert peak - size <= 1024 * _g17.BLOCK


@pytest.mark.parametrize("shortest", [False, True])
def test_one_block_renders_within_a_mebibyte(shortest):
    # the values of the 200000-row tests, one block of them; a (values, 26)
    # intp index of per-layout templates took 832 KiB of the 1.37 MiB
    rng = np.random.default_rng(3)
    values = rng.standard_normal(_g17.BLOCK) * 10.0 ** rng.integers(-8, 8, _g17.BLOCK)
    rendered(values, ",", shortest)  # builds the cached powers of ten
    tracemalloc.start()
    try:
        (text,) = _g17.render([values], ",", ",", shortest)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - len(text) <= 2 ** 20


def test_renderer_loads_with_the_first_csv():
    # the import of the CLI, all that an import-only start pays, leaves it out
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, jcm_entropy.cli as cli; "
            "before = 'jcm_entropy._g17' in sys.modules; "
            "cli.main(['--alpha-mag', '1', '--t-steps', '3', '--output', sys.argv[1]]); "
            "print(before, 'jcm_entropy._g17' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


def test_renderer_loads_with_the_first_json():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, jcm_entropy.cli as cli; "
            "before = 'jcm_entropy._g17' in sys.modules; "
            "cli.main(['--alpha-mag', '1', '--t-steps', '3', '--format', 'structured', "
            "'--output', sys.argv[1]]); "
            "print(before, 'jcm_entropy._g17' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, os.devnull], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]


# The JSON route: each value as float.__repr__ gives it, in JSON's spelling.

@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=50))
@settings(max_examples=300, deadline=None)
def test_repr_any_floats(xs):
    assert_renders(xs, True)


def test_repr_random_bit_patterns():
    bits = np.random.default_rng(14).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    assert_renders(bits.view(np.float64), True)


def test_repr_powers_of_two_and_their_neighbours():
    # the rounding interval of a power of two is narrower below it
    values = [x for j in range(-1074, 1024) for x in around(2.0 ** j)]
    assert_renders(values + [-x for x in values], True)


@pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16])
def test_repr_both_sides_of_each_notation_switch(edge):
    # X = -5 | -4 switches to fixed notation, X = 15 | 16 back out of it
    values = around(edge)
    assert_renders(values + [-x for x in values], True)


def test_repr_notation_switches():
    values = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e16, 0.0), 1e16, 5e-5]
    assert rendered(values, ",", True) == \
        b"9.999999999999999e-05,0.0001,9999999999999998.0,1e+16,5e-05,"


def test_repr_integral_values():
    assert rendered([1.0, 100.0, 1e16, -7.0], ",", True) == b"1.0,100.0,1e+16,-7.0,"
    rng = np.random.default_rng(15)
    values = ([float(n) for n in range(-1000, 1001)] + [10.0 ** j for j in range(17)]
              + np.floor(10.0 ** rng.uniform(0, 16, 20_000)).tolist())
    assert_renders(values, True)


def test_repr_signed_zeros_subnormals_and_specials():
    values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 2.5e-310,
              sys.float_info.min, math.nextafter(sys.float_info.min, 0.0),
              sys.float_info.max, -sys.float_info.max]
    assert rendered(values[:5], ",", True) == b"0.0,-0.0,NaN,Infinity,-Infinity,"
    assert_renders(values, True)


def near_a_boundary(x: float) -> bool:
    """Whether a candidate that decides ``repr(x)``, its decimal of 15, 16
    or 17 significant digits nearest x, lies within 1e-8 units of the 17th
    digit of a rounding tie or of the midpoint to a neighbouring double;
    in exact arithmetic."""
    q = abs(Fraction(x))
    k = math.floor(math.log10(q))
    k += (q >= Fraction(10) ** (k + 1)) - (q < Fraction(10) ** k)
    scale = Fraction(10) ** (16 - k)
    xs, half = q * scale, Fraction(math.ulp(x)) / 2 * scale
    eps = Fraction(1, 10 ** 8)
    for unit in (100, 10, 1):
        d = abs(xs - unit * round(xs / unit))
        if abs(d - half) <= eps or abs(d - Fraction(unit, 2)) <= eps:
            return True
        if d < half:
            return False
    return False


def test_repr_falls_back_only_where_listed():
    # 18014398509481988 and ...92 (multiples of 4, the spacing there) are
    # each off the 16-digit 18014398509481990 by exactly half an ulp
    rng = np.random.default_rng(16)
    boundary = [18014398509481988.0, 18014398509481992.0]
    values = np.concatenate([
        rng.standard_normal(100_000) * 10.0 ** rng.integers(-20, 20, 100_000),
        np.random.default_rng(17).integers(0, 2 ** 64, 100_000, dtype=np.uint64).view(np.float64),
        np.linspace(0.0, 30.0, 4000), boundary])
    _, _, slow = _g17._decimal(values, True)
    a = np.abs(values)
    listed = ~((a >= 1e-200) & (a < 1e200)) | (np.frexp(a)[0] == 0.5)
    assert not np.any(slow & (values == 0.0))
    rest = values[slow & ~listed].tolist()
    assert boundary[0] in rest and boundary[1] in rest
    assert all(near_a_boundary(x) for x in rest), rest
    assert_renders(values, True)


def json_oracle(result) -> bytes:
    """The structured text of a sweep by ``json.dumps`` of the whole payload."""
    rows = np.stack([result.data[name] for name in result.columns], axis=1).tolist()
    payload = {"config": dataclasses.asdict(result.config),
               "columns": list(result.columns), "rows": rows}
    return (json.dumps(payload, indent=2) + "\n").encode()


@pytest.mark.parametrize("steps", [1000, 1])
def test_structured_matches_json_dumps_route(steps, tmp_path):
    # 1000 rows of 12 columns span three render blocks; one row is all
    # that the closing lines replace
    config = SimulationConfig(alpha_mag=3.0, t_start=0.5, t_end=20.0, t_steps=steps,
                              quad_theta_order=16, quad_phi_order=32)
    result = run_sweep(config, with_oracle=True)
    assert steps == 1 or result.data["t"].size * len(result.columns) > 2 * _g17.BLOCK
    out = tmp_path / "sweep.json"
    emit(result, format="structured", path=str(out))
    assert out.read_bytes() == json_oracle(result)


def test_structured_without_rows_matches_json_dumps(tmp_path):
    result = SweepResult(SimulationConfig(alpha_mag=1.0),
                         {name: np.empty(0) for name in BASE_COLUMNS})
    out = tmp_path / "empty.json"
    emit(result, format="structured", path=str(out))
    assert out.read_bytes() == json_oracle(result)


def test_config_of_numpy_scalars_writes_as_python_numbers(tmp_path):
    # numpy scalars passed every check of the config, then failed json.dumps
    given = dict(alpha_mag=np.float32(2.5), alpha_phase=np.float64(0.5), t_end=np.float32(3.0),
                 t_steps=np.int64(3), fock_tail_tol=np.float64(1e-12),
                 quad_theta_order=np.int32(8), quad_phi_order=np.uint16(16))
    outs = []
    for kwargs in (given, {name: value.item() for name, value in given.items()}):
        config = SimulationConfig(**kwargs)
        for field in dataclasses.fields(config):
            assert type(getattr(config, field.name)).__name__ == field.type, field.name
        outs.append(tmp_path / f"sweep{len(outs)}.json")
        emit(run_sweep(config, with_oracle=True), format="structured", path=str(outs[-1]))
    assert outs[0].read_bytes() == outs[1].read_bytes()
