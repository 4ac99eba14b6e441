"""The block encoder writes the bytes of one repr per cell, and the
loadtxt decoder reads the bits and errors of one float() per cell."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import haselhand.trace
from haselhand.errors import TraceSchemaError
from haselhand.trace import CSV_BLOCK_ROWS, FIXED_COLUMNS, _scan_rows, csv_text, load_trace
from oracles import csv_text as csv_text_oracle


def bits_to_float(pattern: int) -> float:
    return float(np.array([pattern], dtype=np.uint64).view(np.float64)[0])


# Values whose text is easy to get wrong: signed zeros, NaNs with other
# payloads and signs, infinities, the smallest subnormal, the largest
# finite value, and both sides of repr's switches to exponent notation.
SPECIAL = [0.0, -0.0, float("nan"), bits_to_float(0x7FF8000000000123),
           bits_to_float(0xFFF8000000000000), bits_to_float(0x7FF0000000000001),
           float("inf"), float("-inf"), 5e-324, -5e-324, 1.7976931348623157e308,
           1e16, 9999999999999998.0, -1e16, 1e-4, 9.999999999999999e-05, -1e-4]
# Row counts around the block edges, and the empty table.
EDGE_ROWS = sorted({0, 1, 255, 256, 257, 513, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                    CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 1})

floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.integers(-2**53 - 3, 2**53 + 3), st.integers(-2**70, 2**70))


def runs(rng: np.random.Generator, pool: list, n: int) -> list:
    """n values drawn from pool in runs of geometric length."""
    out: list = []
    while len(out) < n:
        out += [pool[rng.integers(len(pool))]] * int(rng.geometric(0.2))
    return out[:n]


@st.composite
def column_sets(draw):
    n = draw(st.one_of(st.sampled_from(EDGE_ROWS), st.integers(0, 600)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for j in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["array", "strided", "floats", "ints", "duplicate"]))
        if kind == "duplicate" and columns:
            columns.append((f"dup{j}", columns[draw(st.integers(0, len(columns) - 1))][1]))
            continue
        if kind == "ints":
            columns.append((f"i{j}", runs(rng, draw(st.lists(ints, min_size=1, max_size=8)), n)))
            continue
        values = runs(rng, draw(st.lists(floats, min_size=1, max_size=8)), n)
        if kind == "floats":
            columns.append((f"f{j}", values))
        elif kind == "strided":
            columns.append((f"s{j}", np.array([values, values]).T[:, 1]))
        else:
            columns.append((f"a{j}", np.array(values)))
    return columns


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(column_sets())
    def test_bytes_match_one_repr_per_cell(self, columns):
        assert csv_text(columns) == csv_text_oracle(columns)

    def test_signed_zeros_in_one_block_stay_apart(self):
        text = csv_text([("a", [0.0, -0.0]), ("b", np.array([-0.0, 0.0]))])
        assert text == "a,b\n0.0,-0.0\n-0.0,0.0\n"

    @pytest.mark.parametrize("second", [[3.0, 4.0, 5.0], [3.0]], ids=["longer", "shorter"])
    def test_unequal_columns_name_the_column(self, second):
        with pytest.raises(ValueError, match="column 'b' has"):
            csv_text([("a", [1.0, 2.0]), ("b", second)])


HEADER = ",".join(FIXED_COLUMNS.values())


def decoded(path):
    """load_trace's four columns as bit patterns, or its error message."""
    try:
        trace = load_trace(path)
    except TraceSchemaError as exc:
        return str(exc)
    return [getattr(trace, attr).view(np.int64).tolist() for attr in FIXED_COLUMNS]


def scanned(path):
    """decoded(path) with np.loadtxt failing, so every row goes through _scan_rows."""
    with mock.patch.object(np, "loadtxt", side_effect=ValueError):
        return decoded(path)


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("decode")


# Cell texts near float()'s grammar: numbers with signs, exponents, spaces
# and underscores, its non-finite words, and text it refuses.
cell_texts = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["0", "-0", "+.5", "5.", "1e5", "1E-5", "1e500", "-1e500", "nan", "-NaN",
                     "inf", "-Infinity", "1_0", "1__0", "_1", "1d5", "0x10", "", " ", "#", "1#2",
                     "1 2", '"1"', "\u0663", "\xa01.0\xa0", "1.0\x00", "1\x0c", "abc"]),
    st.text(alphabet="0123456789.eE+-_ #\t", max_size=6),
)


class TestLoadTrace:
    def test_loadtxt_reads_the_bits_of_one_float_per_cell(self, tmp_path):
        # 40,000 repr strings of random magnitudes and signs, the first
        # rows set to the finite values whose text is easy to get wrong.
        rng = np.random.default_rng(4242)
        values = 10.0 ** rng.uniform(-300, 300, size=(10_000, 4))
        values *= rng.choice([-1.0, 1.0], size=values.shape)
        finite = [v for v in SPECIAL if np.isfinite(v)]
        values[:len(finite)] = np.array(finite)[:, None]
        rows = [",".join(map(repr, row)) for row in values.tolist()]
        path = tmp_path / "t.csv"
        path.write_text("\n".join([HEADER] + rows) + "\n")
        with mock.patch.object(haselhand.trace, "_scan_rows", side_effect=AssertionError):
            trace = load_trace(path)
        data = np.stack([getattr(trace, attr) for attr in FIXED_COLUMNS], axis=1)
        assert data.view(np.int64).tolist() == _scan_rows(rows, 4).view(np.int64).tolist()

    @pytest.mark.parametrize("damage", [
        lambda text: "\n" + text,
        lambda text: text.replace("\n", "\n \t\n", 1),
        lambda text: text.replace(",10.0,", ", 10.0 ,"),
        lambda text: text.replace(",10.0,", ",1_0,"),
        lambda text: text.replace("\n", "\r\n"),
    ], ids=["leading_blank_line", "whitespace_only_line", "spaces_around_a_cell",
            "underscore_in_a_cell", "crlf_line_ends"])
    def test_file_outside_loadtxt_grammar_reads_as_before(self, tmp_path, damage):
        clean = f"{HEADER}\n0.0,10.0,-0.0,5e-324\n1.5,2.5,3.5,4.5\n"
        paths = [tmp_path / "clean.csv", tmp_path / "damaged.csv"]
        paths[0].write_text(clean)
        paths[1].write_bytes(damage(clean).encode())
        assert decoded(paths[1]) == decoded(paths[0]) == scanned(paths[0])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.lists(cell_texts, min_size=3, max_size=5), min_size=1, max_size=3))
    @example([["1", "2", "3"], ["4", "5", "6"]])  # every row one value short
    @example([["1", "2", "3", "4"]] * 2 + [[" ", "", "#", "x"]])
    @example([["1", "2", "3", "4 # a comment to loadtxt by default"]])
    def test_accepts_and_refuses_what_a_float_per_cell_does(self, trace_dir, table):
        path = trace_dir / "t.csv"
        path.write_text("\n".join([HEADER] + [",".join(row) for row in table]) + "\n")
        assert decoded(path) == scanned(path)
