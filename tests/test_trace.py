"""The block encoder writes the bytes of one repr per cell."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haselhand.trace import CSV_BLOCK_ROWS, csv_text
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
