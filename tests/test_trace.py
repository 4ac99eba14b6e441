"""The block encoder writes the bytes of one repr per cell at every block
size the properties draw (the module's 4,096 rows and small sizes whose
edges are cheap to cross), and keeps no more than one block's strings
alive; the loadtxt decoder reads the bits and errors of one float() per
cell."""

import os
import stat
import sys
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import haselhand.trace
from haselhand.errors import TraceSchemaError
from haselhand.trace import (CSV_BLOCK_ROWS, FIXED_COLUMNS, SignalTrace, _scan_rows, csv_rows,
                             csv_text, load_trace, write_atomic)
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
# Block sizes the properties run the encoder at (patching CSV_BLOCK_ROWS):
# small ones, cheap to cross (one row, an odd size, the size before
# 4096-row blocks), and the module's own.
SMALL_BLOCKS = [1, 7, 256]
BLOCK_ROWS = sorted({*SMALL_BLOCKS, CSV_BLOCK_ROWS})


def edge_rows(block: int) -> list[int]:
    """Row counts around the edges of block-row blocks, and the empty table."""
    return sorted({0, 1, block - 1, block, block + 1, 2 * block + 1})


floats = st.one_of(st.sampled_from(SPECIAL), st.floats(allow_nan=True, allow_infinity=True))
ints = st.one_of(st.integers(-2**53 - 3, 2**53 + 3), st.integers(-2**70, 2**70))


def runs(rng: np.random.Generator, pool: list, n: int, p: float) -> list:
    """n values drawn from pool in runs of geometric length (mean 1 / p)."""
    lengths = rng.geometric(p, size=n)  # n runs cover n rows; fewer mostly do
    used = min(int(np.searchsorted(np.cumsum(lengths), n)) + 1, n)
    picks = np.repeat(rng.integers(len(pool), size=used), lengths[:used])[:n]
    return [pool[k] for k in picks.tolist()]


@st.composite
def column_sets(draw):
    """A block size from BLOCK_ROWS, and 1-12 columns, several of them
    duplicates, as in the shipped wide traces: a duplicate is the same
    object or an array copy of it. The columns draw their runs from one
    pool of floats and one of ints. Their row count is one of edge_rows
    of the block size or a free count up to 600. A table keeps to 3600
    cells where it can: past 300 rows it has up to 6 columns."""
    block = draw(st.sampled_from(BLOCK_ROWS))
    n = draw(st.one_of(st.sampled_from(edge_rows(block)), st.integers(0, 600)))
    width = draw(st.integers(1, min(12, max(6, 3600 // max(n, 1)))))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = {"ints": draw(st.lists(ints, min_size=1, max_size=8)),
             "floats": draw(st.lists(floats, min_size=1, max_size=16))}
    columns = []
    for j in range(width):
        kind = draw(st.sampled_from(["array", "strided", "floats", "ints", "duplicate"]))
        if kind == "duplicate" and columns:
            values = columns[draw(st.integers(0, len(columns) - 1))][1]
            columns.append((f"dup{j}", np.array(values, dtype=float) if draw(st.booleans())
                            else values))
            continue
        p = draw(st.sampled_from([0.2, 0.005]))  # short runs, or holds across blocks
        values = runs(rng, pools["ints" if kind == "ints" else "floats"], n, p)
        if kind in ("ints", "floats"):
            columns.append((f"{kind[0]}{j}", values))
        elif kind == "strided":
            columns.append((f"s{j}", np.array([values, values]).T[:, 1]))
        else:
            columns.append((f"a{j}", np.array(values)))
    return block, columns


class TestCsvText:
    @settings(max_examples=300, deadline=None)
    @given(column_sets())
    def test_bytes_match_one_repr_per_cell(self, drawn):
        block, columns = drawn
        with mock.patch.object(haselhand.trace, "CSV_BLOCK_ROWS", block):
            assert csv_text(columns) == csv_text_oracle(columns)

    def test_repr_once_per_run_per_distinct_column_per_block(self):
        # A ramp (a run per row) and a held column that switches from -0.0
        # to 0.0 in its second block and to 1.0 for one row in its third,
        # each also given as a duplicate.
        n = 3 * CSV_BLOCK_ROWS + 7
        ramp = np.arange(n) / 8.0
        held = np.zeros(n)
        held[:CSV_BLOCK_ROWS + 10] = -0.0
        held[2 * CSV_BLOCK_ROWS + 5] = 1.0
        columns = [("ramp", ramp), ("held", held), ("held_again", held.tolist()),
                   ("ramp_again", ramp.copy())]
        with mock.patch.object(haselhand.trace, "repr", create=True, wraps=repr) as counted:
            text = csv_text(columns)
        assert text == csv_text_oracle(columns)
        # The ramp's rows; the held column's 4 block starts, its switch and its pulse.
        assert counted.call_count == n + 4 + 1 + 2

    def test_peak_memory_stays_under_twice_the_rows(self):
        # Three blocks and a row of a ramp, noise, a held column and a
        # scaled ramp, three of them also given as duplicates. Each distinct
        # column's strings take about 3.5 times its share of the rows, so
        # the strings of one block fit under the bound and the whole
        # table's would not.
        n = 3 * CSV_BLOCK_ROWS + 1
        rng = np.random.default_rng(0)
        ramp, noise = np.cumsum(rng.random(n)), rng.normal(size=n)
        held = np.round(ramp / 500.0)
        columns = [("ramp", ramp), ("noise", noise), ("held", held), ("ramp_again", ramp.copy()),
                   ("noise_again", noise), ("scaled", ramp / 7.0), ("held_again", held.tolist())]
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            rows = csv_rows(columns)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert rows == csv_text_oracle(columns).splitlines()[1:]
        assert peak < 2 * (sys.getsizeof(rows) + sum(map(sys.getsizeof, rows)))

    def test_signed_zeros_in_one_block_stay_apart(self):
        text = csv_text([("a", [0.0, -0.0]), ("b", np.array([-0.0, 0.0]))])
        assert text == "a,b\n0.0,-0.0\n-0.0,0.0\n"

    @pytest.mark.parametrize("second", [[3.0, 4.0, 5.0], [3.0]], ids=["longer", "shorter"])
    def test_unequal_columns_name_the_column(self, second):
        with pytest.raises(ValueError, match="column 'b' has"):
            csv_text([("a", [1.0, 2.0]), ("b", second)])


def read_only(values) -> np.ndarray:
    a = np.array(values, dtype=float)
    a.flags.writeable = False
    return a


def record(n: int, keys: int) -> SignalTrace:
    """A record's noise-free trace as Plant.noise_free gives it: read-only
    columns, one theta array for the joints of a group, held runs in v_cmd,
    f_contact and x. keys joints and stacks; none gives no keyed column."""
    rng = np.random.default_rng(n)
    ramp = np.minimum(np.arange(n) / 100.0, 1.5)
    theta, x = read_only(np.cumsum(rng.random(n))), read_only(ramp * 2.0)
    return SignalTrace(
        t=read_only(np.arange(n) * 1e-3), v_cmd=read_only(ramp), v_meas=read_only(ramp),
        i_meas=read_only(rng.normal(size=n)),
        theta={f"j{k}": theta for k in range(keys)},
        f_contact={f"j{k}": read_only(np.maximum(ramp - 1.0, 0.0) * k) for k in range(keys)},
        x={f"s{k}": x for k in range(keys)}, c={f"s{k}": read_only(x / 7.0) for k in range(keys)})


def seeded(free: SignalTrace, seed: int) -> SignalTrace:
    """A run of free's record at seed, as run_scenario makes it."""
    rng = np.random.default_rng(seed)
    return replace(free, v_meas=free.v_meas + rng.normal(size=len(free)),
                   i_meas=free.i_meas + rng.normal(size=len(free)))


def encodes(trace: SignalTrace) -> tuple[str, list[int]]:
    """trace's CSV text, and the width of each column set csv_rows encodes for it."""
    widths, real = [], haselhand.trace.csv_rows

    def counted(columns):
        widths.append(len(columns))
        return real(columns)

    with mock.patch.object(haselhand.trace, "csv_rows", counted):
        return trace.to_csv_text(), widths


class TestFrame:
    """The traces of one record encode its seed-free columns once."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(SMALL_BLOCKS).flatmap(lambda block: st.tuples(
               st.just(block), st.sampled_from([0, 1, block + 1]))),
           st.integers(0, 2), st.lists(st.integers(0, 3), min_size=1, max_size=10))
    def test_traces_of_one_record_encode_as_the_oracle(self, sizes, keys, order):
        # The record's own trace and three runs of it, encoded in the drawn
        # order, each any number of times, in blocks of a drawn size.
        block, n = sizes
        free = record(n, keys)
        traces = [free, *(seeded(free, seed) for seed in (1, 2, 3))]
        want = [csv_text_oracle(trace.columns()) for trace in traces]
        with mock.patch.object(haselhand.trace, "CSV_BLOCK_ROWS", block):
            for i in order:
                assert traces[i].to_csv_text() == want[i]

    def test_the_second_encode_builds_the_frame(self):
        # The first encode is csv_text's; the second encodes the seed-free
        # columns once more, into the frame; later ones v_meas and i_meas.
        free = record(300, 2)
        width = len(free.columns())
        widths = []
        for seed in (1, 2, 3, 4):
            trace = seeded(free, seed)
            text, encoded = encodes(trace)
            assert text == csv_text_oracle(trace.columns())
            widths.append(encoded)
        assert widths[0] == [width] and sum(widths[1]) == width
        assert widths[2:] == [[2], [2]]

    @pytest.mark.parametrize("change", ["new column", "new key", "new writable column",
                                        "written column"])
    def test_a_trace_off_the_frame_encodes_in_full_and_leaves_it(self, change):
        free = record(300, 2)
        for seed in (1, 2):
            seeded(free, seed).to_csv_text()
        frame = free.frame
        columns, rows = frame["columns"], frame["rows"]
        kept = [list(part) for part in rows]
        trace = seeded(free, 3)
        if change == "new column":
            trace = replace(trace, theta={**trace.theta, "j1": read_only(trace.theta["j1"] + 1.0)})
        elif change == "new key":
            trace = replace(trace, x={**trace.x, "s2": trace.x["s1"]})
        elif change == "new writable column":
            trace = replace(trace, v_cmd=trace.v_cmd + 1.0)
        else:  # the record's own array, made writable and written
            trace.f_contact["j1"].flags.writeable = True
            trace.f_contact["j1"][-1] = 5.0
        text, encoded = encodes(trace)
        assert text == csv_text_oracle(trace.columns())
        assert encoded == [len(trace.columns())]
        assert trace.frame is frame and frame.keys() == {"columns", "rows"}
        assert frame["columns"] is columns and frame["rows"] is rows
        assert [list(part) for part in rows] == kept

    def test_writable_columns_never_claim_the_frame(self):
        free = record(300, 2)
        trace = replace(free, t=np.array(free.t))
        for _ in range(3):
            assert encodes(trace) == (csv_text_oracle(trace.columns()), [len(trace.columns())])
        assert free.frame == {}


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


@pytest.mark.skipif(os.name != "posix", reason="file modes and the umask are POSIX")
@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_file_mode_follows_umask(tmp_path, umask, mode):
    # The mode a plain open() would give, not mkstemp's 0600; same bytes.
    path, text = tmp_path / "out" / "a.csv", "t(s),v_cmd(kV)\n0.0,-0.0\n"
    saved = os.umask(umask)
    try:
        write_atomic(path, text)
        write_atomic(path, text)  # replacing an existing file too
    finally:
        os.umask(saved)
    assert stat.S_IMODE(path.stat().st_mode) == mode
    assert path.read_bytes() == text.encode()
    assert os.listdir(path.parent) == ["a.csv"]
