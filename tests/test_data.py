import math
import re

import numpy as np
import pytest

from hiermix.data import DataError, as_frame, build_hierarchy, load_csv, split_outcome_rows
from hiermix.dsl import parse_model_spec


@pytest.fixture
def kidney_like(tmp_path):
    # 38 patients, two catheter records each: the classic recurrence layout
    rng = np.random.default_rng(0)
    lines = ["patient,time,infect,age,female"]
    for pid in range(1, 39):
        age = float(rng.integers(20, 70))
        female = float(pid % 2)
        for _ in range(2):
            t = round(float(rng.exponential(100.0)) + 1.0, 1)
            d = int(rng.random() < 0.75)
            lines.append(f"{pid},{t},{d},{age},{female}")
    path = tmp_path / "kidney.csv"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestLoadCsv:
    def test_row_and_column_counts(self, kidney_like):
        frame = load_csv(kidney_like)
        assert frame.n == 76
        assert frame.names == ["patient", "time", "infect", "age", "female"]

    def test_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("a,b,c\n")
        frame = load_csv(p)
        assert frame.n == 0

    def test_non_numeric_cell_reported_when_referenced(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("time,x\n1.5,2\nabc,3\n")
        frame = load_csv(p)  # fine until the bad column is used
        frame.col("x")
        with pytest.raises(DataError, match="'abc'.*row 2|row 2"):
            frame.col("time")
        with pytest.raises(DataError):
            load_csv(p, columns=["time"])

    def test_empty_cells_are_missing(self, tmp_path):
        p = tmp_path / "miss.csv"
        p.write_text("y,x\n1,\n,2\n")
        frame = load_csv(p)
        assert np.isnan(frame.col("x")[0]) and np.isnan(frame.col("y")[1])

    def test_cells_read_as_float_reads_them(self, tmp_path):
        # padded cells, "." and blanks, and float()'s own forms; a column's
        # first bad cell is the one reported, and a header-only file still
        # has its columns
        p = tmp_path / "forms.csv"
        p.write_text("a,b,c\n 1e3 ,.,x\n-0.0,  ,y\n1_5,inf,3\n")
        frame = load_csv(p)
        a, b = frame.col("a"), frame.col("b")
        assert a.tolist() == [1000.0, 0.0, 15.0] and math.copysign(1.0, a[1]) == -1.0
        assert np.isnan(b[:2]).all() and b[2] == np.inf
        assert a.dtype == b.dtype == np.float64
        with pytest.raises(DataError, match="column 'c' has non-numeric value 'x' at data row 1"):
            frame.col("c")
        p.write_text("a,b\n")
        frame = load_csv(p)
        assert frame.names == ["a", "b"] and frame.col("a").shape == (0,) and frame.col("a").dtype == np.float64

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_csv(tmp_path / "nope.csv")

    def test_repeated_header_name(self, tmp_path):
        # the second y would silently replace the first
        p = tmp_path / "twice.csv"
        p.write_text("id,y,y\n1,abc,2\n")
        with pytest.raises(DataError, match="column 'y' appears twice in the header"):
            load_csv(p)
        # empty names from trailing commas are not columns anyone reads
        p.write_text("id,y,,\n1,2,,\n")
        assert load_csv(p).col("y")[0] == 2.0

    def test_missing_column(self, tmp_path):
        p = tmp_path / "cols.csv"
        p.write_text("a\n1\n")
        with pytest.raises(DataError, match="'b' not found"):
            load_csv(p).col("b")


class TestHierarchy:
    def test_kidney_one_level(self, kidney_like):
        frame = load_csv(kidney_like)
        h = build_hierarchy(frame, ["patient"])
        assert h.n_units(0) == 38
        assert len(h.row_unit[0]) == 76

    def test_single_row(self):
        frame = as_frame({"a": [1.0], "b": [7.0]})
        h = build_hierarchy(frame, ["a", "b"])
        assert h.n_units(0) == 1 and h.n_units(1) == 1

    def test_strict_nesting_violation(self):
        frame = as_frame({"trial": [1.0, 1.0, 2.0], "patient": [7.0, 7.0, 7.0]})
        message = "unit 7 of level 'patient' appears under two parents (1 and 2 of 'trial'): nesting must be strict"
        with pytest.raises(DataError, match=re.escape(message)):
            build_hierarchy(frame, ["trial", "patient"])

    def test_order_invariance(self):
        rng = np.random.default_rng(3)
        trial = np.repeat([1.0, 2.0, 3.0], 8)
        pat = np.repeat(np.arange(12, dtype=float) + 1, 2)
        frame = as_frame({"trial": trial, "pat": pat})
        h1 = build_hierarchy(frame, ["trial", "pat"])
        perm = rng.permutation(24)
        frame2 = as_frame({"trial": trial[perm], "pat": pat[perm]})
        h2 = build_hierarchy(frame2, ["trial", "pat"])
        np.testing.assert_array_equal(h1.unit_ids[0], h2.unit_ids[0])
        np.testing.assert_array_equal(h1.unit_ids[1], h2.unit_ids[1])
        np.testing.assert_array_equal(h1.parent[1], h2.parent[1])

    def test_non_consecutive_ids(self):
        frame = as_frame({"id": [10.0, 400.0, 10.0]})
        h = build_hierarchy(frame, ["id"])
        assert h.n_units(0) == 2


class TestSplitOutcomeRows:
    def test_joint_layout(self):
        # biomarker rows for one subject; survival values on the first row
        frame = as_frame(
            {
                "id": [3.0, 3.0, 3.0, 3.0],
                "logb": [0.34, 0.10, 0.41, 0.59],
                "time": [0.0, 0.48, 1.0, 2.03],
                "stime": [2.77, np.nan, np.nan, np.nan],
                "died": [1.0, np.nan, np.nan, np.nan],
            }
        )
        spec = parse_model_spec(
            "(stime EV[logb]@a, family(weibull, failure(died)))"
            " (logb fp(1)@s M1[id], family(gaussian) timevar(time))"
        )
        parts = split_outcome_rows(frame, spec)
        assert len(parts[0].rows) == 1
        assert len(parts[1].rows) == 4
        np.testing.assert_allclose(parts[0].response, [2.77])

    def test_all_missing_response_errors(self):
        frame = as_frame({"id": [1.0, 2.0], "y": [np.nan, np.nan]})
        spec = parse_model_spec("(y M1[id], family(gaussian))")
        with pytest.raises(DataError, match="all responses missing"):
            split_outcome_rows(frame, spec)

    def test_competing_risks_share_rows(self):
        frame = as_frame(
            {
                "id": [1.0, 2.0],
                "stime": [2.0, 3.0],
                "d1": [1.0, 0.0],
                "d2": [0.0, 1.0],
            }
        )
        spec = parse_model_spec(
            "(stime M1[id], family(weibull, failure(d1))) (stime M1[id], family(weibull, failure(d2)))"
        )
        parts = split_outcome_rows(frame, spec)
        np.testing.assert_array_equal(parts[0].rows, parts[1].rows)

    def test_bad_event_indicator(self):
        frame = as_frame({"id": [1.0], "y": [2.0], "d": [2.0]})
        spec = parse_model_spec("(y M1[id], family(weibull, failure(d)))")
        with pytest.raises(DataError, match="0/1"):
            split_outcome_rows(frame, spec)

    def test_entry_after_event_rejected(self):
        frame = as_frame({"id": [1.0], "y": [2.0], "d": [1.0], "t0": [2.5]})
        spec = parse_model_spec("(y M1[id], family(weibull, failure(d) ltrunc(t0)))")
        with pytest.raises(DataError, match="entry time"):
            split_outcome_rows(frame, spec)

    def test_null_family_takes_no_rows(self):
        frame = as_frame({"id": [1.0, 2.0], "y": [0.1, 0.2], "x": [1.0, 2.0]})
        spec = parse_model_spec("(y x M1[id], family(gaussian)) (x M2[id], family(null))")
        parts = split_outcome_rows(frame, spec)
        assert parts[1].rows.size == 0

    def test_row_total_per_unit_matches_n(self):
        rng = np.random.default_rng(8)
        ids = rng.integers(1, 7, size=40).astype(float)
        frame = as_frame({"id": ids, "y": rng.normal(size=40)})
        spec = parse_model_spec("(y M1[id], family(gaussian))")
        h = build_hierarchy(frame, ["id"])
        parts = split_outcome_rows(frame, spec)
        counts = np.bincount(h.row_unit[0][parts[0].rows], minlength=h.n_units(0))
        assert counts.sum() == 40
