"""Tests for the panel data model: construction invariants, CSV round trips, splitting."""

import datetime as dt

import numpy as np
import pytest

from cellcast import PanelError, SeriesPanel, SplitSpec, load_panel, split_panel, write_panel

START = dt.date(2021, 1, 1)


def make_panel(rng, n_series=4, n_steps=30):
    ids = tuple(f"s{i:02d}" for i in range(n_series))
    values = rng.uniform(0.0, 1000.0, size=(n_series, n_steps))
    return SeriesPanel(ids, START, values)


class TestSeriesPanel:
    def test_sorts_series_by_id(self):
        """Rows are reordered so series_ids come out sorted regardless of input order."""
        p = SeriesPanel(("b", "a"), START, [[1.0, 2.0], [3.0, 4.0]])
        assert p.series_ids == ("a", "b")
        np.testing.assert_array_equal(p.values, [[3.0, 4.0], [1.0, 2.0]])

    def test_values_frozen(self):
        """The stored matrix is read-only; writes raise."""
        p = SeriesPanel(("a",), START, [[1.0, 2.0]])
        with pytest.raises(ValueError):
            p.values[0, 0] = 9.0

    def test_series_lookup(self):
        """series() returns the row for an id and raises KeyError for unknown ids."""
        p = SeriesPanel(("a", "b"), START, [[1.0], [2.0]])
        np.testing.assert_array_equal(p.series("b"), [2.0])
        with pytest.raises(KeyError):
            p.series("c")

    def test_dates_axis(self):
        """dates() is a gapless daily run starting at start_date."""
        p = SeriesPanel(("a",), START, [[1.0, 2.0, 3.0]])
        assert p.dates() == (START, START + dt.timedelta(days=1), START + dt.timedelta(days=2))
        assert (p.n_series, p.n_steps) == (1, 3)

    def test_rejects_bad_construction(self):
        """Every invariant violation raises PanelError."""
        with pytest.raises(PanelError):
            SeriesPanel((), START, np.zeros((0, 3)))
        with pytest.raises(PanelError):
            SeriesPanel(("a", "a"), START, np.zeros((2, 3)))
        with pytest.raises(PanelError):
            SeriesPanel(("",), START, np.zeros((1, 3)))
        with pytest.raises(PanelError):
            SeriesPanel(("a",), START, np.zeros(3))
        with pytest.raises(PanelError):
            SeriesPanel(("a", "b"), START, np.zeros((1, 3)))
        with pytest.raises(PanelError):
            SeriesPanel(("a",), START, np.zeros((1, 0)))
        with pytest.raises(PanelError):
            SeriesPanel(("a",), START, [[1.0, np.nan]])
        with pytest.raises(PanelError):
            SeriesPanel(("a",), START, [[1.0, -2.0]])
        with pytest.raises(PanelError):
            SeriesPanel(("a",), "2021-01-01", [[1.0]])

    def test_last_day_must_fit_the_calendar(self):
        """A panel whose last day would be past date.max is a PanelError, not an
        OverflowError from dates()."""
        with pytest.raises(PanelError, match="run past 9999-12-31"):
            SeriesPanel(("a",), dt.date.max, np.zeros((1, 2)))
        assert SeriesPanel(("a",), dt.date.max, np.zeros((1, 1))).dates() == (dt.date.max,)

    def test_duplicate_ids_are_listed_sorted(self):
        """The error names every duplicated id once, in sorted order."""
        ids = ("c", "b", "a", "c", "d", "b", "c")
        with pytest.raises(PanelError) as excinfo:
            SeriesPanel(ids, START, np.zeros((len(ids), 2)))
        assert str(excinfo.value) == "duplicate series ids: ['b', 'c']"

    def test_equality_is_by_content(self):
        """Panels with identical ids, start date and bytes compare equal; any difference breaks it."""
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.0, 10.0, size=(3, 5))
        a = SeriesPanel(("x", "y", "z"), START, vals)
        b = SeriesPanel(("x", "y", "z"), START, vals.copy())
        assert a == b
        c = SeriesPanel(("x", "y", "z"), START + dt.timedelta(days=1), vals)
        assert a != c
        vals2 = vals.copy()
        vals2[0, 0] += 1.0
        assert a != SeriesPanel(("x", "y", "z"), START, vals2)


class TestSplit:
    def test_split_boundaries(self):
        """split_panel cuts at pred_start: train gets steps 1..pred_start-1, test the rest."""
        p = SeriesPanel(("a",), START, [[10.0, 20.0, 30.0, 40.0, 50.0]])
        train, test = split_panel(p, SplitSpec(pred_start=4, pred_end=5))
        np.testing.assert_array_equal(train.values, [[10.0, 20.0, 30.0]])
        np.testing.assert_array_equal(test.values, [[40.0, 50.0]])
        assert test.start_date == START + dt.timedelta(days=3)
        assert train.series_ids == test.series_ids == ("a",)

    def test_split_reassembles(self):
        """Concatenating train and test values recovers the original matrix."""
        rng = np.random.default_rng(11)
        for _ in range(20):
            n = int(rng.integers(3, 40))
            p = make_panel(rng, n_series=int(rng.integers(1, 5)), n_steps=n)
            start = int(rng.integers(2, n + 1))
            end = int(rng.integers(start, n + 1))
            train, test = split_panel(p, SplitSpec(start, end))
            joined = np.concatenate([train.values, test.values], axis=1)
            np.testing.assert_array_equal(joined, p.values[:, : end])
            assert test.n_steps == end - start + 1

    def test_split_spec_validation(self):
        """pred_start must exceed 1, pred_end must not precede it or overrun the panel."""
        with pytest.raises(PanelError):
            SplitSpec(1, 5)
        with pytest.raises(PanelError):
            SplitSpec(4, 3)
        assert SplitSpec(2, 2).horizon == 1
        assert SplitSpec(182, 212).horizon == 31
        p = SeriesPanel(("a",), START, [[1.0, 2.0, 3.0]])
        with pytest.raises(PanelError):
            split_panel(p, SplitSpec(2, 4))


class TestCsvRoundTrip:
    def test_write_then_load_is_identity(self, tmp_path):
        """write_panel followed by load_panel reproduces the panel bit for bit,
        and the text form is pinned: csv quoting for ids, repr for values."""
        rng = np.random.default_rng(123)
        for k in range(10):
            p = make_panel(rng, n_series=int(rng.integers(1, 6)), n_steps=int(rng.integers(1, 25)))
            path = str(tmp_path / f"panel{k}.csv")
            write_panel(p, path)
            q = load_panel(path)
            assert q == p
        p = SeriesPanel(("a\rb", "a\nb", " c "), START, [[1.0], [2.0], [3.0]])
        write_panel(p, str(tmp_path / "breaks.csv"))
        assert load_panel(str(tmp_path / "breaks.csv")) == p
        values = [0.0, 0.1, 5e-324, 1.5e300, 123456789.0]
        p = SeriesPanel(('c"d', "a,b"), START, [values[::-1], values])
        path = str(tmp_path / "pinned.csv")
        write_panel(p, path)
        with open(path, "rb") as fh:
            assert fh.read() == (
                b"series_id,date,value\n"
                b'"a,b",2021-01-01,0.0\n'
                b'"a,b",2021-01-02,0.1\n'
                b'"a,b",2021-01-03,5e-324\n'
                b'"a,b",2021-01-04,1.5e+300\n'
                b'"a,b",2021-01-05,123456789.0\n'
                b'"c""d",2021-01-01,123456789.0\n'
                b'"c""d",2021-01-02,1.5e+300\n'
                b'"c""d",2021-01-03,5e-324\n'
                b'"c""d",2021-01-04,0.1\n'
                b'"c""d",2021-01-05,0.0\n'
            )
        assert load_panel(path) == p

    def test_row_order_is_irrelevant(self, tmp_path):
        """Shuffling data rows leaves the loaded panel unchanged."""
        rng = np.random.default_rng(5)
        p = make_panel(rng, n_series=3, n_steps=8)
        path = str(tmp_path / "panel.csv")
        write_panel(p, path)
        with open(path) as fh:
            header, *rows = fh.read().splitlines()
        rng.shuffle(rows)
        shuffled = str(tmp_path / "shuffled.csv")
        with open(shuffled, "w") as fh:
            fh.write("\n".join([header] + rows) + "\n")
        assert load_panel(shuffled) == p

    def write_lines(self, tmp_path, lines):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n" if lines else "")
        return path

    def test_rejects_malformed_files(self, tmp_path):
        """Each malformed input is rejected with a message naming the problem;
        a rejected row is named by its line as PATH:LINE:."""
        header = "series_id,date,value"
        cases = [
            ([], 1, "empty file"),
            (["wrong,header,here", "a,2021-01-01,1.0"], 1, "expected header"),
            ([header], None, "no data rows"),
            ([header, "a,2021-01-01"], 2, "expected 3 fields"),
            ([header, ",2021-01-01,1.0"], 2, "empty series_id"),
            ([header, "a,01/02/2021,1.0"], 2, "bad date"),
            ([header, "a,2021-01-01,abc"], 2, "bad value"),
            ([header, "a,2021-01-01,nan"], 2, "non-finite value"),
            ([header, "a,2021-01-01,1.0", "", "a,2021-01-02,inf"], 4, "non-finite value"),
            ([header, "a,2021-01-01,-3.0"], 2, "negative value"),
            ([header, "a,2021-01-01,1.0", "a,2021-01-01,2.0"], 3, "duplicate entry"),
            ([header, "a,2021-01-01,1.0", "a,2021-01-02,1.0", "b,2021-01-01,1.0"], None, "unequal series lengths"),
            ([header, "a,2021-01-01,1.0", "b,2021-01-02,1.0"], None, "series date ranges differ"),
            ([header, "a,2021-01-01,1.0", "a,2021-01-03,1.0", "b,2021-01-01,1.0", "b,2021-01-02,1.0"], None, "date gap"),
        ]
        for lines, line, phrase in cases:
            path = self.write_lines(tmp_path, lines)
            with pytest.raises(PanelError, match=phrase) as excinfo:
                load_panel(path)
            if line is not None:
                assert str(excinfo.value).startswith(f"{path}:{line}: ")

    def test_rejects_date_gap(self, tmp_path):
        """A missing day inside a series is reported as a date gap."""
        path = self.write_lines(
            tmp_path,
            [
                "series_id,date,value",
                "a,2021-01-01,1.0",
                "a,2021-01-02,1.0",
                "a,2021-01-04,1.0",
                "a,2021-01-05,1.0",
            ],
        )
        with pytest.raises(PanelError, match="date gap"):
            load_panel(path)

    def test_blank_lines_ignored(self, tmp_path):
        """Blank lines between rows do not affect parsing."""
        path = self.write_lines(
            tmp_path,
            ["series_id,date,value", "a,2021-01-01,1.5", "", "a,2021-01-02,2.5"],
        )
        p = load_panel(path)
        np.testing.assert_array_equal(p.values, [[1.5, 2.5]])

    @pytest.mark.parametrize(
        "row, phrase",
        [
            ("a,20210101,1.0", "bad date '20210101'"),
            ("a,2021-W01-5,1.0", "bad date '2021-W01-5'"),
            ("a,2021-01-01,1_5", "bad value '1_5'"),
            ("a,2021-01-01, 1.5", "bad value ' 1.5'"),
            ("a,2021-01-01,1.5 ", "bad value '1.5 '"),
            ("a,2021-01-01,\u0661\u0665", "bad value"),
        ],
    )
    def test_rejects_text_no_writer_writes(self, tmp_path, row, phrase):
        """A date must be exactly YYYY-MM-DD, on every supported Python (3.11's
        fromisoformat also reads 20210101 and ISO week dates), and a value must be
        plain ASCII text without underscores or surrounding whitespace, which
        float() would read.  Each is one PATH:LINE: error."""
        path = self.write_lines(tmp_path, ["series_id,date,value", row])
        with pytest.raises(PanelError, match=phrase) as excinfo:
            load_panel(path)
        assert str(excinfo.value).startswith(f"{path}:2: ")
