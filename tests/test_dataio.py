import csv
import gc
import hashlib
import re

import numpy as np
import pytest

import cesurv.dataio as dataio
from cesurv.dataio import DatasetSpec, bundled_dataset_spec, load_dataset, save_dataset
from cesurv.errors import DatasetLoadError, InvalidInputError
from cesurv.survsim import SurvivalDataset


def save_per_row(ds, path):
    """Reference writer: one row at a time, one value at a time."""
    def fmt(v):
        if v == 0 and np.signbit(v):
            return "-0"
        return str(int(v)) if float(v).is_integer() else repr(float(v))

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([*ds.names, "time", "status"])
        for i in range(ds.n_rows):
            writer.writerow(
                [fmt(v) for v in ds.covariates[i]] + [fmt(ds.time[i]), str(int(ds.status[i]))]
            )


def load_per_token(spec):
    """Reference loader: (covariates, time, status, names, categorical maps,
    raw rows, dropped rows), parsing every token on its own."""
    def num(t):
        try:
            return float(t)
        except ValueError:
            return None

    with open(spec.path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        fh.seek(0)
        delim = max(",\t;", key=first.count)
        rows = [[t.strip() for t in r] for r in csv.reader(fh, delimiter=delim) if r]
    header, body = rows[0], rows[1:]
    col = {name: [r[i] for r in body] for i, name in enumerate(header)}
    names = spec.covariate_cols or tuple(
        c for c in header
        if c not in (spec.time_col, spec.status_col)
        and all(num(t) is not None for t in col[c] if t not in ("", "NA"))
    )
    screen = [spec.time_col, spec.status_col, *names, *spec.na_screen_cols]
    kept = [i for i in range(len(body)) if all(col[c][i] not in ("", "NA") for c in screen)]
    event = str(spec.status_event_value)
    status = [
        int(num(t) == num(event)) if num(t) is not None and num(event) is not None else int(t == event)
        for t in (col[spec.status_col][i] for i in kept)
    ]
    covariates, maps = [], {}
    for c in names:
        tokens = [col[c][i] for i in kept]
        if all(num(t) is not None for t in tokens):
            covariates.append([num(t) for t in tokens])
        else:
            maps[c] = {}
            for t in tokens:
                maps[c].setdefault(t, len(maps[c]) + 1)
            covariates.append([maps[c][t] for t in tokens])
    time = [num(col[spec.time_col][i]) for i in kept]
    return (np.array(covariates, dtype=float).T.reshape(len(kept), len(names)), np.array(time),
            np.array(status), list(names), maps, len(body), len(body) - len(kept))


def block_sizes(monkeypatch):
    """Run the loop body once per block size: one record, three, the default."""
    for rows in (1, 3, dataio._BLOCK_ROWS):
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", rows)
        yield rows


def assert_matches_per_token_load(spec):
    ds = load_dataset(spec)
    x, time, status, names, maps, n_raw, n_dropped = load_per_token(spec)
    assert ds.names == names
    np.testing.assert_array_equal(ds.covariates, x)
    np.testing.assert_array_equal(ds.time, time)
    np.testing.assert_array_equal(ds.status, status)
    assert ds.attrs["categorical_maps"] == maps
    assert (ds.attrs["n_raw_rows"], ds.attrs["n_dropped_rows"]) == (n_raw, n_dropped)
    return ds


class TestBundledData:
    def test_cancer_complete_cases(self):
        ds = load_dataset(bundled_dataset_spec("cancer"))
        assert ds.attrs["n_raw_rows"] == 228
        assert ds.n_rows == 167
        assert ds.attrs["n_dropped_rows"] == 61
        assert ds.names == ["age", "sex", "ph.ecog", "ph.karno", "pat.karno", "meal.cal", "wt.loss"]
        assert ds.n_events == 120  # status==2 mapped to event among complete rows

    def test_veteran_loads_fully(self):
        ds = load_dataset(bundled_dataset_spec("veteran"))
        assert ds.n_rows == 137 and ds.attrs["n_dropped_rows"] == 0
        assert ds.n_events == 128
        assert ds.attrs["categorical_maps"]["celltype"] == {
            "squamous": 1, "smallcell": 2, "adeno": 3, "large": 4
        }
        assert ds.names == ["trt", "celltype", "karno", "diagtime", "age", "prior"]

    def test_unknown_bundle_rejected(self):
        with pytest.raises(InvalidInputError):
            bundled_dataset_spec("titanic")


class TestLoadDataset:
    def write(self, tmp_path, text, name="data.csv"):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return p

    def test_default_covariates_are_remaining_numeric(self, tmp_path):
        p = self.write(tmp_path, "time,status,a,b,note\n1,1,0.5,2,hi\n2,0,1.5,3,lo\n")
        ds = load_dataset(DatasetSpec(path=p))
        assert ds.names == ["a", "b"]  # free-text column left out by default

    def test_explicit_text_covariate_coded_by_first_appearance(self, tmp_path):
        p = self.write(tmp_path, "time,status,grp\n1,1,low\n2,0,high\n3,1,low\n")
        ds = load_dataset(DatasetSpec(path=p, covariate_cols=("grp",)))
        np.testing.assert_array_equal(ds.covariates[:, 0], [1.0, 2.0, 1.0])
        assert ds.attrs["categorical_maps"]["grp"] == {"low": 1, "high": 2}

    def test_missing_tokens_dropped(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,1,0.5\n2,0,NA\n3,1,\n4,1,2.5\n")
        ds = load_dataset(DatasetSpec(path=p))
        assert ds.n_rows == 2 and ds.attrs["n_dropped_rows"] == 2

    def test_na_screen_columns_extend_the_drop(self, tmp_path):
        p = self.write(tmp_path, "time,status,a,extra\n1,1,0.5,NA\n2,0,1.5,7\n")
        ds = load_dataset(DatasetSpec(path=p, covariate_cols=("a",), na_screen_cols=("extra",)))
        assert ds.n_rows == 1

    def test_one_row_file_is_valid(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n5,1,1.0\n")
        ds = load_dataset(DatasetSpec(path=p))
        assert ds.n_rows == 1
        # One row of time is a contiguous view of the row buffer, which the
        # covariate matrix then overwrites in place.
        assert (ds.time.tolist(), ds.status.tolist(), ds.covariates.tolist()) == ([5.0], [1], [[1.0]])

    def test_status_event_value_mapping(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,2,0.5\n2,1,1.5\n")
        ds = load_dataset(DatasetSpec(path=p, status_event_value=2))
        np.testing.assert_array_equal(ds.status, [1, 0])

    def test_string_status_values(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,dead,0.5\n2,alive,1.5\n")
        ds = load_dataset(DatasetSpec(path=p, status_event_value="dead"))
        np.testing.assert_array_equal(ds.status, [1, 0])

    def test_missing_column_error(self, tmp_path):
        p = self.write(tmp_path, "time,flag,a\n1,1,0.5\n")
        with pytest.raises(DatasetLoadError, match="status"):
            load_dataset(DatasetSpec(path=p))

    def test_missing_column_found_before_a_short_row(self, tmp_path):
        p = self.write(tmp_path, "time,flag,a\n1,1\n2,0,1.5\n")
        with pytest.raises(DatasetLoadError, match="required column 'status' not in header"):
            load_dataset(DatasetSpec(path=p))

    def test_short_row_found_before_a_later_byte_that_is_not_utf8(self, tmp_path, monkeypatch):
        # The byte comes 10^4 records after the short row on line 3, beyond
        # the text a block of records decodes.
        rows = "".join(f"{i + 3},1,0.5\n" for i in range(10_000)).encode()
        p = tmp_path / "faults.csv"
        p.write_bytes(b"time,status,a\n1,1,0.5\n2,0\n" + rows + b"3,0,caf\xe9\n")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match="line 3 has 2 fields, expected 3"):
                load_dataset(DatasetSpec(path=p))

    def test_file_that_is_not_utf8_names_the_file(self, tmp_path, monkeypatch):
        p = tmp_path / "latin1.csv"
        p.write_bytes(b"time,status,a\n1,1,0.5\n2,0,caf\xe9\n")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: not UTF-8 text")):
                load_dataset(DatasetSpec(path=p))

    def test_field_over_the_csv_limit_names_file_and_line(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,1,0.5\n2,0," + "9" * (csv.field_size_limit() + 1) + "\n")
        with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: line 3: field larger than field limit")):
            load_dataset(DatasetSpec(path=p))

    def test_field_over_the_limit_found_before_a_short_row_of_its_block(self, tmp_path, monkeypatch):
        # Field counts are checked once a block is collected, so a short row
        # on line 3 is reported first only when line 4 is in a later block.
        p = self.write(tmp_path, "time,status,a\n1,1,0.5\n2,0\n3,1," + "9" * (csv.field_size_limit() + 1) + "\n")
        for rows in block_sizes(monkeypatch):
            expected = "line 3 has 2 fields" if rows == 1 else "line 4: field larger than field limit"
            with pytest.raises(DatasetLoadError, match=expected):
                load_dataset(DatasetSpec(path=p))

    def test_nonpositive_time_names_line(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,1,0.5\n0,1,1.5\n")
        with pytest.raises(DatasetLoadError, match="line 3"):
            load_dataset(DatasetSpec(path=p))

    def test_unparseable_time_names_line_and_column(self, tmp_path):
        p = self.write(tmp_path, "time,status,a\n1,1,0.5\noops,1,1.5\n")
        with pytest.raises(DatasetLoadError, match="line 3.*time"):
            load_dataset(DatasetSpec(path=p))

    def test_unparseable_explicit_numeric_covariate(self, tmp_path):
        # a covariate listed explicitly may still be categorical text, but the
        # time/status columns must be numeric
        p = self.write(tmp_path, "time,status,a\nx,1,0.5\n")
        with pytest.raises(DatasetLoadError):
            load_dataset(DatasetSpec(path=p))

    def test_tab_delimited(self, tmp_path):
        p = self.write(tmp_path, "time\tstatus\ta\n1\t1\t0.5\n2\t0\t1.5\n")
        ds = load_dataset(DatasetSpec(path=p))
        assert ds.n_rows == 2 and ds.names == ["a"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetLoadError):
            load_dataset(DatasetSpec(path=tmp_path / "nope.csv"))

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            DatasetSpec(path="x.csv", time_col="t", status_col="t")
        with pytest.raises(InvalidInputError):
            DatasetSpec(path="x.csv", covariate_cols=("time",))
        with pytest.raises(InvalidInputError, match=r"unknown DatasetSpec fields: \['na_policy'\]"):
            DatasetSpec.from_dict({"path": "x.csv", "na_policy": "drop_rows"})
        with pytest.raises(InvalidInputError, match="covariate_cols names a column more than once"):
            DatasetSpec(path="x.csv", covariate_cols=("b", "a", "b"))

    @pytest.mark.parametrize("event", [float("nan"), float("-inf"), "inf", 10**400, True, [1]],
                             ids=["nan", "minus_inf", "inf_text", "int_beyond_float", "bool", "list"])
    def test_spec_rejects_unusable_event_value(self, event):
        # nan and inf match no status; a bool or a list would be matched as its text.
        with pytest.raises(InvalidInputError, match="status_event_value must be a string or a number that"):
            DatasetSpec(path="x.csv", status_event_value=event)

    @pytest.mark.parametrize("raw, value", [("2", 2), ("2.0", 2), ("2.5", 2.5), ("dead", "dead"), (np.int64(2), 2)])
    def test_event_value_read_as_number_when_it_is_one(self, raw, value):
        event = DatasetSpec(path="x.csv", status_event_value=raw).status_event_value
        assert event == value and type(event) is type(value)

    @pytest.mark.parametrize("text, covariates, shown", [
        ("time,status,a,b\n1,1,nan,NA\n2,0,0.5,1\n\n3,1,-inf,2\n", None,
         "line 5, column 'a': -inf is not a finite number"),
        ("time,status,a\n1,1,0.5\n2,0,1.5\ninf,1,2\n", None, "line 4, column 'time': inf is not a finite number"),
        ("time,status,g,b\n1,1,x,NA\n2,0,1,1\n3,1,NaN,2\n", ("g", "b"),
         "line 4, column 'g': nan is not a finite number"),
    ], ids=["covariate", "time", "covariate_read_as_tokens"])
    def test_non_finite_kept_value_names_line_and_column(self, tmp_path, monkeypatch, text, covariates, shown):
        # nan and inf parse as numbers.  A row dropped for a missing value
        # does not count, whether its token is nan or text.
        p = self.write(tmp_path, text)
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: {shown}")):
                load_dataset(DatasetSpec(path=p, covariate_cols=covariates))

    @pytest.mark.parametrize("text, shown", [
        ("time,status,a,a\n1,1,0.5,1\n", "duplicate column names in header"),
        ("time status a\n1 1 0.5\n", "could not find a delimiter in the header row"),
        ("time,status,a\n1,1,NA\n2,,0.5\n", "no rows left after dropping missing values"),
        ("time,status,a\n", "no rows left after dropping missing values"),
        ("time,status,a\n\n\n", "no rows left after dropping missing values"),
    ], ids=["duplicate_header_name", "no_delimiter", "every_row_dropped", "header_only", "blank_lines_only"])
    def test_unusable_file_names_the_file(self, tmp_path, text, shown):
        p = self.write(tmp_path, text)
        with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: {shown}")):
            load_dataset(DatasetSpec(path=p))

    @pytest.mark.parametrize("covariates", [(), None, ("b", "a")], ids=["none", "default", "named"])
    def test_spec_dict_round_trip(self, covariates):
        spec = DatasetSpec(path="x.csv", covariate_cols=covariates, na_screen_cols=("c",))
        assert DatasetSpec.from_dict(spec.to_dict()) == spec


class TestStatusColumn:
    """A kept status is the event value or the column's one other value."""

    @staticmethod
    def write(tmp_path, statuses):
        p = tmp_path / "status.csv"
        p.write_text("time,status,a\n" + "".join(f"{i + 1},{s},{i}\n" for i, s in enumerate(statuses)))
        return p

    @pytest.mark.parametrize("statuses, event, shown", [
        (["1", "nan", "7"], 1, "line 3, column 'status': nan is neither the event value 1 nor the other value 7.0"),
        (["1", "0", "1", "7"], 1, "line 5, column 'status': 7.0 is neither the event value 1 nor the other value 0.0"),
        (["1", "inf", "1"], 1, "line 3, column 'status': inf is not a finite number"),
        (["0", "1", "0"], 2, "line 3, column 'status': 1.0 is neither the event value 2 nor the other value 0.0"),
        (["0", "1"], "dead", "line 3, column 'status': 1.0 is neither the event value 'dead' nor the other value 0.0"),
        (["dead", "alive", "dead"], "dead ",
         "line 3, column 'status': 'alive' is neither the event value 'dead ' nor the other value 'dead'"),
        (["1.0", "alive", "-inf"], 1,
         "line 4, column 'status': -inf is neither the event value 1 nor the other value 'alive'"),
        (["alive", "0", "dead"], "dead", "line 3, column 'status': 0.0 is neither the event value 'dead' nor the "
                                         "other value 'alive'"),
    ], ids=["found_file", "third_code", "inf", "mistyped_number", "text_event_on_numbers", "mistyped_text",
            "mixed_minus_inf", "mixed_number_beside_text"])
    def test_status_outside_two_values_names_line_and_column(self, tmp_path, monkeypatch, statuses, event, shown):
        # Each once loaded with the stray statuses read as censored.
        p = self.write(tmp_path, statuses)
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: {shown}")):
                load_dataset(DatasetSpec(path=p, status_event_value=event))

    @pytest.mark.parametrize("statuses, event, expected", [
        (["0", "1", "1", "0"], 1, [0, 1, 1, 0]),
        (["1", "2.0", " 2 ", "1"], 2, [0, 1, 1, 0]),
        (["1", "1", "1"], 1, [1, 1, 1]),
        (["0", "0.0", "-0"], 1, [0, 0, 0]),
        (["dead", "alive", "dead"], "dead", [1, 0, 1]),
        (["alive", "alive"], "dead", [0, 0]),
        (["1.0", "alive", "1"], 1, [1, 0, 1]),
        (["alive", "1.0", "alive", "1"], "alive", [1, 0, 1, 0]),
        (["0", "x", "x", "0.0"], "x", [0, 1, 1, 0]),
    ], ids=["zero_one", "one_two", "all_events", "one_other_value", "dead_alive", "all_censored_text",
            "number_event_beside_text", "text_event_beside_number", "text_event_beside_zero"])
    def test_two_valued_column_decodes_as_before(self, tmp_path, monkeypatch, statuses, event, expected):
        p = self.write(tmp_path, statuses)
        spec = DatasetSpec(path=p, status_event_value=event)
        for _ in block_sizes(monkeypatch):
            ds = assert_matches_per_token_load(spec)
            assert ds.status.tolist() == expected and ds.status.dtype == int

    def test_dropped_row_status_is_not_checked(self, tmp_path, monkeypatch):
        p = tmp_path / "status.csv"
        p.write_text("time,status,a\n1,1,0\n2,nan,NA\n3,7,\n4,0,3\n")
        for _ in block_sizes(monkeypatch):
            assert assert_matches_per_token_load(DatasetSpec(path=p)).status.tolist() == [1, 0]


class TestRoundTrip:
    def test_save_load_identical(self, tmp_path):
        ds = load_dataset(bundled_dataset_spec("cancer"))
        out = tmp_path / "rt.csv"
        save_dataset(ds, out)
        back = load_dataset(DatasetSpec(path=out))
        np.testing.assert_array_equal(back.covariates, ds.covariates)
        np.testing.assert_array_equal(back.time, ds.time)
        np.testing.assert_array_equal(back.status, ds.status)
        assert back.names == ds.names

    def test_fractional_values_survive(self, tmp_path):
        from cesurv.survsim import SurvivalDataset

        rng = np.random.default_rng(3)
        ds = SurvivalDataset(rng.standard_normal((20, 2)), rng.random(20) + 0.25,
                             rng.integers(0, 2, 20), ["u", "v"])
        out = tmp_path / "rt.csv"
        save_dataset(ds, out)
        back = load_dataset(DatasetSpec(path=out))
        np.testing.assert_array_equal(back.covariates, ds.covariates)
        np.testing.assert_array_equal(back.time, ds.time)

    @pytest.mark.parametrize("name", ["time", "status"])
    def test_covariate_named_like_a_file_column_is_rejected_unwritten(self, tmp_path, name):
        # Its header would repeat the name, which load rejects as a duplicate.
        ds = SurvivalDataset(np.ones((3, 2)), np.ones(3), np.ones(3, dtype=int), [name, "x"])
        out = tmp_path / "rt.csv"
        with pytest.raises(InvalidInputError, match=re.escape(f"covariate names [{name!r}] clash")):
            save_dataset(ds, out)
        assert not out.exists()


class TestColumnarIO:
    """The block-wise writer and the columnar reader against per-value references."""

    SPECIAL = (-0.0, 1e20, 2.0**53 + 2, 5e-324, 1e300, -1e300, 1e-300, -1e-300, 0.1, -7.0, 1 / 3)

    def special_dataset(self, n):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((n, 3))
        x[:, 1] = np.round(x[:, 1] * 4)
        x[:, 2] = rng.choice(self.SPECIAL, n)
        # Specials also at the start and across the first block boundary.
        for start in (0, 8190):
            stop = min(start + len(self.SPECIAL), n)
            x[start:stop, 0] = self.SPECIAL[: max(stop - start, 0)]
        time = rng.choice((5e-324, 1e-300, 1.0, 2.0**53 + 2, 1e20, 2.5), n)
        return SurvivalDataset(x, time, rng.integers(0, 2, n), ["a", "b,c", 'd"e'])

    @pytest.mark.parametrize("n", [1, 8192, 20000])
    def test_save_bytes_match_per_row_writer(self, tmp_path, n, monkeypatch):
        ds = self.special_dataset(n)
        save_per_row(ds, tmp_path / "row.csv")
        for _ in block_sizes(monkeypatch):
            save_dataset(ds, tmp_path / "block.csv")
            assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "row.csv").read_bytes()

    def test_special_values_round_trip(self, tmp_path, monkeypatch):
        ds = self.special_dataset(20000)
        for _ in block_sizes(monkeypatch):
            save_dataset(ds, tmp_path / "rt.csv")
            back = load_dataset(DatasetSpec(path=tmp_path / "rt.csv"))
            assert back.names == ds.names
            np.testing.assert_array_equal(back.covariates, ds.covariates)
            np.testing.assert_array_equal(back.time, ds.time)
            np.testing.assert_array_equal(back.status, ds.status)

    @staticmethod
    def messy_table(n, delim):
        rng = np.random.default_rng(11)
        lines = [delim.join(["time", "status", "a", "b", "grp", "note", "extra"])]
        for i in range(n):
            a = repr(float(rng.standard_normal()))
            b = str(int(rng.integers(0, 4)))
            if i > n - 40 and i % 3 == 0:
                a = "NA"
            if i > n - 40 and i % 5 == 1:
                b = ""
            extra = "NA" if i == n - 2 else str(i)
            status = ("dead", "alive")[i % 2]
            lines.append(delim.join([
                f"  {1 + i % 17}.5 ", status, f" {a}", f"{b}  ", ("lo", "hi", "mid")[i % 3],
                f"w{i}", extra,
            ]))
            if i == n // 2:
                lines.append("")  # a blank line is skipped but still counted
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("delim", [",", "\t"])
    @pytest.mark.parametrize("spec_args", [
        dict(status_event_value="dead"),
        dict(status_event_value="dead", covariate_cols=("grp", "a", "b"), na_screen_cols=("extra",)),
        dict(status_event_value="alive", covariate_cols=("note",)),
    ])
    def test_load_matches_per_token_parse(self, tmp_path, delim, spec_args, monkeypatch):
        p = tmp_path / "messy.csv"
        p.write_text(self.messy_table(300, delim), encoding="utf-8")
        spec = DatasetSpec(path=p, **spec_args)
        for _ in block_sizes(monkeypatch):
            ds = assert_matches_per_token_load(spec)
            assert ds.attrs["n_dropped_rows"] > 0 or "covariate_cols" in spec_args

    def test_numeric_status_matches_per_token_parse(self, tmp_path, monkeypatch):
        p = tmp_path / "num.csv"
        p.write_text("time,status,a\n1,2.0,0.5\n2, 1 ,1.5\n3,2,NA\n4,2,7\n", encoding="utf-8")
        spec = DatasetSpec(path=p, status_event_value=2)
        for _ in block_sizes(monkeypatch):
            ds = load_dataset(spec)
            np.testing.assert_array_equal(ds.status, load_per_token(spec)[2])
            np.testing.assert_array_equal(ds.status, [1, 0, 1])

    def test_unparseable_token_deep_in_large_file_names_line_and_column(self, tmp_path, monkeypatch):
        n = 100_000
        rng = np.random.default_rng(5)
        time = [repr(float(t)) for t in rng.random(n) + 0.5]
        time[49_999] = "1.2.3"  # data row 50000 is line 50001
        rows = [f"{t},1,{i % 7}" for i, t in enumerate(time)]
        p = tmp_path / "big.csv"
        p.write_text("time,status,a\n" + "\n".join(rows) + "\n", encoding="utf-8")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match=r"line 50001, column 'time': cannot parse '1\.2\.3'"):
                load_dataset(DatasetSpec(path=p))

    def test_line_numbers_count_blank_and_dropped_rows(self, tmp_path, monkeypatch):
        p = tmp_path / "gaps.csv"
        q = tmp_path / "gaps_text.csv"
        p.write_text("time,status,a\n1,1,0.5\n\n2,1,NA\n\n0,1,1.5\n", encoding="utf-8")
        q.write_text("time,status,a\n1,1,0.5\n\nx,1,NA\n\noops,1,1.5\n", encoding="utf-8")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match="line 6, column 'time': time must be positive"):
                load_dataset(DatasetSpec(path=p))
            with pytest.raises(DatasetLoadError, match="line 6, column 'time': cannot parse 'oops'"):
                load_dataset(DatasetSpec(path=q))

    def test_wrong_field_count_names_line(self, tmp_path, monkeypatch):
        p = tmp_path / "short.csv"
        p.write_text("time,status,a\n1,1,0.5\n\n2,0\n", encoding="utf-8")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match="line 4 has 2 fields, expected 3"):
                load_dataset(DatasetSpec(path=p))

    def test_line_numbers_count_line_breaks_in_quoted_fields(self, tmp_path, monkeypatch):
        # The record after a quoted field that holds a line break starts on
        # line 4, not on the third line the records alone would give.
        short = tmp_path / "short.csv"
        short.write_text('time,status,a\n1,1,"x\ny"\n2,0\n', encoding="utf-8")
        bad_time = tmp_path / "bad_time.csv"
        bad_time.write_text('time,status,a\n1,1,"x\ny"\noops,0,z\n', encoding="utf-8")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match="line 4 has 2 fields, expected 3"):
                load_dataset(DatasetSpec(path=short))
            with pytest.raises(DatasetLoadError, match="line 4, column 'time': cannot parse 'oops'"):
                load_dataset(DatasetSpec(path=bad_time))

    @pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
    def test_gc_state_restored_after_load(self, tmp_path, enabled):
        # The read pauses the cyclic collector; it must come back as it was,
        # also when the load fails.
        good = tmp_path / "good.csv"
        good.write_text("time,status,a\n1,1,0.5\n2,0,1.5\n", encoding="utf-8")
        short = tmp_path / "short.csv"
        short.write_text("time,status,a\n1,1,0.5\n2,0\n", encoding="utf-8")
        was_enabled = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            load_dataset(DatasetSpec(path=good))
            assert gc.isenabled() is enabled
            with pytest.raises(DatasetLoadError, match="line 3 has 2 fields"):
                load_dataset(DatasetSpec(path=short))
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was_enabled else gc.disable()

    def test_digest_is_sha256_of_file_bytes(self, tmp_path, monkeypatch):
        p = tmp_path / "crlf.csv"
        p.write_bytes(b"time;status;a\r\n1;1;0.5\r\n2;0;1.5\r\n")
        for _ in block_sizes(monkeypatch):
            ds = load_dataset(DatasetSpec(path=p))
            assert ds.attrs["source_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
            np.testing.assert_array_equal(ds.covariates[:, 0], [0.5, 1.5])

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path, monkeypatch):
        # Excel's "CSV UTF-8" files start with a byte-order mark.  The digest
        # stays the one of the raw bytes, mark included.
        text = "time,status,a,grp\n1,1,0.5,1\n2,0,1.5,lo\n3,1,NA,hi\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        bad = text + "oops,1,2.5,lo\n"
        bad_plain, bad_marked = tmp_path / "bad_plain.csv", tmp_path / "bad_marked.csv"
        bad_plain.write_bytes(bad.encode())
        bad_marked.write_bytes(b"\xef\xbb\xbf" + bad.encode())
        for _ in block_sizes(monkeypatch):
            a, b = (load_dataset(DatasetSpec(path=p, covariate_cols=("a", "grp"))) for p in (plain, marked))
            assert a.names == b.names == ["a", "grp"]
            for name in ("covariates", "time", "status"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
            assert a.attrs["categorical_maps"] == b.attrs["categorical_maps"] == {"grp": {"1": 1, "lo": 2}}
            assert a.attrs["n_dropped_rows"] == b.attrs["n_dropped_rows"] == 1
            assert b.attrs["source_sha256"] == hashlib.sha256(marked.read_bytes()).hexdigest()
            assert a.attrs["source_sha256"] != b.attrs["source_sha256"]
            for p in (bad_plain, bad_marked):
                with pytest.raises(DatasetLoadError, match=r"line 5.*'time'"):
                    load_dataset(DatasetSpec(path=p))


class TestBlockwiseRead:
    """Columns whose form changes between blocks, against the per-token reference."""

    @staticmethod
    def write(tmp_path, lines, name="blocks.csv"):
        p = tmp_path / name
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return p

    @staticmethod
    def recording_passes(monkeypatch, header):
        """The set of column names each pass of a load keeps."""
        passes = []
        read_columns = dataio._read_columns

        def recording(path, plan):
            passes.append(set(plan(header)))
            return read_columns(path, plan)

        monkeypatch.setattr(dataio, "_read_columns", recording)
        return passes

    def test_column_turning_to_text_late_takes_a_second_pass(self, tmp_path, monkeypatch):
        # 'grp' is numeric for 7 records, then text; 'late' turns to text at
        # its last record; 'status' holds text only in a row dropped for its
        # missing time.
        header = ["time", "status", "grp", "a", "late", "b"]
        rows = [f"{'NA' if i == 8 else i + 1},{'x' if i == 8 else i % 2},{i % 3 if i < 7 else 'g'},{i},"
                f"{i if i < 9 else 'z'},{'NA' if i == 8 else i}" for i in range(10)]
        p = self.write(tmp_path, [",".join(header), *rows])
        passes = self.recording_passes(monkeypatch, header)
        for block_rows in block_sizes(monkeypatch):
            for covariates, reread in ((("grp", "a"), {"grp", "status"}),
                                       (("late", "b"), {"late", "status"}),
                                       (None, {"status"})):  # text is never a default covariate
                passes.clear()
                ds = assert_matches_per_token_load(DatasetSpec(path=p, covariate_cols=covariates))
                assert passes[1:] == ([reread] if block_rows < 10 else [])
                assert ds.attrs["source_sha256"] == hashlib.sha256(p.read_bytes()).hexdigest()
            assert ds.names == ["a", "b"]

    def test_missing_only_in_a_late_block(self, tmp_path, monkeypatch):
        rows = [f"{i + 1},1,{'NA' if i == 9 else i * 0.5},{' ' if i == 8 else i}" for i in range(10)]
        p = self.write(tmp_path, ["time,status,a,b", *rows])
        for _ in block_sizes(monkeypatch):
            ds = assert_matches_per_token_load(DatasetSpec(path=p))
            assert ds.n_rows == 8

    def test_blank_lines_on_block_boundaries(self, tmp_path, monkeypatch):
        # Blank lines first, at each multiple of 3 and last: some blocks hold
        # no record at all, and line numbers still count them.
        lines = ["time,status,a", ""]
        for i in range(12):
            lines.append(f"{i + 1},1,{i}" if i != 10 else "0,1,5")
            if i % 3 == 2:
                lines.append("")
        p = self.write(tmp_path, lines + [""])
        q = self.write(tmp_path, [line for line in lines if line != "0,1,5"] + ["", ""], "valid.csv")
        for _ in block_sizes(monkeypatch):
            with pytest.raises(DatasetLoadError, match="line 16, column 'time': time must be positive"):
                load_dataset(DatasetSpec(path=p))
            assert assert_matches_per_token_load(DatasetSpec(path=q)).n_rows == 11

    def test_separator_padded_number(self, tmp_path, monkeypatch):
        # float() rejects the \x1c-\x1f separators that str.strip() removes.
        p = self.write(tmp_path, ["time,status,a", "1,1,\x1c2.5\x1f", "2,0, 3 ", "3,1,\x1d4"])
        for _ in block_sizes(monkeypatch):
            ds = assert_matches_per_token_load(DatasetSpec(path=p))
            np.testing.assert_array_equal(ds.covariates[:, 0], [2.5, 3.0, 4.0])

    def test_file_changed_between_passes_is_an_error(self, tmp_path, monkeypatch):
        # A row added, or the column to read again dropped, before the second pass.
        edits = (lambda text: text + "4,1,hi\n",
                 lambda text: "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines()))
        read_columns = dataio._read_columns

        def edit_before_second_pass(path, plan):
            if passes:
                path.write_text(edit(path.read_text()), encoding="utf-8")
            passes.append(path)
            return read_columns(path, plan)

        monkeypatch.setattr(dataio, "_read_columns", edit_before_second_pass)
        monkeypatch.setattr(dataio, "_BLOCK_ROWS", 1)
        for edit in edits:
            p = self.write(tmp_path, ["time,status,grp", "1,1,1", "2,0,2", "3,1,lo"])
            passes = []
            with pytest.raises(DatasetLoadError, match=re.escape(f"{p}: file changed between the two passes")):
                load_dataset(DatasetSpec(path=p, covariate_cols=("grp",)))
            assert len(passes) == 2

    def test_load_holds_outputs_plus_one_block(self, tmp_path, traced_peak):
        # 10^5 rows x 9 columns: the arrays returned take 6.9 MiB; reading the
        # whole file into per-row token lists first peaked at 71.9 MiB, and
        # holding every parsed column beside the matrix at 16.4 MiB.  The
        # table is loaded with every row kept, then with covariate ``a``
        # missing in every 20th record.
        rng = np.random.default_rng(8)
        n = 100_000
        x = np.column_stack([rng.standard_normal((n, 4)), rng.integers(0, 5, (n, 3))])
        ds = SurvivalDataset(x, rng.random(n) + 0.5, rng.integers(0, 2, n), list("abcdefg"))
        p, dropped = tmp_path / "wide.csv", tmp_path / "wide-dropped.csv"
        save_dataset(ds, p)
        header, *lines = p.read_text().splitlines()
        for i in range(19, n, 20):
            lines[i] = "NA" + lines[i][lines[i].index(","):]
        dropped.write_text("\n".join([header, *lines]) + "\n")
        for path, kept in ((p, np.arange(n)), (dropped, np.flatnonzero(np.arange(n) % 20 != 19))):
            back, peak = traced_peak(lambda path=path: load_dataset(DatasetSpec(path=path)))
            np.testing.assert_array_equal(back.covariates, ds.covariates[kept])
            np.testing.assert_array_equal(back.time, ds.time[kept])
            assert back.attrs["n_dropped_rows"] == n - kept.size
            assert peak < 12 * 2**20, path.name


class TestRowBuffer:
    """The row buffer the numbers go into, sized from the line count, against the reference."""

    @staticmethod
    def write(tmp_path, text, name="rows.csv"):
        p = tmp_path / name
        p.write_bytes(text.encode("utf-8"))
        return p

    TABLE = ["time,status,a,grp,b", "1,1,0.5,x,NA", "2,0,-0,y,3", "3,1,2.5,x,4", "4,1,,z,5", "5,0,1e3,y,6"]

    @pytest.mark.parametrize("newline, last", [("\n", "\n"), ("\n", ""), ("\r\n", "\r\n"), ("\r", "\r"),
                                               ("\n", "\n\n\n")],
                             ids=["lf", "no_final_newline", "crlf", "cr_only", "trailing_blank_lines"])
    @pytest.mark.parametrize("covariates", [None, ("grp", "a")], ids=["default", "text_first"])
    def test_line_endings_and_specs_match_per_token_load(self, tmp_path, monkeypatch, newline, last,
                                                        covariates):
        p = self.write(tmp_path, newline.join(self.TABLE) + last)
        for _ in block_sizes(monkeypatch):
            ds = assert_matches_per_token_load(DatasetSpec(path=p, covariate_cols=covariates))
            assert ds.covariates.flags.c_contiguous and ds.covariates.flags.owndata
            assert ds.time.flags.c_contiguous

    def test_no_covariates_named(self, tmp_path, monkeypatch):
        p = self.write(tmp_path, "\n".join(self.TABLE) + "\n")
        for _ in block_sizes(monkeypatch):
            ds = load_dataset(DatasetSpec(path=p, covariate_cols=()))
            assert ds.names == [] and ds.covariates.shape == (5, 0)
            np.testing.assert_array_equal(ds.time, [1, 2, 3, 4, 5])

    @pytest.mark.parametrize("covariates", [(), None], ids=["none_named", "default"])
    def test_time_outlives_a_matrix_of_no_columns(self, tmp_path, covariates):
        # Text status values leave time the row buffer's only column, so a
        # view of it; a matrix of no columns must not free the buffer.  The
        # file is past malloc's mmap threshold.
        rng = np.random.default_rng(3)
        time = rng.integers(1, 1000, 20_000)
        dead = rng.random(20_000) < 0.5
        rows = [f"{t},{'dead' if d else 'alive'}" for t, d in zip(time.tolist(), dead.tolist())]
        p = self.write(tmp_path, "\n".join(["time,status", *rows]) + "\n")
        ds = load_dataset(DatasetSpec(path=p, status_event_value="dead", covariate_cols=covariates))
        scratch = [np.full(5000, -1.0) for _ in range(50)]
        assert ds.covariates.shape == (20_000, 0) and len(scratch) == 50
        np.testing.assert_array_equal(ds.time, time)
        np.testing.assert_array_equal(ds.status, dead)

    def test_more_records_than_counted_lines_grow_the_buffer(self, tmp_path, monkeypatch):
        rows = [f"{i + 1},{i % 2},{i * 0.25},{'NA' if i % 7 == 3 else i}" for i in range(50)]
        p = self.write(tmp_path, "\n".join(["time,status,a,b", *rows]) + "\n")
        monkeypatch.setattr(dataio, "_line_count", lambda path: 1)
        for _ in block_sizes(monkeypatch):
            assert assert_matches_per_token_load(DatasetSpec(path=p)).n_rows == 43

    def test_negative_zero_round_trips_bitwise(self, tmp_path, monkeypatch):
        x = np.array([[-0.0, 0.0], [1.5, -0.0], [-2.0, 3.0], [0.0, -0.0]] * 5)
        ds = SurvivalDataset(x, np.arange(1.0, 21.0), np.arange(20) % 2, ["a", "b"])
        for _ in block_sizes(monkeypatch):
            save_dataset(ds, tmp_path / "z.csv")
            assert (tmp_path / "z.csv").read_text().splitlines()[1] == "-0,0,1,0"
            back = load_dataset(DatasetSpec(path=tmp_path / "z.csv"))
            assert back.covariates.tobytes() == ds.covariates.tobytes()

    def test_save_holds_one_block(self, tmp_path, traced_peak):
        # 10^5 rows x 9 columns; blocks of 8192 rows of Python strings peaked
        # at 9.0 MiB.
        rng = np.random.default_rng(9)
        n = 100_000
        x = np.column_stack([rng.standard_normal((n, 4)), rng.integers(0, 5, (n, 3))])
        ds = SurvivalDataset(x, rng.random(n) + 0.5, rng.integers(0, 2, n), list("abcdefg"))
        _, peak = traced_peak(lambda: save_dataset(ds, tmp_path / "wide.csv"))
        assert peak < 2 * 2**20
