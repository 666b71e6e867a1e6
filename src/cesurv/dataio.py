"""Loading, saving and describing survival dataset files.

Files are delimiter-separated text with a header row, '.' decimals and the
missing-value tokens "" and "NA".  Text-valued covariate columns are mapped
to integer codes in order of first appearance; the mapping travels with the
dataset so reports can document it.

Loading makes one pass over the file: ``csv.reader`` streams the decoded
text while the raw bytes feed the sha256 digest, and the rows are
transposed once into per-column token lists, each token stripped once.
Each used column is then parsed once, with Python ``float`` semantics, into
a float64 array; only a column that fails to parse is scanned token by
token, to name the offending line.  Saving formats blocks of rows column by
column with the same rule as a per-value loop, so the bytes are unchanged.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import itertools
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DatasetLoadError, InvalidInputError
from .survsim import SurvivalDataset

__all__ = ["DatasetSpec", "load_dataset", "save_dataset", "bundled_dataset_spec", "BUNDLED_DATASETS"]

_MISSING_TOKENS = ("", "NA")
_DELIMITERS = (",", "\t", ";")


@dataclass(frozen=True)
class DatasetSpec:
    """Instructions for reading one survival dataset file.

    covariate_cols defaults to every remaining numeric column.  Rows with a
    missing value in any used column are dropped; ``na_screen_cols`` extends
    that screen to columns that are not part of the model (used by the
    bundled cancer data to reproduce whole-table complete-case filtering).
    """

    path: str
    time_col: str = "time"
    status_col: str = "status"
    covariate_cols: tuple = None
    na_policy: str = "drop_rows"
    status_event_value: object = 1
    na_screen_cols: tuple = ()

    def __post_init__(self):
        if self.time_col == self.status_col:
            raise InvalidInputError("time_col and status_col must differ")
        if self.covariate_cols is not None:
            cov = tuple(self.covariate_cols)
            if self.time_col in cov or self.status_col in cov:
                raise InvalidInputError("time/status columns cannot be covariates")
            object.__setattr__(self, "covariate_cols", cov)
        object.__setattr__(self, "na_screen_cols", tuple(self.na_screen_cols))
        if self.na_policy != "drop_rows":
            raise InvalidInputError(f"unsupported na_policy {self.na_policy!r}")

    def to_dict(self) -> dict:
        return {
            "path": str(self.path),
            "time_col": self.time_col,
            "status_col": self.status_col,
            "covariate_cols": list(self.covariate_cols) if self.covariate_cols else None,
            "na_policy": self.na_policy,
            "status_event_value": self.status_event_value,
            "na_screen_cols": list(self.na_screen_cols),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(d) - known
        if extra:
            raise InvalidInputError(f"unknown DatasetSpec fields: {sorted(extra)}")
        return cls(**d)


# Column layouts for the two bundled benchmark datasets.  The lung-cancer
# table keeps its administrative 'inst' column out of the covariates but in
# the missing-value screen, matching the published 167 complete rows; its
# status coding is 1=censored, 2=dead.
BUNDLED_DATASETS = {
    "cancer": dict(
        time_col="time",
        status_col="status",
        covariate_cols=("age", "sex", "ph.ecog", "ph.karno", "pat.karno", "meal.cal", "wt.loss"),
        status_event_value=2,
        na_screen_cols=("inst",),
    ),
    "veteran": dict(
        time_col="time",
        status_col="status",
        covariate_cols=("trt", "celltype", "karno", "diagtime", "age", "prior"),
        status_event_value=1,
    ),
}


def bundled_dataset_spec(name: str) -> DatasetSpec:
    """DatasetSpec for one of the packaged benchmark tables."""
    if name not in BUNDLED_DATASETS:
        raise InvalidInputError(f"unknown bundled dataset {name!r}; have {sorted(BUNDLED_DATASETS)}")
    path = resources.files("cesurv").joinpath(f"data/{name}.csv")
    return DatasetSpec(path=str(path), **BUNDLED_DATASETS[name])


def _parse_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


class _Sha256Reader(io.RawIOBase):
    """Binary file reader that hashes the bytes as they stream past."""

    def __init__(self, raw):
        self._raw = raw
        self.sha256 = hashlib.sha256()

    def readable(self):
        return True

    def readinto(self, buf):
        n = self._raw.readinto(buf)
        self.sha256.update(memoryview(buf)[:n])
        return n


def _read_table(path) -> tuple:
    """Header, line numbers, stripped per-column tokens and sha256 of a file.

    One streaming pass: csv.reader reads the decoded file while the raw
    bytes feed the digest.  Blank lines are skipped; line numbers count
    csv records, the header being line 1.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetLoadError(f"dataset file not found: {p}")
    # The cyclic collector would traverse the list csv.reader allocates for
    # every row, none of which can be part of a cycle, so it is paused until
    # the rows have been transposed to columns and freed.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_columns(p)
    finally:
        if gc_was_enabled:
            gc.enable()


def _read_columns(p: Path) -> tuple:
    with open(p, "rb") as raw:
        hashing = _Sha256Reader(raw)
        text = io.TextIOWrapper(io.BufferedReader(hashing), encoding="utf-8", newline="")
        header_line = text.readline()
        delim = max(_DELIMITERS, key=header_line.count)
        if header_line.count(delim) == 0:
            raise DatasetLoadError(f"{p}: could not find a delimiter in the header row")
        reader = csv.reader(itertools.chain([header_line], text), delimiter=delim)
        header = next(reader)
        rows = list(reader)
        sha = hashing.sha256.hexdigest()
    if len(set(header)) != len(header):
        raise DatasetLoadError(f"{p}: duplicate column names in header")
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    wrong = np.flatnonzero((lengths != len(header)) & (lengths != 0))
    if wrong.size:
        i = wrong[0]
        raise DatasetLoadError(f"{p}: line {i + 2} has {lengths[i]} fields, expected {len(header)}")
    records = np.flatnonzero(lengths)
    if records.size < len(rows):
        rows = [rows[i] for i in records]
    columns = [list(map(str.strip, col)) for col in zip(*rows)] or [[] for _ in header]
    return header, records + 2, columns, sha


def _floats(tokens) -> np.ndarray:
    """Tokens as float64 with Python ``float`` semantics; ValueError if any fails."""
    return np.array(list(map(float, tokens)), dtype=float)


def _missing_mask(tokens):
    """True where a token is missing; None when the column has no missing token."""
    if all(m not in tokens for m in _MISSING_TOKENS):
        return None
    return np.fromiter((t in _MISSING_TOKENS for t in tokens), dtype=bool, count=len(tokens))


def load_dataset(spec: DatasetSpec) -> SurvivalDataset:
    """Read a dataset file into a SurvivalDataset.

    Rows with missing values in used (or screened) columns are dropped.
    Text covariates become integer codes by first appearance; the mapping,
    drop count and file hash are recorded in ``dataset.attrs``.
    """
    header, linenos, columns, sha = _read_table(spec.path)
    tokens_of = dict(zip(header, columns))
    for col in (spec.time_col, spec.status_col, *(spec.covariate_cols or ()), *spec.na_screen_cols):
        if col not in tokens_of:
            raise DatasetLoadError(f"{spec.path}: required column {col!r} not in header {header}")
    n_raw = len(linenos)
    missing = {col: _missing_mask(tokens) for col, tokens in tokens_of.items()}

    # Columns parsed while choosing the default covariates, over all raw rows
    # (NaN where missing), so that no column is parsed twice.
    parsed = {}
    if spec.covariate_cols is None:
        # Default: every remaining column whose non-missing values all parse
        # as numbers.
        for col in header:
            if col in (spec.time_col, spec.status_col):
                continue
            mask = missing[col]
            present = tokens_of[col] if mask is None else itertools.compress(tokens_of[col], (~mask).tolist())
            try:
                values = _floats(present)
            except ValueError:
                continue
            if mask is not None:
                parsed[col] = np.full(n_raw, np.nan)
                parsed[col][~mask] = values
            else:
                parsed[col] = values
        covariates = tuple(parsed)
    else:
        covariates = spec.covariate_cols

    screen = [spec.time_col, spec.status_col, *covariates, *spec.na_screen_cols]
    dropped = np.zeros(n_raw, dtype=bool)
    for col in screen:
        if missing[col] is not None:
            dropped |= missing[col]
    kept = np.flatnonzero(~dropped)
    n_kept = kept.size
    if n_kept == 0:
        raise DatasetLoadError(f"{spec.path}: no rows left after dropping missing values")
    all_kept = n_kept == n_raw

    def kept_tokens(col):
        tokens = tokens_of[col]
        return tokens if all_kept else [tokens[i] for i in kept.tolist()]

    def kept_values(col):
        """The column's kept rows as numbers, or None if one is not a number."""
        if col in parsed:
            return parsed[col] if all_kept else parsed[col][kept]
        try:
            return _floats(kept_tokens(col))
        except ValueError:
            return None

    time = kept_values(spec.time_col)
    if time is None:
        tokens = kept_tokens(spec.time_col)
        i = next(i for i, t in enumerate(tokens) if _parse_float(t) is None)
        raise DatasetLoadError(
            f"{spec.path}: line {linenos[kept[i]]}, column {spec.time_col!r}: "
            f"cannot parse {tokens[i]!r} as a number"
        )
    bad = np.nonzero(time <= 0)[0]
    if bad.size:
        lineno = linenos[kept[bad[0]]]
        raise DatasetLoadError(
            f"{spec.path}: line {lineno}, column {spec.time_col!r}: time must be positive"
        )

    event_num = _parse_float(str(spec.status_event_value))
    values = kept_values(spec.status_col) if event_num is not None else None
    if values is not None:
        status = (values == event_num).astype(int)
    else:
        status = np.empty(n_kept, dtype=int)
        for i, tok in enumerate(kept_tokens(spec.status_col)):
            num = _parse_float(tok)
            if num is not None and event_num is not None:
                status[i] = 1 if num == event_num else 0
            else:
                status[i] = 1 if tok == str(spec.status_event_value) else 0

    matrix = np.empty((n_kept, len(covariates)))
    categorical_maps = {}
    for j, col in enumerate(covariates):
        values = kept_values(col)
        if values is not None:
            matrix[:, j] = values
        else:
            tokens = kept_tokens(col)
            codes = {t: code for code, t in enumerate(dict.fromkeys(tokens), start=1)}
            matrix[:, j] = [codes[t] for t in tokens]
            categorical_maps[col] = codes

    attrs = {
        "source_path": str(spec.path),
        "source_sha256": sha,
        "n_raw_rows": n_raw,
        "n_dropped_rows": n_raw - n_kept,
        "categorical_maps": categorical_maps,
        "status_event_value": spec.status_event_value,
    }
    return SurvivalDataset(matrix, time, status, list(covariates), attrs=attrs)


# Rows formatted per block when saving: formatting a whole table at once
# holds every token of it in memory.
_SAVE_BLOCK_ROWS = 8192


def _format_floats(values) -> list:
    """Integral values without a decimal point, others as their shortest repr."""
    return [str(int(v)) if v.is_integer() else repr(v) for v in values.tolist()]


def save_dataset(ds: SurvivalDataset, path, delimiter: str = ",") -> None:
    """Write a dataset as delimited text that round-trips through load."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, delimiter=delimiter, lineterminator="\n")
        writer.writerow([*ds.names, "time", "status"])
        for start in range(0, ds.n_rows, _SAVE_BLOCK_ROWS):
            block = slice(start, start + _SAVE_BLOCK_ROWS)
            columns = [_format_floats(col) for col in ds.covariates[block].T]
            columns.append(_format_floats(ds.time[block]))
            columns.append(list(map(str, ds.status[block].tolist())))
            writer.writerows(zip(*columns))
