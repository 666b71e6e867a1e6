"""Loading, saving and describing survival dataset files.

Files are delimiter-separated text with a header row, '.' decimals and the
missing-value tokens "" and "NA".  Text-valued covariate columns are mapped
to integer codes in order of first appearance; the mapping travels with the
dataset so reports can document it.

Loading streams the file in blocks of ``_BLOCK_ROWS`` csv records while
the raw bytes feed the sha256 digest.  Each block is checked for field
counts and transposed, and each column the spec can use is kept in one of
two forms: a numeric column is parsed straight into float64 (NaN where
missing) with a missing mask, and a text column keeps its stripped tokens;
a column only screened for missing values keeps the mask alone, and a
column the spec cannot use is not parsed.  The block's tokens are then
dropped, so a load holds its output arrays plus one block.  Values follow
Python ``float`` semantics.  A column that turns out to be text after some
numeric blocks is read again in a second pass, as tokens from the start.
Saving formats blocks of rows column by column with the same rule as a
per-value loop, so the bytes are unchanged.
"""

from __future__ import annotations

import collections
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

_MISSING_TOKENS = frozenset(("", "NA"))
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


# csv records read, or rows formatted, per block: the per-row Python objects
# of a block are freed before the next block is read.
_BLOCK_ROWS = 8192

# How a column is kept while the file streams past: float64 values with a
# missing mask, stripped tokens, the missing mask alone, or nothing.
_NUMBER, _TOKENS, _MASK, _SKIP = "number", "tokens", "mask", "skip"


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


def _floats(tokens) -> np.ndarray:
    """Tokens as float64 with Python ``float`` semantics; ValueError if any fails."""
    return np.array(list(map(float, tokens)), dtype=float)


def _missing_mask(tokens):
    """True where a token is missing; None when the column has no missing token."""
    if all(m not in tokens for m in _MISSING_TOKENS):
        return None
    return np.fromiter(map(_MISSING_TOKENS.__contains__, tokens), dtype=bool, count=len(tokens))


def _parse_block(raw):
    """One block of a column's raw tokens as (float64 values, missing mask).

    Values are NaN where a token is missing, and the mask is None when none
    is; None is returned when a present token is not a number.  ``float``
    strips a subset of what ``str.strip`` strips, so a raw token it accepts
    has the value of the stripped token; only a block with a token it
    rejects is stripped and screened for missing tokens.
    """
    try:
        return np.fromiter(map(float, raw), dtype=float, count=len(raw)), None
    except ValueError:
        pass
    tokens = list(map(str.strip, raw))
    mask = _missing_mask(tokens)
    try:
        if mask is None:
            return _floats(tokens), None
        values = np.full(len(tokens), np.nan)
        values[~mask] = _floats(itertools.compress(tokens, (~mask).tolist()))
    except ValueError:
        return None
    return values, mask


class _Column:
    """One column of a file, kept block by block in the form a spec can use.

    ``mode`` starts as ``_NUMBER``, ``_TOKENS`` or ``_MASK``.  A number
    column with a present token that is not a number turns to ``fallback``.
    One that turns to ``_TOKENS`` after number blocks has lost the tokens of
    those blocks: it is marked ``late``, kept no further, and read again.
    After ``finish``, ``values`` (number mode), ``tokens`` (tokens mode) and
    ``mask`` (missing rows, or None) cover every record of the file.
    """

    def __init__(self, mode, fallback=_SKIP):
        self.mode, self.fallback, self.late = mode, fallback, False
        self.values, self.masks, self.tokens = [], [], []
        self.mask = None

    def add(self, raw) -> None:
        """Keep one block of raw tokens."""
        if self.mode == _NUMBER:
            parsed = _parse_block(raw)
            if parsed is not None:
                self.values.append(parsed[0])
                self.masks.append(parsed[1])
                return
            self.late = self.fallback == _TOKENS and bool(self.values)
            self.mode = _SKIP if self.late else self.fallback
            self.values = []
            if self.mode != _MASK:
                self.masks = []
        if self.mode == _TOKENS:
            self.tokens.extend(map(str.strip, raw))
        elif self.mode == _MASK:
            self.masks.append(_missing_mask(list(map(str.strip, raw))))

    def finish(self, sizes) -> None:
        """Join the blocks, whose record counts are ``sizes``."""
        if self.mode == _NUMBER:
            self.values = np.concatenate(self.values) if self.values else np.empty(0)
        if self.mode == _TOKENS:
            self.mask = _missing_mask(self.tokens)
        elif any(m is not None for m in self.masks):
            self.mask = np.concatenate(
                [np.zeros(n, dtype=bool) if m is None else m for m, n in zip(self.masks, sizes)]
            )
        self.masks = None


def _read_table(path, plan) -> tuple:
    """Header, record line numbers, kept columns and sha256 of a file.

    ``plan(header)`` maps the name of each column to keep to a fresh
    ``_Column``.  The file is read in blocks of ``_BLOCK_ROWS`` csv records
    while the raw bytes feed the digest.  Blank lines are skipped; line
    numbers count csv records, the header being line 1.  Columns that turn
    to text after number blocks are read in a second pass, as tokens from
    the start; the file must hash the same both times.
    """
    p = Path(path)
    if not p.is_file():
        raise DatasetLoadError(f"dataset file not found: {p}")
    # The cyclic collector would traverse the list csv.reader allocates for
    # every row, none of which can be part of a cycle, so it is paused for
    # the read.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        header, linenos, columns, sha = _read_columns(p, plan)
        late = [name for name, column in columns.items() if column.late]
        if late:
            *_, again, sha_again = _read_columns(p, lambda _: {name: _Column(_TOKENS) for name in late})
            if sha_again != sha:
                raise DatasetLoadError(f"{p}: file changed between the two passes of its read")
            columns.update(again)
    finally:
        if gc_was_enabled:
            gc.enable()
    return header, linenos, columns, sha


def _read_columns(p: Path, plan) -> tuple:
    """One pass of ``_read_table``.

    A duplicate header name or a row with the wrong number of fields is
    reported only after the rest of the file has been read, so that a
    decoding error further on still comes first.
    """
    with open(p, "rb") as raw:
        hashing = _Sha256Reader(raw)
        text = io.TextIOWrapper(io.BufferedReader(hashing), encoding="utf-8", newline="")
        header_line = text.readline()
        delim = max(_DELIMITERS, key=header_line.count)
        if header_line.count(delim) == 0:
            raise DatasetLoadError(f"{p}: could not find a delimiter in the header row")
        reader = csv.reader(itertools.chain([header_line], text), delimiter=delim)
        header = next(reader)
        error = f"{p}: duplicate column names in header" if len(set(header)) != len(header) else None
        columns = {} if error else plan(header)
        used = [(header.index(name), column) for name, column in columns.items()]
        linenos, first_line = [], 2
        while error is None and (rows := list(itertools.islice(reader, _BLOCK_ROWS))):
            error = _add_block(p, rows, first_line, len(header), used, linenos)
            first_line += len(rows)
            del rows
        collections.deque(reader, maxlen=0)
        sha = hashing.sha256.hexdigest()
    if error:
        raise DatasetLoadError(error)
    for column in columns.values():
        column.finish([len(block) for block in linenos])
    linenos = np.concatenate(linenos) if linenos else np.empty(0, dtype=np.intp)
    return header, linenos, columns, sha


def _add_block(p, rows, first_line, n_fields, used, linenos):
    """Check one block's field counts, then hand its records to the columns.

    Returns the error message for a row with the wrong number of fields.
    """
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    wrong = np.flatnonzero((lengths != n_fields) & (lengths != 0))
    if wrong.size:
        i = wrong[0]
        return f"{p}: line {first_line + i} has {lengths[i]} fields, expected {n_fields}"
    records = np.flatnonzero(lengths)
    if records.size:
        if records.size < len(rows):
            rows = [rows[i] for i in records]
        fields = list(zip(*rows))
        for j, column in used:
            column.add(fields[j])
        linenos.append(records + first_line)
    return None


def _column_plan(spec: DatasetSpec):
    """``plan`` for ``_read_table``: what ``load_dataset`` needs of each column.

    Time, status and explicit covariates are kept as numbers, or as tokens
    once one is not a number; the status column is kept as tokens from the
    start when the event value is not a number.  A default covariate must
    be numeric, so a text column left out of the defaults keeps only its
    missing mask, when the screen needs it.  Explicit covariates leave the
    other columns unparsed, apart from the masks of screen-only columns.
    """
    event_is_number = _parse_float(str(spec.status_event_value)) is not None
    explicit = spec.covariate_cols or ()

    def plan(header):
        columns = {}
        for name in header:
            if name == spec.status_col and not event_is_number:
                columns[name] = _Column(_TOKENS)
            elif name in (spec.time_col, spec.status_col) or name in explicit:
                columns[name] = _Column(_NUMBER, fallback=_TOKENS)
            elif spec.covariate_cols is None:
                columns[name] = _Column(_NUMBER, fallback=_MASK if name in spec.na_screen_cols else _SKIP)
            elif name in spec.na_screen_cols:
                columns[name] = _Column(_MASK)
        return columns

    return plan


def load_dataset(spec: DatasetSpec) -> SurvivalDataset:
    """Read a dataset file into a SurvivalDataset.

    Rows with missing values in used (or screened) columns are dropped.
    Text covariates become integer codes by first appearance; the mapping,
    drop count and file hash are recorded in ``dataset.attrs``.
    """
    header, linenos, columns, sha = _read_table(spec.path, _column_plan(spec))
    for col in (spec.time_col, spec.status_col, *(spec.covariate_cols or ()), *spec.na_screen_cols):
        if col not in header:
            raise DatasetLoadError(f"{spec.path}: required column {col!r} not in header {header}")
    n_raw = len(linenos)

    if spec.covariate_cols is None:
        # Default: every remaining column whose non-missing values all parse
        # as numbers.
        covariates = tuple(
            name for name in header
            if name not in (spec.time_col, spec.status_col) and columns[name].mode == _NUMBER
        )
    else:
        covariates = spec.covariate_cols

    screen = [spec.time_col, spec.status_col, *covariates, *spec.na_screen_cols]
    dropped = np.zeros(n_raw, dtype=bool)
    for col in screen:
        if columns[col].mask is not None:
            dropped |= columns[col].mask
    kept = np.flatnonzero(~dropped)
    n_kept = kept.size
    if n_kept == 0:
        raise DatasetLoadError(f"{spec.path}: no rows left after dropping missing values")
    all_kept = n_kept == n_raw

    def kept_tokens(col):
        tokens = columns[col].tokens
        return tokens if all_kept else [tokens[i] for i in kept.tolist()]

    def kept_values(col):
        """The column's kept rows as numbers, or None if one is not a number."""
        column = columns[col]
        if column.mode == _NUMBER:
            return column.values if all_kept else column.values[kept]
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


def _format_floats(values) -> list:
    """Integral values without a decimal point, others as their shortest repr."""
    return [str(int(v)) if v.is_integer() else repr(v) for v in values.tolist()]


def save_dataset(ds: SurvivalDataset, path, delimiter: str = ",") -> None:
    """Write a dataset as delimited text that round-trips through load.

    ``delimiter`` is one of ",", tab and ";", the ones load recognises.
    Only the header goes through ``csv.writer``, since names can need
    quoting; number tokens never contain a delimiter or a quote, so the
    rows are joined directly, one block of ``_BLOCK_ROWS`` at a time.
    """
    if delimiter not in _DELIMITERS:
        raise InvalidInputError(f"delimiter must be one of {_DELIMITERS}, got {delimiter!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, delimiter=delimiter, lineterminator="\n").writerow([*ds.names, "time", "status"])
        for start in range(0, ds.n_rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            columns = [_format_floats(col) for col in ds.covariates[block].T]
            columns.append(_format_floats(ds.time[block]))
            columns.append(list(map(str, ds.status[block].tolist())))
            fh.write("\n".join(map(delimiter.join, zip(*columns))) + "\n")
