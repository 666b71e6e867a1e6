"""Loading, saving and describing survival dataset files.

Files are delimiter-separated UTF-8 text, with or without a byte-order
mark, with a header row, '.' decimals and the missing-value tokens "" and
"NA".  Text-valued covariate columns are mapped to integer codes in order
of first appearance; the mapping travels with the dataset so reports can
document it.

Loading streams the file in blocks of ``_BLOCK_ROWS`` csv records while
the raw bytes feed the sha256 digest.  The header is checked first: a
repeated name, or a column the spec needs and the header lacks, is an
error before the body is read.  Each block is then checked for field
counts and transposed, and each column the spec can use is kept in one of
two forms: a numeric column is parsed straight into float64 (NaN where
missing) with a missing mask, and a text column keeps its stripped tokens;
a column only screened for missing values keeps the mask alone, and a
column the spec cannot use is not parsed.  The numbers of all columns go
into one C-order row buffer sized from the file's line count, which then
becomes the covariate matrix in place; the block's tokens are dropped, so
a load holds its output arrays plus the time and status columns and one
block.  Values follow Python ``float`` semantics.  A column that turns out
to be text after some numeric blocks is read again in a second pass, as
tokens from the start.  Each error is raised as the block that holds it
is read, so a fault in an earlier block is reported first.  Within a
block, a csv field over the csv module's size limit, or a byte that is not
UTF-8 (text is decoded some KiB ahead of the records), is found while the
block is collected, before its field counts are checked; both are a
``DatasetLoadError`` too.  Saving formats blocks of rows column by column
with the same rule as a per-value loop.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import io
import itertools
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DatasetLoadError, InvalidInputError, dataclass_kwargs
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
    covariate_cols: tuple[str, ...] | None = None
    status_event_value: object = 1
    na_screen_cols: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "path", str(self.path))
        if self.time_col == self.status_col:
            raise InvalidInputError("time_col and status_col must differ")
        if self.covariate_cols is not None:
            cov = tuple(self.covariate_cols)
            if self.time_col in cov or self.status_col in cov:
                raise InvalidInputError("time/status columns cannot be covariates")
            if len(set(cov)) != len(cov):
                raise InvalidInputError(f"covariate_cols names a column more than once: {list(cov)}")
            object.__setattr__(self, "covariate_cols", cov)
        object.__setattr__(self, "na_screen_cols", tuple(self.na_screen_cols))
        # Text that reads as a number is that number, an int when integral.
        # nan equals no status value, and no finite one equals inf.
        event = self.status_event_value
        number = _parse_float(str(event))
        if isinstance(event, str) and number is not None:
            event = int(number) if number.is_integer() else number
        if (isinstance(event, bool) or not isinstance(event, (str, int, float, np.integer))
                or (number is not None and not np.isfinite(number))):
            raise InvalidInputError(
                f"status_event_value must be a string or a number that is not nan or inf, got {event!r}")
        object.__setattr__(self, "status_event_value", int(event) if isinstance(event, np.integer) else event)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DatasetSpec":
        return cls(**dataclass_kwargs(cls, d))


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
    return DatasetSpec(path=path, **BUNDLED_DATASETS[name])


def _parse_float(token: str):
    try:
        return float(token)
    except ValueError:
        return None


# csv records read, or rows formatted, per block: the per-row Python objects
# of a block are freed before the next block is read.  Blocks of 1024 to
# 8192 rows save and load 10^5 rows equally fast; smaller blocks hold fewer
# strings at once.
_BLOCK_ROWS = 1024

# How a column is kept while the file streams past: float64 values or
# stripped tokens, each with a missing mask; the missing mask alone; or nothing.
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


def _missing_mask(tokens) -> np.ndarray:
    """True where a token is missing."""
    return np.fromiter(map(_MISSING_TOKENS.__contains__, tokens), dtype=bool, count=len(tokens))


def _parse_block(raw):
    """One block of a column's raw tokens as (float64 values, missing mask).

    Values are NaN where a token is missing; None is returned when a
    present token is not a number.  ``float`` strips a subset of what
    ``str.strip`` strips, so a raw token it accepts has the value of the
    stripped token; only a block with a token it rejects is stripped and
    screened for missing tokens.
    """
    try:
        return np.fromiter(map(float, raw), dtype=float, count=len(raw)), np.zeros(len(raw), dtype=bool)
    except ValueError:
        pass
    tokens = list(map(str.strip, raw))
    mask = _missing_mask(tokens)
    values = np.full(len(tokens), np.nan)
    try:
        values[~mask] = np.fromiter(map(float, itertools.compress(tokens, (~mask).tolist())), dtype=float)
    except ValueError:
        return None
    return values, mask


class _Column:
    """One column of a file, kept block by block in the form a spec can use.

    ``mode`` starts as ``_NUMBER``, ``_TOKENS`` or ``_MASK``.  A number
    column with a present token that is not a number turns to ``fallback``.
    One that turns to ``_TOKENS`` after number blocks has lost the tokens of
    those blocks: it is marked ``late``, kept no further, and read again.
    A number column's values go to the row buffer (``_Rows``); an explicit
    ``covariate`` keeps its slot there in every mode.  Each kept block
    appends its missing mask to ``masks``.  After ``finish``, ``tokens``
    (tokens mode) and ``mask`` (missing rows) cover every record of the
    file.
    """

    def __init__(self, mode, fallback=_SKIP, covariate=False):
        self.mode, self.fallback, self.covariate, self.late = mode, fallback, covariate, False
        self.masks, self.tokens = [], []

    def add(self, raw):
        """Keep one block of raw tokens; in number mode, return its float64 values."""
        if self.mode == _NUMBER:
            parsed = _parse_block(raw)
            if parsed is not None:
                self.masks.append(parsed[1])
                return parsed[0]
            self.late = self.fallback == _TOKENS and bool(self.masks)
            self.mode = _SKIP if self.late else self.fallback
            if self.mode != _MASK:
                self.masks = []
        if self.mode != _SKIP:
            tokens = list(map(str.strip, raw))
            self.masks.append(_missing_mask(tokens))
            if self.mode == _TOKENS:
                self.tokens.extend(tokens)
        return None

    def finish(self) -> None:
        """Join the blocks' masks."""
        self.mask = np.concatenate([np.zeros(0, dtype=bool), *self.masks])
        self.masks = None


class _Rows:
    """The number columns of a file in one C-order float64 buffer, a row per record.

    The first block fixes the width: each column still kept as numbers
    there, and each explicit covariate, gets a column of the buffer
    (``slots``).  The length starts at ``capacity``, the file's line count,
    and grows only when the file holds more records than that (lines ended
    by a lone CR, or a file that grew during the read).
    """

    def __init__(self, capacity):
        self.capacity, self.n, self.slots, self.buf = capacity, 0, None, None

    def add(self, block, size) -> None:
        """Append one block of ``size`` records: (name, column, numbers or None) per column."""
        if self.buf is None:
            names = [name for name, column, values in block if values is not None or column.covariate]
            self.slots = {name: i for i, name in enumerate(names)}
            self.buf = np.empty((max(self.capacity, size), len(names)))
        elif self.n + size > len(self.buf):
            self.buf.resize((max(2 * len(self.buf), self.n + size), len(self.slots)), refcheck=False)
        for name, _, values in block:
            if values is not None:
                self.buf[self.n:self.n + size, self.slots[name]] = values
        self.n += size

    def take(self, kept, names) -> np.ndarray:
        """``buf[kept][:, slots of names]`` as a C-order matrix, built in place.

        ``kept`` (increasing record indices) is copied a block at a time
        into the front of the buffer, which is then shrunk to the matrix:
        each block of output rows lands before the buffer rows still to be
        read, since the matrix, whose ``names`` differ, is no wider than the
        buffer.  Neither the buffer nor a view of it is usable afterwards.
        """
        cols = [self.slots[name] for name in names]
        n, d, flat = kept.size, len(cols), self.buf.reshape(-1)
        for start in range(0, n, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n)
            flat[start * d:stop * d] = self.buf[np.ix_(kept[start:stop], cols)].ravel()
        del flat
        matrix, self.buf = self.buf, None
        matrix.resize((n, d), refcheck=False)
        return matrix


def _line_count(p: Path) -> int:
    """Lines of a file below its first, an upper bound on its csv records."""
    newlines, last = 0, b"\n"
    with open(p, "rb") as fh:
        while chunk := fh.read(1 << 20):
            newlines += chunk.count(b"\n")
            last = chunk[-1:]
    return max(newlines + (last != b"\n") - 1, 0)


def _read_table(path, plan) -> tuple:
    """Kept columns, row buffer and sha256 of a file.

    ``plan(header)`` maps the name of each column to keep to a fresh
    ``_Column``.  The file is read in blocks of ``_BLOCK_ROWS`` csv records
    while the raw bytes feed the digest.  Blank lines are skipped.  Columns
    that turn to text after number blocks are read in a second pass, as
    tokens from the start; the file must hash the same both times.
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
        columns, numbers, sha = _read_columns(p, plan)
        late = [name for name, column in columns.items() if column.late]
        if late:
            again, _, sha_again = _read_columns(p, lambda _: {name: _Column(_TOKENS) for name in late})
            if sha_again != sha:
                raise DatasetLoadError(f"{p}: file changed between the two passes of its read")
            columns.update(again)
    finally:
        if gc_was_enabled:
            gc.enable()
    return columns, numbers, sha


def _read_columns(p: Path, plan) -> tuple:
    """One pass of ``_read_table``; each error is raised where it is found.

    A column of the plan that the header lacks is not read: only a file
    changed before a second pass can lose one, and its digest differs.
    """
    numbers = _Rows(_line_count(p))
    with open(p, "rb") as raw:
        hashing = _Sha256Reader(raw)
        text = io.TextIOWrapper(io.BufferedReader(hashing), encoding="utf-8-sig", newline="")
        try:
            reader = _csv_reader(p, text)
            header = next(reader)
            if len(set(header)) != len(header):
                raise DatasetLoadError(f"{p}: duplicate column names in header")
            columns = plan(header)
            used = [(j, name, columns[name]) for j, name in enumerate(header) if name in columns]
            while rows := list(itertools.islice(reader, _BLOCK_ROWS)):
                _add_block(p, rows, len(header), used, numbers)
                del rows
        except UnicodeDecodeError as e:
            raise DatasetLoadError(f"{p}: not UTF-8 text ({e.reason})") from e
        except csv.Error as e:
            raise DatasetLoadError(f"{p}: line {reader.line_num}: {e}") from e
        sha = hashing.sha256.hexdigest()
    for column in columns.values():
        column.finish()
    return columns, numbers, sha


def _csv_reader(p, text):
    """A csv reader of a text file, header row included, in the delimiter its header uses most."""
    header_line = text.readline()
    delim = max(_DELIMITERS, key=header_line.count)
    if header_line.count(delim) == 0:
        raise DatasetLoadError(f"{p}: could not find a delimiter in the header row")
    return csv.reader(itertools.chain([header_line], text), delimiter=delim)


def _line(p, record) -> int:
    """The file line on which csv record ``record`` starts, 0 being the first record below the header.

    The header starts on line 1, blank lines count, and a quoted field can
    hold line breaks, so the file is read again up to the record.  Only an
    error message needs the line, so the read loop keeps no line numbers.
    """
    with open(p, encoding="utf-8-sig", newline="") as text:
        reader = _csv_reader(p, text)
        next(reader)
        start = reader.line_num + 1
        for row in reader:
            if row:
                if record == 0:
                    return start
                record -= 1
            start = reader.line_num + 1
    raise DatasetLoadError(f"{p}: file changed while its read error was located")


def _add_block(p, rows, n_fields, used, numbers) -> None:
    """Drop one block's blank lines, check its field counts, then hand its records to the columns."""
    lengths = np.fromiter(map(len, rows), dtype=np.intp, count=len(rows))
    if not lengths.all():
        rows = [row for row in rows if row]
        lengths = lengths[lengths != 0]
    wrong = np.flatnonzero(lengths != n_fields)
    if wrong.size:
        i = wrong[0]
        line = _line(p, numbers.n + i)
        raise DatasetLoadError(f"{p}: line {line} has {lengths[i]} fields, expected {n_fields}")
    if rows:
        fields = list(zip(*rows))
        numbers.add([(name, column, column.add(fields[j])) for j, name, column in used], len(rows))


def _column_plan(spec: DatasetSpec):
    """``plan`` for ``_read_table``: what ``load_dataset`` needs of each column.

    Time, status and explicit covariates are kept as numbers, or as tokens
    once one is not a number.  A default covariate must be numeric, so a
    text column left out of the defaults keeps only its missing mask, when
    the screen needs it.  Explicit covariates leave the other columns
    unparsed, apart from the masks of screen-only columns.
    """
    explicit = spec.covariate_cols or ()

    def plan(header):
        for col in (spec.time_col, spec.status_col, *explicit, *spec.na_screen_cols):
            if col not in header:
                raise DatasetLoadError(f"{spec.path}: required column {col!r} not in header {header}")
        columns = {}
        for name in header:
            if name in (spec.time_col, spec.status_col) or name in explicit:
                columns[name] = _Column(_NUMBER, fallback=_TOKENS, covariate=name in explicit)
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
    drop count and file hash are recorded in ``dataset.attrs``.  A status
    is the event value or the column's one other value, compared as
    float64 where its token reads as a number and as text otherwise.  Any
    other kept status, or a kept nan or inf, is an error naming its line
    and column.
    """
    columns, numbers, sha = _read_table(spec.path, _column_plan(spec))
    n_raw = numbers.n
    if spec.covariate_cols is None:
        # Default: every remaining column, in header order, whose non-missing
        # values all parse as numbers.
        covariates = tuple(
            name for name, column in columns.items()
            if name not in (spec.time_col, spec.status_col) and column.mode == _NUMBER
        )
    else:
        covariates = spec.covariate_cols

    screen = [spec.time_col, spec.status_col, *covariates, *spec.na_screen_cols]
    dropped = np.zeros(n_raw, dtype=bool)
    for col in screen:
        dropped |= columns[col].mask
    kept = np.flatnonzero(~dropped)
    n_kept = kept.size
    if n_kept == 0:
        raise DatasetLoadError(f"{spec.path}: no rows left after dropping missing values")

    def kept_tokens(col):
        tokens = columns[col].tokens
        return [tokens[i] for i in kept.tolist()]

    def kept_values(col):
        """The column's kept rows as numbers, or None if one is not a number."""
        if columns[col].mode == _NUMBER:
            return numbers.buf[kept, numbers.slots[col]]
        try:
            return np.fromiter(map(float, kept_tokens(col)), dtype=float, count=n_kept)
        except ValueError:
            return None

    def reject(i, col, problem):
        raise DatasetLoadError(f"{spec.path}: line {_line(spec.path, kept[i])}, column {col!r}: {problem}")

    time = kept_values(spec.time_col)
    if time is None:
        tokens = kept_tokens(spec.time_col)
        i = next(i for i, t in enumerate(tokens) if _parse_float(t) is None)
        reject(i, spec.time_col, f"cannot parse {tokens[i]!r} as a number")
    i = int(np.argmin((time > 0) & (time < np.inf)))
    if not 0 < time[i] < np.inf:
        reject(i, spec.time_col,
               "time must be positive" if time[i] <= 0 else f"{float(time[i])!r} is not a finite number")

    event = spec.status_event_value
    number = np.nan if isinstance(event, str) else float(event)  # text matches no number
    values = kept_values(spec.status_col)
    if values is not None:
        status = values == number
        j = int(np.argmax(~status & np.isfinite(values)))  # the first finite other value, if any
        other = None if status[j] or not np.isfinite(values[j]) else float(values[j])
        i = int(np.argmin(status | (values == other)))  # the first row holding neither, if any
        i = None if status[i] or values[i] == other else i
    else:
        tokens = kept_tokens(spec.status_col)
        keys = {t: t if (x := _parse_float(t)) is None else x for t in dict.fromkeys(tokens)}
        other = next((k for k in keys.values() if k not in (event, number)
                      and (isinstance(k, str) or np.isfinite(k))), None)
        i = next((tokens.index(t) for t, k in keys.items() if k not in (event, number, other)), None)
        events = {t for t, k in keys.items() if k in (event, number)}
        status = np.fromiter(map(events.__contains__, tokens), dtype=bool, count=n_kept)
    if i is not None:
        bad = keys[tokens[i]] if values is None else float(values[i])
        reject(i, spec.status_col, f"{bad!r} is not a finite number" if other is None
               else f"{bad!r} is neither the event value {event!r} nor the other value {other!r}")
    status = status.astype(int)  # rebinding frees the flags before the matrix is built

    # A covariate kept as tokens is written, as numbers or codes, into its
    # slot of the row buffer, which then becomes the covariate matrix.
    categorical_maps = {}
    for col in covariates:
        if columns[col].mode == _NUMBER:
            continue
        values = kept_values(col)
        if values is None:
            tokens = kept_tokens(col)
            codes = {t: code for code, t in enumerate(dict.fromkeys(tokens), start=1)}
            values = [codes[t] for t in tokens]
            categorical_maps[col] = codes
        numbers.buf[kept, numbers.slots[col]] = values
    matrix = numbers.take(kept, covariates)
    if not np.isfinite(matrix).all():
        i, j = np.argwhere(~np.isfinite(matrix))[0]
        reject(i, covariates[j], f"{float(matrix[i, j])!r} is not a finite number")

    attrs = {
        "source_path": spec.path,
        "source_sha256": sha,
        "n_raw_rows": n_raw,
        "n_dropped_rows": n_raw - n_kept,
        "categorical_maps": categorical_maps,
    }
    return SurvivalDataset(matrix, time, status, list(covariates), attrs=attrs)


def _format_floats(values) -> list:
    """Integral values without a decimal point, others as their shortest repr.

    Negative zero is written "-0", which reads back with its sign.
    """
    tokens = [str(int(v)) if v.is_integer() else repr(v) for v in values.tolist()]
    for i in np.flatnonzero((values == 0) & np.signbit(values)).tolist():
        tokens[i] = "-0"
    return tokens


def save_dataset(ds: SurvivalDataset, path) -> None:
    """Write a dataset as comma-separated text that round-trips through load.

    Only the header goes through ``csv.writer``, since names can need quoting;
    number tokens are joined directly, one block of ``_BLOCK_ROWS`` at a time.
    A covariate named ``time`` or ``status`` is an error, and nothing is written.
    """
    clash = [name for name in ("time", "status") if name in ds.names]
    if clash:
        raise InvalidInputError(f"covariate names {clash} clash with the file's time and status columns")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow([*ds.names, "time", "status"])
        for start in range(0, ds.n_rows, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            columns = [_format_floats(col) for col in ds.covariates[block].T]
            columns.append(_format_floats(ds.time[block]))
            columns.append(list(map(str, ds.status[block].tolist())))
            fh.write("\n".join(map(",".join, zip(*columns))) + "\n")
