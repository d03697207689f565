"""Columnar dataset with explicit outcome missingness, role assignment, and CSV I/O.

Columns are immutable float64 arrays of finite numbers. Every dataset
carries a RoleMap, and the roles alone decide what a column may hold: the
treatment and the response are 0/1, the outcome is the only column allowed
to contain missing cells (stored as NaN), and it is missing exactly on rows
where response == 0.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

MISSING_TOKENS = ("", "NA")


class DataError(ValueError):
    """Raised on malformed input data or role/consistency violations."""


@dataclass(frozen=True)
class RoleMap:
    """Assignment of dataset columns to their causal roles.

    ``covariates`` is ordered; search and tests iterate candidates in this
    order, so it should follow dataset column order.
    """

    treatment: str
    outcome: str
    response: str
    incentive: str
    covariates: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "covariates", tuple(self.covariates))
        names = list(self.all_names())
        if len(set(names)) != len(names):
            raise DataError(f"roles must reference distinct columns, got {names}")

    def all_names(self) -> tuple[str, ...]:
        return (self.treatment, self.outcome, self.response, self.incentive,
                *self.covariates)

    @classmethod
    def from_dict(cls, d: dict) -> "RoleMap":
        try:
            return cls(**{f.name: d[f.name] for f in fields(cls)})
        except KeyError as exc:
            raise DataError(f"role map is missing key {exc}") from exc

    def to_dict(self) -> dict:
        return {**asdict(self), "covariates": list(self.covariates)}

    def check_adjustment(self, Z, witness=None) -> None:
        """Refuse an adjustment set that names a column other than a
        covariate or names one twice, and a witness that is not a
        covariate or lies in the set."""
        Z = tuple(Z)
        for i, z in enumerate(Z):
            if z not in self.covariates:
                raise DataError(f"adjustment column {z!r} is not a covariate")
            if z in Z[:i]:
                raise DataError(f"adjustment column {z!r} appears more than "
                                "once")
        if witness is not None:
            if witness in Z:
                raise DataError(f"witness {witness!r} may not appear in the "
                                "adjustment set")
            if witness not in self.covariates:
                raise DataError(f"witness {witness!r} is not a covariate")


class Dataset:
    """Immutable column-major table whose roles are validated eagerly.

    Parameters
    ----------
    columns : mapping of name -> 1-D array-like, insertion order preserved
    roles : RoleMap; every role column must exist and not be an oracle
        column, the treatment and the response must be 0/1, and the
        outcome must be missing exactly where the response is 0; no
        column may hold an infinite value
    oracle : names of columns carried for ground-truth evaluation only;
        they may not be referenced by any role
    copy : False when every column is a fresh float array that the caller
        hands over and keeps no reference to; it is then used as it is
    """

    def __init__(self, columns, roles: RoleMap, oracle=(), *, copy=True):
        cols: dict[str, np.ndarray] = {}
        n_rows = None
        for name, values in columns.items():
            arr = np.asarray(values, dtype=float)
            if copy:
                arr = arr.copy()
            if arr.ndim != 1:
                raise DataError(f"column {name!r} is not 1-dimensional")
            if n_rows is None:
                n_rows = arr.size
            elif arr.size != n_rows:
                raise DataError(
                    f"column {name!r} has {arr.size} rows, expected {n_rows}")
            arr.flags.writeable = False
            cols[name] = arr
        self._columns = cols
        self._n_rows = 0 if n_rows is None else int(n_rows)
        self._oracle = frozenset(oracle)
        self.roles = roles
        self._validate()

    def _validate(self):
        roles = self.roles
        for name in roles.all_names():
            if name not in self._columns:
                raise DataError(f"role references unknown column {name!r}")
            if name in self._oracle:
                raise DataError(
                    f"oracle-only column {name!r} may not be used in a role")
        for name, arr in self._columns.items():
            # NaN marks the outcome's missing cells, so the outcome is
            # searched for inf alone; another column fails only when it
            # holds a NaN or an inf
            if name != roles.outcome:
                if np.isfinite(arr).all():
                    continue
                if np.isnan(arr).any():
                    raise _missing_values_error(name, roles.outcome)
            infinite = np.isinf(arr)
            if infinite.any():
                i = int(np.argmax(infinite))
                raise DataError(f"column {name!r} holds {arr[i]:g} at row "
                                f"{i}; only finite numbers are allowed")
        for name in (roles.treatment, roles.response):
            if not np.isin(self._columns[name], (0.0, 1.0)).all():
                raise DataError(f"binary column {name!r} contains values "
                                "other than 0 and 1")
        outcome = self._columns[roles.outcome]
        response = self._columns[roles.response]
        mismatch = np.isnan(outcome) != (response == 0.0)
        if mismatch.any():
            i = int(np.argmax(mismatch))
            raise DataError(
                "missing-data consistency violated at row "
                f"{i}: outcome missing={bool(np.isnan(outcome[i]))} but "
                f"response={response[i]:g}")

    @property
    def n_rows(self) -> int:
        return self._n_rows

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(self._columns)

    @property
    def oracle_names(self) -> frozenset[str]:
        return self._oracle

    def column(self, name: str) -> np.ndarray:
        try:
            return self._columns[name]
        except KeyError:
            raise DataError(f"unknown column {name!r}") from None

    def take(self, mask_or_index) -> "Dataset":
        """Row subset preserving roles and oracle flags."""
        # a mask or index array gathers fresh arrays, which the subset owns
        cols = {n: a[mask_or_index] for n, a in self._columns.items()}
        return Dataset(cols, self.roles, self._oracle, copy=False)

    def equals(self, other: "Dataset") -> bool:
        if self.names != other.names:
            return False
        return all(np.array_equal(self._columns[n], other._columns[n],
                                  equal_nan=True) for n in self.names)


def _cell(text: str) -> float:
    """A cell's value, NaN if missing. Numbers take the syntax of NumPy's
    parser: ``float``'s, less digit-group underscores and non-ASCII
    digits."""
    if text in MISSING_TOKENS:
        return math.nan
    stripped = text.strip()
    if stripped.isascii() and "_" not in stripped:
        return float(stripped)
    raise ValueError(text)


def _missing_values_error(name: str, outcome: str) -> DataError:
    return DataError(f"column {name!r} contains missing values; only the "
                     f"outcome column {outcome!r} may")


def load_csv(path, roles: RoleMap) -> Dataset:
    """Read a comma-separated file with a header row into a Dataset.

    Cells equal to one of ``MISSING_TOKENS`` become missing; only the
    outcome may hold them. If the response column is absent from the file
    it is derived as ``1 - missing(outcome)``; if present, it must agree
    with the outcome's missingness pattern. Numbers are read by NumPy's
    parser. A UTF-8 byte-order mark is skipped; a blank line is an error.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            try:
                header = next(csv.reader(fh))
            except StopIteration:
                raise DataError(f"{path} is empty; a header row is "
                                "required") from None
            lines = fh.readlines()
    except UnicodeDecodeError:
        _raise_not_utf8(path)
        raise

    if len(set(header)) != len(header):
        raise DataError(f"{path} header contains duplicate column names")
    derive_response = roles.response not in header
    for name in roles.all_names():
        if name == roles.response and derive_response:
            continue
        if name not in header:
            raise DataError(f"column {name!r} not found in {path} header")

    table = _parse_body(lines, header, path, roles.outcome)
    columns = {name: table[:, j] for j, name in enumerate(header)}
    if derive_response:
        columns[roles.response] = (~np.isnan(columns[roles.outcome])).astype(float)
    return Dataset(columns, roles)


def _raise_not_utf8(path: Path) -> None:
    """Raise the DataError naming the first byte of the file that is not
    UTF-8. The codec's own offset counts from the chunk the reader had
    buffered, so the whole file is decoded again to find the file offset."""
    try:
        path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8: byte "
                        f"0x{exc.object[exc.start]:02x} at offset {exc.start} "
                        "cannot be decoded") from None


def _parse_body(lines, header, path, outcome) -> np.ndarray:
    """The rows after the header as a rows x columns table; a body that
    NumPy refuses raises the DataError of its first fault."""
    if not lines:
        return np.empty((0, len(header)))
    if "\n" in lines or "\r\n" in lines or "\r" in lines:
        # np.loadtxt skips blank lines; unless quoted, each is a 0-field row
        _raise_first_fault(lines, header, path, outcome)
    try:
        # only the outcome may hold a missing cell, so only it is
        # converted in Python; encoding=None hands it str on NumPy 1.x too,
        # whose default, 'bytes', would hand it bytes
        table = np.loadtxt(lines, delimiter=",", quotechar='"', comments=None,
                           ndmin=2, encoding=None,
                           converters={header.index(outcome): _cell})
        if table.shape[1] != len(header):
            raise ValueError(f"{table.shape[1]} columns, expected {len(header)}")
    except ValueError as exc:
        _raise_first_fault(lines, header, path, outcome)
        raise DataError(f"cannot parse {path}: {exc}") from None
    return table


def _raise_first_fault(lines, header, path, outcome) -> None:
    """Raise the DataError for the first fault a cell-by-cell read of the
    body meets: a row of the wrong width or a malformed number, in row
    order, then a missing cell outside the outcome, in column order.
    Returns if the body has no fault."""
    missing = set()
    for i, row in enumerate(csv.reader(lines)):
        if len(row) != len(header):
            raise DataError(f"row {i} of {path} has {len(row)} fields, "
                            f"expected {len(header)}")
        for name, text in zip(header, row):
            try:
                value = _cell(text)
            except ValueError:
                raise DataError(f"malformed number {text!r} in column "
                                f"{name!r}, row {i}") from None
            if math.isnan(value) and name != outcome:
                missing.add(name)
    for name in header:
        if name in missing:
            raise _missing_values_error(name, outcome)


def _format_column(values: np.ndarray) -> list[str]:
    """Cell text of a column: empty for NaN, integer text for a whole
    number below 1e15 in magnitude other than -0.0, else ``repr``, the
    shortest text that reads back to the same float."""
    cells = values.astype(object)   # Python floats, whose str is their repr
    whole = np.isfinite(values) & (values == np.trunc(values)) & (
        np.abs(values) < 1e15) & ~((values == 0.0) & np.signbit(values))
    cells[whole] = values[whole].astype(np.int64)
    cells[np.isnan(values)] = ""
    return list(map(str, cells.tolist()))


def write_csv(ds: Dataset, path) -> None:
    """Write a Dataset as CSV; missing cells become empty fields.

    Floats are written with ``repr`` so a write/read round trip reproduces
    values exactly. Oracle columns go to a sibling ``<stem>.oracle.csv``
    file instead of the main file.
    """
    path = Path(path)
    main = [n for n in ds.names if n not in ds.oracle_names]
    oracle = [n for n in ds.names if n in ds.oracle_names]
    _write_columns(ds, main, path)
    if oracle:
        _write_columns(ds, oracle, path.with_name(path.stem + ".oracle.csv"))


def _write_columns(ds: Dataset, names, path: Path) -> None:
    with path.open("w", newline="\n") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        rows = zip(*(_format_column(ds.column(n)) for n in names))
        fh.writelines(",".join(row) + "\n" for row in rows)


def respondent_rows(ds: Dataset) -> np.ndarray:
    """Indices of the rows with response == 1, where the outcome is
    observed. The response is 0/1, so a boolean mask finds them."""
    return np.flatnonzero(ds.column(ds.roles.response) == 1.0)


def subset_observed(ds: Dataset) -> Dataset:
    """Rows with response == 1, where the outcome is fully observed.

    Idempotent. An empty result is permitted but flagged with a warning.
    """
    rows = respondent_rows(ds)
    if not rows.size:
        warnings.warn("no rows with response == 1", stacklevel=2)
    return ds.take(rows)
