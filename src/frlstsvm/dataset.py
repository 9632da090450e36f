"""Dataset loading, validation, scaling, fold planning and atomic file
writes.

read_lines is the one place the library opens a file for reading: data,
KEEL, config and model files are all read through it, as UTF-8, and a
file that cannot be opened or decoded is a DataError. CSV rows and KEEL
@data rows are split on commas by one splitter and parsed to floats by
one row parser, which keeps the given columns in the given order.

Labels follow one convention everywhere: +1 is the minority (positive)
class and -1 is the majority. The loaders remap raw file labels onto
that convention and warn when the class named positive is actually the
larger one.
"""

from __future__ import annotations

import csv
import os
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataError

LABEL_SET = (1, -1)
FORMATS = ("csv", "keel")


@dataclass
class LabeledDataset:
    """Feature matrix plus ±1 labels.

    features : (m, n) float64, all finite, m >= 2, n >= 1
    labels   : (m,) int, entries in {+1, -1}, both classes present
    attribute_names : optional column names, length n
    """

    features: np.ndarray
    labels: np.ndarray
    attribute_names: list[str] | None = None

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise DataError(
                f"features must be 2-D, got shape {self.features.shape}"
            )
        if self.labels.ndim != 1:
            raise DataError("labels must be 1-D")
        if self.features.shape[0] != self.labels.shape[0]:
            raise DataError(
                f"{self.features.shape[0]} feature rows but "
                f"{self.labels.shape[0]} labels"
            )
        if self.features.shape[0] < 2:
            raise DataError("dataset needs at least 2 rows")
        if self.features.shape[1] < 1:
            raise DataError("dataset needs at least 1 attribute")
        if not np.all(np.isfinite(self.features)):
            raise DataError("features contain non-finite values")
        if not np.all(np.isin(self.labels, LABEL_SET)):
            bad = sorted(set(self.labels.tolist()) - set(LABEL_SET))
            raise DataError(f"labels must be +1 or -1, found {bad}")
        pos = int(np.sum(self.labels == 1))
        neg = self.labels.shape[0] - pos
        if pos == 0 or neg == 0:
            raise DataError("labels must contain both +1 and -1 rows")
        if pos > neg:
            warnings.warn(
                f"positive class has {pos} rows against {neg}; "
                "+1 is meant to mark the minority class",
                stacklevel=2,
            )
        if self.attribute_names is not None:
            self.attribute_names = [str(s) for s in self.attribute_names]
            if len(self.attribute_names) != self.features.shape[1]:
                raise DataError(
                    f"{len(self.attribute_names)} attribute names for "
                    f"{self.features.shape[1]} columns"
                )

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def n_attributes(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> tuple[int, int]:
        """(minority count, majority count) by the ±1 convention."""
        pos = int(np.sum(self.labels == 1))
        return pos, self.labels.shape[0] - pos


@dataclass(eq=False)
class ScalingParams:
    """Per-column minimum and range. Constant columns store range 1 so
    applying the transform maps them to exactly 0."""

    mins: np.ndarray
    ranges: np.ndarray

    def __post_init__(self):
        self.mins = np.asarray(self.mins, dtype=np.float64)
        self.ranges = np.asarray(self.ranges, dtype=np.float64)
        if self.mins.shape != self.ranges.shape or self.mins.ndim != 1:
            raise DataError("scaling parameters must be matching 1-D arrays")
        if not np.isfinite(np.append(self.mins, self.ranges)).all():
            raise DataError("scaling parameters must be finite")
        if np.any(self.ranges <= 0):
            raise DataError("scaling ranges must be positive")


@dataclass(eq=False)
class FoldPlan:
    """Fold id per row, from a stratified deal."""

    assignments: np.ndarray
    k: int
    seed: int


def subset(ds: LabeledDataset, rows) -> LabeledDataset:
    rows = np.asarray(rows, dtype=np.int64)
    return LabeledDataset(
        features=ds.features[rows].copy(),
        labels=ds.labels[rows].copy(),
        attribute_names=ds.attribute_names,
    )


def _finish_labels(raw: list[str], positive_label: str | None,
                   path: str) -> np.ndarray:
    distinct = sorted(set(raw))
    if len(distinct) != 2:
        raise DataError(
            f"{path}: need exactly 2 classes, found {len(distinct)}: "
            f"{distinct[:6]}"
        )
    if positive_label is None:
        counts = {v: raw.count(v) for v in distinct}
        if counts[distinct[0]] == counts[distinct[1]]:
            raise DataError(
                f"{path}: classes are the same size, pass positive_label "
                "to pick the positive one"
            )
        positive_label = min(distinct, key=lambda v: counts[v])
    elif positive_label not in distinct:
        raise DataError(
            f"{path}: positive label {positive_label!r} not found, "
            f"classes are {distinct}"
        )
    return np.where(np.asarray(raw) == positive_label, 1, -1)


def _parse_value(cell: str, line_no: int, col_no: int,
                 path: str) -> float:
    text = cell.strip()
    if not text:
        raise DataError(
            f"{path}: empty value at line {line_no}, column {col_no}"
        )
    try:
        value = float(text)
    except ValueError:
        raise DataError(
            f"{path}: non-numeric value {text!r} at line {line_no}, "
            f"column {col_no}"
        ) from None
    if not np.isfinite(value):
        raise DataError(
            f"{path}: non-finite value {text!r} at line {line_no}, "
            f"column {col_no}"
        )
    return value


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without their endings: the one
    place the library opens a file for reading. A file that cannot be
    opened or is not UTF-8 is a DataError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _split_rows(lines: list[str], first_line_no: int = 1
                ) -> list[tuple[int, list[str]]]:
    """Each non-blank line's number and cells, split on commas and
    stripped; the lines are numbered from first_line_no."""
    return [(line_no, [c.strip() for c in line.split(",")])
            for line_no, line in enumerate(lines, start=first_line_no)
            if line.strip()]


def _read_rows(path: str, has_header: bool
               ) -> tuple[list[str] | None, list[tuple[int, list[str]]]]:
    """The header's cells (None without one) and each data row's line
    number and cells (see _split_rows); a file with no data row is
    refused."""
    rows = _split_rows(read_lines(path))
    header = rows.pop(0)[1] if has_header and rows else None
    if not rows:
        raise DataError(f"{path}: no data rows")
    return header, rows


def _parse_rows(rows: list[tuple[int, list[str]]], path: str,
                columns, width: int | None = None) -> np.ndarray:
    """The cells of `columns`, in that order, as floats, row by row;
    every row must have `width` cells (None: as many as the first)."""
    if width is None:
        width = len(rows[0][1])
    values: list[list[float]] = []
    for line_no, cells in rows:
        if len(cells) != width:
            raise DataError(
                f"{path}: line {line_no} has {len(cells)} columns, "
                f"expected {width}"
            )
        values.append([_parse_value(cells[col], line_no, col + 1, path)
                       for col in columns])
    return np.asarray(values)


def load_csv(path, label_column: int | str = -1,
             positive_label: str | None = None,
             has_header: bool = False) -> LabeledDataset:
    """Load a delimited numeric file with one label column.

    Cells are split on commas with surrounding whitespace stripped;
    there is no quoting. label_column may be a 0-based index (negative
    counts from the end) or, when has_header is set, a column name.
    positive_label names the raw label mapped to +1; when omitted the
    smaller class is used.
    """
    path = str(path)
    header, rows = _read_rows(path, has_header)
    width = len(rows[0][1])
    if width < 2:
        raise DataError(f"{path}: rows need at least 2 columns")

    if isinstance(label_column, str):
        if header is None:
            raise DataError(
                f"{path}: label column given by name {label_column!r} "
                "but the file has no header"
            )
        try:
            label_idx = header.index(label_column)
        except ValueError:
            raise DataError(
                f"{path}: no column named {label_column!r} in header"
            ) from None
        if label_idx >= width:
            raise DataError(
                f"{path}: label column {label_column!r} is column "
                f"{label_idx + 1} of the header, but the data rows have "
                f"{width} columns"
            )
    else:
        label_idx = label_column if label_column >= 0 else width + label_column
        if not 0 <= label_idx < width:
            raise DataError(
                f"{path}: label column {label_column} out of range for "
                f"{width} columns"
            )

    feats = _parse_rows(rows, path,
                        [i for i in range(width) if i != label_idx])
    names = None
    if header is not None:
        names = [h for i, h in enumerate(header) if i != label_idx]
    raw_labels = [cells[label_idx] for _, cells in rows]
    labels = _finish_labels(raw_labels, positive_label, path)
    return LabeledDataset(feats, labels, attribute_names=names)


def load_matrix_csv(path, has_header: bool = False) -> np.ndarray:
    """Load a label-free delimited numeric file as a feature matrix."""
    path = str(path)
    rows = _read_rows(path, has_header)[1]
    return _parse_rows(rows, path, range(len(rows[0][1])))


def atomic_write(path, text: str) -> None:
    """Write text to path through a temporary file in the same
    directory, so readers see the old file or the new one, never a
    partial write. The file gets the mode a plain open() gives under
    the umask (mkstemp's would be 0600)."""
    path = str(path)
    directory = os.path.dirname(os.path.abspath(path))
    tmp = os.path.join(directory, f".out-{os.urandom(8).hex()}")
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset as headered CSV, label last, labels as ±1.

    Floats are written with repr so a round trip through load_csv
    reproduces the array bit for bit.
    """
    names = ds.attribute_names or [
        f"x{i + 1}" for i in range(ds.n_attributes)
    ]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [str(int(label))])


def load_keel(path, positive_label: str | None = None) -> LabeledDataset:
    """Load a KEEL .dat file with numeric inputs and one nominal output.

    Keywords (@relation, @attribute, @inputs, @outputs, @data) are
    case-insensitive and CRLF endings are tolerated. Nominal input
    attributes and multiple outputs are rejected. When @inputs/@outputs
    are absent the last attribute is taken as the output.
    """
    path = str(path)
    lines = read_lines(path)
    attr_names: list[str] = []
    attr_kinds: dict[str, str] = {}
    inputs: list[str] | None = None
    outputs: list[str] | None = None
    data_start = None
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        lowered = text.lower()
        if lowered.startswith("@relation"):
            continue
        if lowered.startswith("@attribute"):
            body = text[len("@attribute"):].strip()
            # the name ends at its earliest separator: a type or a
            # bracketed range may follow without a space
            cut = min((i for i in map(body.find, (" ", "\t", "{", "["))
                       if i > 0), default=len(body))
            name, rest = body[:cut], body[cut:].strip().lower()
            kind = ("numeric"
                    if rest.startswith(("real", "integer", "numeric"))
                    else "nominal")
            attr_names.append(name)
            attr_kinds[name] = kind
        elif lowered.startswith(("@input", "@output")):
            body = "".join(text.split(None, 1)[1:])
            names = [s.strip() for s in body.split(",") if s.strip()]
            if lowered.startswith("@input"):
                inputs = names
            else:
                outputs = names
        elif lowered.startswith("@data"):
            data_start = line_no
            break
        else:
            raise DataError(
                f"{path}: unrecognized header line {line_no}: {text[:40]!r}"
            )

    if data_start is None:
        raise DataError(f"{path}: missing @data section")
    if not attr_names:
        raise DataError(f"{path}: no @attribute declarations")

    if outputs is None:
        outputs = [attr_names[-1]]
    if len(outputs) != 1:
        raise DataError(
            f"{path}: exactly one output attribute required, got {outputs}"
        )
    label_name = outputs[0]
    if label_name not in attr_names:
        raise DataError(
            f"{path}: output attribute {label_name!r} was never declared"
        )
    if inputs is None:
        inputs = [a for a in attr_names if a != label_name]
    for name in inputs:
        if name not in attr_names:
            raise DataError(
                f"{path}: input attribute {name!r} was never declared"
            )
        if attr_kinds[name] != "numeric":
            raise DataError(
                f"{path}: input attribute {name!r} is nominal; only "
                "real or integer inputs are supported"
            )

    positions = {name: i for i, name in enumerate(attr_names)}
    rows = _split_rows(lines[data_start:], data_start + 1)
    if not rows:
        raise DataError(f"{path}: @data section is empty")
    feats = _parse_rows(rows, path, [positions[name] for name in inputs],
                        width=len(attr_names))
    label_pos = positions[label_name]
    labels = _finish_labels([cells[label_pos] for _, cells in rows],
                            positive_label, path)
    return LabeledDataset(feats, labels, attribute_names=inputs)


def load_labeled(path, fmt: str, label_column: int | str,
                 positive_label: str | None,
                 has_header: bool) -> LabeledDataset:
    """Load a labeled data file in format fmt, one of FORMATS. A KEEL
    file names its own label and header, so label_column and has_header
    apply to CSV files only."""
    if fmt == "keel":
        return load_keel(path, positive_label)
    return load_csv(path, label_column, positive_label, has_header)


def minmax_fit(x) -> ScalingParams:
    """Per-column min and range from training rows only. A column whose
    max - min is not a finite float64 (finite values can span more, as
    -1.5e308 to 1.5e308 do) would scale to NaN, so it is refused."""
    if isinstance(x, LabeledDataset):
        x = x.features
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("scaling needs a non-empty 2-D matrix")
    mins, maxs = x.min(axis=0), x.max(axis=0)
    with np.errstate(over="ignore"):
        ranges = maxs - mins
    wide = np.flatnonzero(~np.isfinite(ranges))
    if wide.size:
        j = int(wide[0])
        raise DataError(
            f"feature column {j} (0-based) spans {float(mins[j])!r} to "
            f"{float(maxs[j])!r}, a range beyond float64; rescale it"
        )
    ranges[ranges == 0] = 1.0
    return ScalingParams(mins=mins, ranges=ranges)


def minmax_apply(params: ScalingParams, x) -> np.ndarray:
    """Map columns through (x - min) / range, clamped to [0, 1]."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x2 = x.reshape(1, -1) if single else x
    if x2.shape[1] != params.mins.shape[0]:
        raise DataError(
            f"{x2.shape[1]} columns but scaling was fit on "
            f"{params.mins.shape[0]}"
        )
    out = np.clip((x2 - params.mins) / params.ranges, 0.0, 1.0)
    return out[0] if single else out


def imbalance_ratio(ds: LabeledDataset) -> float:
    """Majority count over minority count, as an exact float division."""
    pos, neg = ds.class_counts()
    return neg / pos


def stratified_kfold(ds: LabeledDataset, k: int, seed: int) -> FoldPlan:
    """Deal each class's shuffled rows round-robin over k folds, so
    per-class fold sizes differ by at most one."""
    if k < 2:
        raise DataError(f"k must be at least 2, got {k}")
    rng = np.random.default_rng(seed)
    assignments = np.full(ds.n_rows, -1, dtype=np.int64)
    for cls in (1, -1):
        rows = np.flatnonzero(ds.labels == cls)
        if rows.size < k:
            name = "minority" if cls == 1 else "majority"
            raise DataError(
                f"{name} class has {rows.size} rows, fewer than k={k}"
            )
        # the row dealt n-th, rows[order[n]], goes to fold n % k
        order = rng.permutation(rows.size)
        assignments[rows[order]] = np.arange(rows.size) % k
    return FoldPlan(assignments=assignments, k=k, seed=seed)


def fold_rows(plan: FoldPlan, fold: int) -> tuple[np.ndarray, np.ndarray]:
    """(train rows, test rows) for one fold, both in ascending order."""
    if not 0 <= fold < plan.k:
        raise DataError(f"fold {fold} out of range for k={plan.k}")
    test = np.flatnonzero(plan.assignments == fold)
    train = np.flatnonzero(plan.assignments != fold)
    return train, test
