"""Tabular domain streams: the rotating two-moons benchmark, CSV ingestion,
and source-fitted normalization.

A stream keeps its chronological source domains separate from the single
held-out target domain so that training code can only ever see sources; the
target surfaces exclusively through final evaluation.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainDataset",
    "DomainStream",
    "NormalizationStats",
    "make_moons_domain",
    "make_moons_stream",
    "load_csv_stream",
    "save_domain_csv",
    "fit_apply_normalization",
]

CLASSIFICATION = "classification"
REGRESSION = "regression"
# rows in one moons or CSV stream: 10 M rows of two features and a label
# take 240 MB
MAX_ROWS = 10_000_000


@dataclass(frozen=True)
class DomainDataset:
    """One time-indexed tabular domain: features X, labels y, position t."""

    domain_index: int
    features: np.ndarray
    labels: np.ndarray
    task: str = CLASSIFICATION
    feature_names: tuple = ()

    def __post_init__(self):
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if x.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {x.shape}")
        if y.shape != (x.shape[0],):
            raise ValueError(f"labels shape {y.shape} does not match {x.shape[0]} rows")
        if x.shape[0] < 2:
            raise ValueError("a domain needs at least 2 rows")
        if self.domain_index < 0:
            raise ValueError("domain_index must be non-negative")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ValueError("non-finite entries in domain data")
        if self.task == CLASSIFICATION:
            if not np.all(np.isin(y, (0.0, 1.0))):
                raise ValueError(f"domain {self.domain_index}: classification "
                                 "labels must be 0 or 1")
        elif self.task != REGRESSION:
            raise ValueError(f"unknown task {self.task!r}")
        names = tuple(self.feature_names) or tuple(f"x{i}" for i in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise ValueError("feature_names length does not match feature count")
        x.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", names)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class DomainStream:
    """Chronological source domains plus the single held-out target."""

    sources: tuple
    target: DomainDataset

    def __post_init__(self):
        sources = tuple(self.sources)
        if not sources:
            raise ValueError("stream needs at least one source domain")
        all_domains = sources + (self.target,)
        indices = [d.domain_index for d in all_domains]
        if any(b <= a for a, b in zip(indices, indices[1:])):
            raise ValueError(f"domain indices must strictly increase, got {indices}")
        d0, task0 = all_domains[0].d, all_domains[0].task
        for dom in all_domains[1:]:
            if dom.d != d0 or dom.task != task0:
                raise ValueError("all domains must share feature count and task")
        object.__setattr__(self, "sources", sources)

    @property
    def d(self) -> int:
        return self.sources[0].d

    @property
    def task(self) -> str:
        return self.sources[0].task


# -- rotating two-moons ----------------------------------------------------

def _canonical_moons(n: int, noise_std: float, rng) -> tuple[np.ndarray, np.ndarray]:
    half = n // 2
    t = np.linspace(0.0, math.pi, half)
    upper = np.column_stack([np.cos(t), np.sin(t)])          # label 1
    lower = np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)])  # label 0
    pts = np.vstack([upper, lower])
    pts -= np.array([0.5, 0.25])  # bounding-box center of the two arcs
    if noise_std > 0:
        pts = pts + rng.normal(scale=noise_std, size=pts.shape)
    labels = np.concatenate([np.ones(half), np.zeros(half)])
    return pts, labels


def make_moons_domain(n: int, domain_index: int, noise_std: float = 0.15,
                      seed: int = 0) -> DomainDataset:
    """Two interleaved half-circle moons rotated 18 degrees per domain step.

    The rotation is counter-clockwise about the origin of the centered point
    cloud; noise perturbs the canonical shape before rotation, so noise_std=0
    makes successive domains exact rotations of each other.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if n % 2:
        raise ValueError("n must be even (half the points per moon)")
    if not 0 <= noise_std < math.inf:  # also rejects NaN
        raise ValueError("noise_std must be finite and non-negative")
    rng = np.random.default_rng([seed, domain_index])
    pts, labels = _canonical_moons(n, noise_std, rng)
    angle = math.radians(18.0 * domain_index)
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    return DomainDataset(domain_index=domain_index, features=pts @ rot.T,
                         labels=labels, task=CLASSIFICATION)


def make_moons_stream(domains: int = 10, n_per_domain: int = 200,
                      noise_std: float = 0.15, seed: int = 0) -> DomainStream:
    if domains < 3:
        raise ValueError("need at least 3 domains (2 sources + target)")
    if domains * n_per_domain > MAX_ROWS:
        raise ValueError(f"domains * n_per_domain must be at most {MAX_ROWS:,}")
    all_domains = [make_moons_domain(n_per_domain, i, noise_std, seed)
                   for i in range(domains)]
    return DomainStream(sources=tuple(all_domains[:-1]), target=all_domains[-1])


# -- CSV ingestion -----------------------------------------------------------

def _rows(reader, path):
    """The rows of a csv reader; its csv.Error (an over-long field) is a
    ValueError naming the line."""
    try:
        yield from reader
    except csv.Error as exc:
        raise ValueError(f"{path}: line {reader.line_num}: {exc}") from None


def load_csv_stream(path, domain_col: str = "t", label_col: str = "y",
                    feature_cols: tuple = (), task: str = CLASSIFICATION) -> DomainStream:
    """Read a header CSV, group rows by integer domain index, hold out the last.

    The default columns are those `save_domain_csv` writes; empty
    `feature_cols` takes every other column as a feature. Rows containing
    empty cells are dropped (instances with gaps are excluded, not imputed).
    A header, or column roles, that name a column twice (the domain, label
    and feature columns are distinct) is a hard error naming that column;
    non-numeric and non-finite cells, and for a classification `task`
    labels other than 0 or 1, are a hard error naming the offending row and
    column, a field past the csv module's size limit one naming its line,
    and so is a file with more than MAX_ROWS usable rows. An unknown
    `task` is refused before the file is opened.
    """
    if task not in (CLASSIFICATION, REGRESSION):
        raise ValueError(f"task must be one of {CLASSIFICATION!r} or {REGRESSION!r}, "
                         f"got {task!r}")
    groups: dict[int, list] = {}
    with open(path, newline="") as fh:
        reader = _rows(csv.reader(fh), path)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        for i, name in enumerate(header):
            if name in header[:i]:
                raise ValueError(f"{path}: the header names column {name!r} twice")
        col_index = {name: i for i, name in enumerate(header)}
        feature_cols = tuple(feature_cols) or tuple(
            c for c in header if c not in (domain_col, label_col))
        wanted = (domain_col, label_col, *feature_cols)
        for i, col in enumerate(wanted):
            if col in wanted[:i]:
                raise ValueError(f"{path}: the schema names column {col!r} twice")
            if col not in col_index:
                raise ValueError(f"{path}: missing column {col!r}")

        kept = 0
        for row_num, row in enumerate(reader, start=2):  # header is line 1
            cells = [row[col_index[c]] if col_index[c] < len(row) else "" for c in wanted]
            if any(c.strip() == "" for c in cells):
                continue  # missing value: exclude the instance
            parsed = []
            for col, cell in zip(wanted, cells):
                try:
                    value = float(cell)
                except ValueError:
                    raise ValueError(
                        f"{path}: non-numeric value {cell!r} at row {row_num}, "
                        f"column {col!r}") from None
                if not math.isfinite(value):
                    raise ValueError(
                        f"{path}: non-finite value {cell!r} at row {row_num}, "
                        f"column {col!r}")
                parsed.append(value)
            t = parsed[0]
            if t != int(t):
                raise ValueError(
                    f"{path}: domain index {t} at row {row_num} is not an integer; "
                    "bin timestamps before ingestion")
            if task == CLASSIFICATION and parsed[1] not in (0.0, 1.0):
                raise ValueError(f"{path}: label {cells[1]!r} at row {row_num}, column "
                                 f"{label_col!r} is not 0 or 1")
            kept += 1
            if kept > MAX_ROWS:
                raise ValueError(f"{path}: more than {MAX_ROWS:,} usable rows")
            groups.setdefault(int(t), []).append(parsed[1:])

    if len(groups) < 2:
        raise ValueError(f"{path}: need at least 2 domains, found {len(groups)}")
    domains = []
    for t in sorted(groups):
        block = np.array(groups[t])
        if block.shape[0] < 2:
            raise ValueError(f"{path}: domain {t} has fewer than 2 usable rows")
        domains.append(DomainDataset(
            domain_index=t, features=block[:, 1:], labels=block[:, 0],
            task=task, feature_names=feature_cols))
    return DomainStream(sources=tuple(domains[:-1]), target=domains[-1])


def save_domain_csv(dataset: DomainDataset, path) -> None:
    """Write one domain in the columns `load_csv_stream` reads by default."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y", *dataset.feature_names])
        for xrow, y in zip(dataset.features, dataset.labels):
            writer.writerow([dataset.domain_index, repr(float(y)),
                             *(repr(float(v)) for v in xrow)])


# -- normalization -----------------------------------------------------------

@dataclass(frozen=True)
class NormalizationStats:
    """Affine per-column maps fit on source domains only.

    Each kept source column is sent onto [-1, 1], the range of the
    generators' tanh outputs. Constant columns are dropped. For regression
    the label gets its own map so reported errors can be restated in raw
    label units.
    """

    offset: np.ndarray   # per kept column
    scale: np.ndarray    # per kept column, > 0
    kept: tuple          # indices into the original columns
    label_offset: float = 0.0
    label_scale: float = 1.0

    def apply(self, dataset: DomainDataset) -> DomainDataset:
        """`dataset` on the maps; a value that they send past the float range
        is refused."""
        with np.errstate(over="ignore"):
            x = (dataset.features[:, list(self.kept)] - self.offset) / self.scale
            y = dataset.labels
            if dataset.task == REGRESSION:
                y = (y - self.label_offset) / self.label_scale
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError(f"domain {dataset.domain_index}: a value lies past the float "
                             "range on the sources' min-max scale")
        names = tuple(dataset.feature_names[i] for i in self.kept)
        return DomainDataset(domain_index=dataset.domain_index, features=x,
                             labels=y, task=dataset.task, feature_names=names)

    def invert_features(self, x: np.ndarray) -> np.ndarray:
        return x * self.scale + self.offset

    def invert_label(self, y: np.ndarray) -> np.ndarray:
        return y * self.label_scale + self.label_offset


def fit_apply_normalization(stream: DomainStream) -> tuple[DomainStream, NormalizationStats]:
    """Fit per-column min-max maps on the sources, apply to sources and
    target alike. The midpoint and half-range are the sum and difference of
    the halved extremes: away from subnormals, the halves of their sum and
    difference, but free of overflow."""
    x = np.vstack([s.features for s in stream.sources])
    lo, hi = x.min(axis=0) / 2.0, x.max(axis=0) / 2.0
    kept = np.nonzero(hi - lo > 1e-12 / 2.0)[0]
    offset = (lo + hi)[kept]
    scale = (hi - lo)[kept]
    if kept.size == 0:
        raise ValueError("all feature columns are constant on the sources")

    label_offset, label_scale = 0.0, 1.0
    if stream.task == REGRESSION:
        y = np.concatenate([s.labels for s in stream.sources])
        ylo, yhi = y.min() / 2.0, y.max() / 2.0
        if yhi - ylo <= 1e-12 / 2.0:
            raise ValueError("regression label is constant on the sources")
        label_offset, label_scale = ylo + yhi, yhi - ylo

    stats = NormalizationStats(offset=offset, scale=scale,
                               kept=tuple(int(i) for i in kept),
                               label_offset=label_offset, label_scale=label_scale)
    normalized = DomainStream(
        sources=tuple(stats.apply(s) for s in stream.sources),
        target=stats.apply(stream.target))
    return normalized, stats
