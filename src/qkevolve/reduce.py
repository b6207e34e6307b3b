"""Feature preprocessing: [-1, 1] standardization, PCA from the
eigendecomposition of the smaller Gram matrix of the centered training rows,
stratified train/test splitting and ingestion of externally computed feature
files.

Everything here is fitted on training rows only; test rows pass through the
fitted transforms as they are (standardized test values may leave [-1, 1],
and no clipping is applied). `standardize_apply`, `pca_fit` and
`pca_transform` overwrite the rows they are given, so a full-size matrix is
never copied; a caller that still needs its rows passes a copy.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class StandardizationParams:
    feature_min: np.ndarray
    feature_max: np.ndarray


def standardize_fit(train: np.ndarray) -> StandardizationParams:
    train = np.atleast_2d(np.asarray(train, dtype=float))
    if train.size == 0:
        raise ValueError("cannot fit standardization on an empty matrix")
    return StandardizationParams(train.min(axis=0), train.max(axis=0))


def standardize_apply(params: StandardizationParams, x: np.ndarray) -> np.ndarray:
    """Affine map sending the fitted per-feature [min, max] onto [-1, 1];
    constant features map to 0. Overwrites a float64 `x` and returns it (any
    other dtype is first converted to a new float64 array): the steps of
    2 (x - min) / span - 1 run in place, in that order, so the result is that
    expression's bit for bit with no full-size temporary."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    span = params.feature_max - params.feature_min
    x -= params.feature_min
    x *= 2.0
    x /= np.where(span > 0, span, 1.0)
    x -= 1.0
    x[:, ~(span > 0)] = 0.0
    return x


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # r x d, orthonormal rows, by non-increasing variance
    scores: np.ndarray  # n x r, the training rows' scores on those components


def pca_fit(train: np.ndarray, r: int) -> PcaModel:
    """The leading min(max(1, r), n-1, d) principal directions of the centered
    training rows C (n x d), from the eigendecomposition of the smaller Gram
    matrix, together with the training rows' scores on them. Consumes `train`:
    its rows are overwritten (unless it first needs converting to float64).

    With n <= d that is C C^T (n x n): component k is v_k^T C / sqrt(l_k) for
    its k-th largest eigenpair (v_k, l_k), the "snapshot" form of PCA (Turk &
    Pentland, 1991), and the training scores are v_k sqrt(l_k), so only the r
    d-wide rows asked for are formed and the training rows are not projected
    again; C is formed in place in `train`. Otherwise component k is the k-th
    eigenvector of C^T C (d x d), C is a copy, and the scores are the training
    rows projected as `pca_transform` projects them. Rows are centered through
    the first row, so a feature that is constant over the training rows
    centers to exact zeros. A fitted component whose training variance is
    numerically zero, l_k <= n * eps * l_1 (which covers l_1 = 0), comes back
    as a zero row with zero scores, with one warning giving the count among
    the fitted components.

    Component signs are fixed so the largest-magnitude loading of each
    component is positive, making the decomposition deterministic.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n, d = train.shape
    if n < 2:
        raise ValueError("PCA requires at least two training rows")
    r = int(min(max(1, r), n - 1, d))
    snapshot = n <= d
    first = train[0].copy()
    centered = np.subtract(train, first, out=train if snapshot else None)
    shift = centered.mean(axis=0)
    centered -= shift
    eigvals, eigvecs = np.linalg.eigh(centered @ centered.T if snapshot else centered.T @ centered)
    eigvals, eigvecs = eigvals[::-1][:r], eigvecs[:, ::-1][:, :r]
    null = eigvals <= n * np.finfo(float).eps * eigvals[0]
    if null.any():
        log.warning("%d of %d PCA components have zero training variance", null.sum(), r)
    if snapshot:
        components = eigvecs.T @ centered
        components /= np.sqrt(np.where(null, 1.0, eigvals))[:, None]
    else:
        components = eigvecs.T
    components[null] = 0.0
    flip = np.ones(r)
    for k, row in enumerate(components):  # row by row: no r x d |components|
        if row[np.abs(row).argmax()] < 0:
            row *= -1.0
            flip[k] = -1.0
    mean = first + shift
    if snapshot:
        scores = eigvecs * (np.sqrt(np.where(null, 0.0, eigvals)) * flip)
    else:
        train -= mean
        scores = train @ components.T
    return PcaModel(mean=mean, components=components, scores=scores)


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    """Scores of the rows `x` on the fitted components. Centers `x` in place
    (unless it first needs converting to float64), so it is overwritten."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.mean.size:
        raise ValueError(
            f"dimension mismatch: PCA was fitted on {model.mean.size} features, got {x.shape[1]}"
        )
    x -= model.mean
    return x @ model.components.T


def pca_slice(model: PcaModel, r: int) -> PcaModel:
    """A fitted model's leading components and their training scores, r
    clamped to [1, the count it holds]."""
    r_eff = int(min(max(1, r), model.components.shape[0]))
    return PcaModel(
        mean=model.mean, components=model.components[:r_eff], scores=model.scores[:, :r_eff]
    )


def check_test_fraction(test_fraction: float) -> None:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")


def stratified_split(
    x: np.ndarray, y: np.ndarray, test_fraction: float = 0.25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split into (train_indices, test_indices).

    The test set receives floor(n * test_fraction) samples: floor(n_c * f) per
    class, with the remainder handed out one row per class, largest classes
    first. Per-class proportions therefore stay within one sample of exact.
    A split with no test row, or with a class that keeps no training row, is
    rejected.
    """
    y = np.asarray(y).ravel()
    x = np.asarray(x)
    if x.shape[0] != y.size:
        raise ValueError("feature rows and labels disagree in length")
    check_test_fraction(test_fraction)
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise ValueError("stratified split requires at least two classes")
    if counts.min() < 2:
        raise ValueError("every class needs at least two samples")

    target = int(np.floor(y.size * test_fraction))
    per_class = {c: int(np.floor(cnt * test_fraction)) for c, cnt in zip(classes, counts)}
    # The floors leave fewer rows than classes, and each floor is below its
    # class size, so the remainder is one row to each of the largest classes.
    by_size = sorted(zip(classes, counts), key=lambda t: (-t[1], t[0]))
    for c, _ in by_size[: target - sum(per_class.values())]:
        per_class[c] += 1
    all_test = [int(c) for c, cnt in zip(classes, counts) if per_class[c] == cnt]
    if target == 0 or all_test:
        sizes = {int(c): int(cnt) for c, cnt in zip(classes, counts)}
        what = "no test row" if target == 0 else f"no training row in class {all_test[0]}"
        raise ValueError(f"test_fraction {test_fraction} on class counts {sizes} leaves {what}")

    rng = np.random.default_rng(seed)
    test_parts, train_parts = [], []
    for c in classes:
        idx = np.flatnonzero(y == c)
        perm = rng.permutation(idx)
        test_parts.append(perm[: per_class[c]])
        train_parts.append(perm[per_class[c]:])
    train_idx = np.sort(np.concatenate(train_parts))
    test_idx = np.sort(np.concatenate(test_parts))
    return train_idx, test_idx


def reorder_rows(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Move the rows of `rows` in place so that row i becomes the old row
    order[i], as `rows[order]` would, and return `rows`. Each cycle of the
    permutation `order` is followed with one row held aside, so no second
    matrix is made."""
    order = order.tolist()  # plain ints: the loop runs once per row
    moved = [False] * len(order)
    for start, source in enumerate(order):
        if moved[start] or source == start:
            continue
        held = rows[start].copy()
        i = start
        while order[i] != start:
            rows[i] = rows[order[i]]
            moved[i] = True
            i = order[i]
        rows[i] = held
        moved[i] = True
    return rows


def load_external_features(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a feature CSV: header row, one sample per row, {0, 1} label in the
    final column (which must be named 'label'). Returns the (n x d) feature
    rows, exactly as stored, and the n labels. Malformed rows, among them non-finite values such as 'nan' or
    'inf', are rejected with their row number."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty feature file") from None
        header = [h.strip() for h in header]
        if len(header) < 2 or header[-1].lower() != "label":
            raise ValueError(
                f"{path}: header must list at least one feature column and end with 'label'"
            )
        width = len(header)
        rows, labels = [], []
        for row_no, row in enumerate(reader, start=2):
            if len(row) != width:
                raise ValueError(
                    f"{path}: row {row_no}: expected {width} columns, found {len(row)}"
                )
            try:
                rows.append([float(v) for v in row[:-1]])
            except ValueError:
                raise ValueError(f"{path}: row {row_no}: non-numeric feature value") from None
            label_text = row[-1].strip()
            if label_text not in ("0", "1"):
                raise ValueError(
                    f"{path}: row {row_no}: unknown label {label_text!r} (expected 0 or 1)"
                )
            labels.append(int(label_text))
    if not rows:
        raise ValueError(f"{path}: feature file has no data rows")
    features = np.asarray(rows, dtype=float)
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    if bad.size:
        raise ValueError(f"{path}: row {bad[0] + 2}: non-finite feature value")
    return features, np.asarray(labels, dtype=int)
