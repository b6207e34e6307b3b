"""Feature preprocessing: [-1, 1] standardization, PCA from the
eigendecomposition of the smaller Gram matrix of the centered training rows,
stratified train/test splitting and ingestion of externally computed feature
files.

Everything here is fitted on training rows only; test rows pass through the
fitted transforms unchanged (standardized test values may leave [-1, 1], and
no clipping is applied).
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)


@dataclass
class FeatureMatrix:
    """n x d feature rows plus optional {0, 1} class labels."""

    rows: np.ndarray
    labels: np.ndarray | None = None


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
    constant features map to 0. The steps of 2 (x - min) / span - 1 run in
    place on one output buffer, in that order, so the result is that
    expression's bit for bit with no full-size temporary; `x` is not
    modified."""
    x = np.atleast_2d(x)
    span = params.feature_max - params.feature_min
    out = np.subtract(x, params.feature_min, dtype=float)
    out *= 2.0
    out /= np.where(span > 0, span, 1.0)
    out -= 1.0
    out[:, ~(span > 0)] = 0.0
    return out


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray  # r x d, orthonormal rows, by non-increasing variance


def pca_fit(train: np.ndarray) -> PcaModel:
    """All min(n-1, d) principal directions of the centered training rows C
    (n x d), from the eigendecomposition of the smaller Gram matrix.

    With n <= d that is C C^T (n x n), and component k is v_k^T C / sqrt(l_k)
    for its k-th largest eigenpair (v_k, l_k), the "snapshot" form of PCA
    (Turk & Pentland, 1991); otherwise it is the k-th eigenvector of C^T C
    (d x d). Rows are centered through the first row, so a feature that is
    constant over the training rows centers to exact zeros. A component whose
    training variance is numerically zero, l_k <= n * eps * l_1 (which covers
    l_1 = 0), comes back as a zero row, with one warning giving the count.

    Component signs are fixed so the largest-magnitude loading of each
    component is positive, making the decomposition deterministic. Use
    `pca_slice` for fewer components.
    """
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n, d = train.shape
    if n < 2:
        raise ValueError("PCA requires at least two training rows")
    r = min(n - 1, d)
    centered = train - train[0]
    shift = centered.mean(axis=0)
    centered -= shift
    snapshot = n <= d
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
    del centered  # freed before the full-size |components| below
    components[null] = 0.0
    flip = np.where(components[np.arange(r), np.abs(components).argmax(axis=1)] < 0, -1.0, 1.0)
    components *= flip[:, None]
    return PcaModel(mean=train[0] + shift, components=components)


def pca_transform(model: PcaModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[1] != model.mean.size:
        raise ValueError(
            f"dimension mismatch: PCA was fitted on {model.mean.size} features, got {x.shape[1]}"
        )
    return (x - model.mean) @ model.components.T


def pca_slice(model: PcaModel, r: int) -> PcaModel:
    """The one truncation of a fitted model: its leading components, r
    clamped to [1, the count it holds]."""
    r_eff = int(min(max(1, r), model.components.shape[0]))
    return PcaModel(mean=model.mean, components=model.components[:r_eff])


def check_test_fraction(test_fraction: float) -> None:
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie strictly between 0 and 1")


def stratified_split(
    x: np.ndarray, y: np.ndarray, test_fraction: float = 0.25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic per-class split into (train_indices, test_indices).

    The test set receives floor(n * test_fraction) samples: floor(n_c * f) per
    class, with any remainder handed out one by one starting from the largest
    class. Per-class proportions therefore stay within one sample of exact.
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
    remainder = target - sum(per_class.values())
    order = sorted(zip(classes, counts), key=lambda t: (-t[1], t[0]))
    k = 0
    while remainder > 0:
        c, cnt = order[k % len(order)]
        if per_class[c] < cnt:
            per_class[c] += 1
            remainder -= 1
        k += 1

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


def load_external_features(path) -> FeatureMatrix:
    """Read a feature CSV: header row, one sample per row, {0, 1} label in the
    final column (which must be named 'label'). Values are returned exactly as
    stored. Malformed rows, among them non-finite values such as 'nan' or
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
    return FeatureMatrix(rows=features, labels=np.asarray(labels, dtype=int))
