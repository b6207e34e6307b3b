#!/usr/bin/env python3
"""Generate synthetic demo datasets: a two-class grayscale PGM tree for the
PCA-mode pipeline and a 64-feature CSV for the external-features mode.

Usage: python scripts/make_synthetic_data.py OUTDIR [--samples N] [--image-side SIDE]
       [--seed S]
"""

import argparse
from pathlib import Path

import numpy as np


def write_pgm(path: Path, pixels: np.ndarray, maxval: int = 65535):
    h, w = pixels.shape
    path.write_bytes(f"P5\n{w} {h}\n{maxval}\n".encode() + pixels.astype(">u2").tobytes())


def two_gaussians(rng, n_samples, n_features=64, informative=4, shift=1.2, scale=0.4):
    half = n_samples // 2
    y = np.array([0] * half + [1] * (n_samples - half))
    x = rng.normal(size=(n_samples, n_features))
    signs = np.where(y == 0, -1.0, 1.0)
    x[:, :informative] = signs[:, None] * shift + rng.normal(scale=scale, size=(n_samples, informative))
    perm = rng.permutation(n_samples)
    return x[perm], y[perm]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("outdir", type=Path)
    parser.add_argument("--samples", type=int, default=200)
    parser.add_argument("--image-side", type=int, default=8, help="PGM side; side^2 features")
    parser.add_argument("--seed", type=int, default=20240809)
    args = parser.parse_args()

    rng = np.random.default_rng(args.seed)
    d = args.image_side**2
    x, y = two_gaussians(rng, args.samples, n_features=d)

    image_root = args.outdir / "images"
    lo, hi = x.min(), x.max()
    quant = np.round((x - lo) / (hi - lo) * 65535)
    for i, (row, label) in enumerate(zip(quant, y)):
        class_dir = image_root / f"class{label}"
        class_dir.mkdir(parents=True, exist_ok=True)
        write_pgm(class_dir / f"s{i:04d}.pgm", row.reshape(args.image_side, args.image_side))

    csv_path = args.outdir / "features.csv"
    x64, y64 = (x, y) if d == 64 else two_gaussians(rng, args.samples, n_features=64)
    header = ",".join([f"f{i}" for i in range(64)] + ["label"])
    lines = [header] + [
        ",".join(f"{v:.9g}" for v in row) + f",{label}" for row, label in zip(x64, y64)
    ]
    csv_path.write_text("\n".join(lines) + "\n")

    print(f"wrote {args.samples} PGMs under {image_root} and features to {csv_path}")


if __name__ == "__main__":
    main()
