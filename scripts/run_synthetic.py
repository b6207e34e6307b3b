#!/usr/bin/env python3
"""End-to-end demo experiment on synthetic data.

Builds the synthetic image dataset, writes a config, runs the PCA-mode
evolution plus the classical baseline and prints the headline numbers.

Usage: python scripts/run_synthetic.py WORKDIR [--generations G] [--qubits M]
       [--layers L] [--seed S]
"""

import argparse
import subprocess
import sys
from pathlib import Path

from qkevolve.cli import main as cli_main


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("workdir", type=Path)
    parser.add_argument("--generations", type=int, default=100)
    parser.add_argument("--qubits", type=int, default=6)
    parser.add_argument("--layers", type=int, default=11)
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    args.workdir.mkdir(parents=True, exist_ok=True)
    subprocess.run(
        [
            sys.executable,
            str(Path(__file__).with_name("make_synthetic_data.py")),
            str(args.workdir / "data"),
            "--seed",
            str(args.seed),
        ],
        check=True,
    )

    config = args.workdir / "run.cfg"
    config.write_text(
        "\n".join(
            [
                "mode = pca",
                f"dataset = {args.workdir / 'data' / 'images'}",
                f"output_dir = {args.workdir / 'out'}",
                "image_size = 8",
                f"qubits = {args.qubits}",
                f"layers = {args.layers}",
                "mu = 50",
                "lambda = 20",
                f"generations = {args.generations}",
                "patience = 50",
                f"seed = {args.seed}",
                "baseline = true",
            ]
        )
        + "\n"
    )
    return cli_main(["run", "--config", str(config)])


if __name__ == "__main__":
    sys.exit(main())
