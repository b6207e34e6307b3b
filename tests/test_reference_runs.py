"""Pinned reference runs: three small `qkevolve run` invocations on
`scripts/make_synthetic_data.py` data at fixed seeds, compared with the
outputs committed under tests/reference_runs/. A change that alters run
outputs fails here; once the files are regenerated, their diff is the
before/after of the change.

- pca8: 8 x 8 images, PCA with baseline (d = 64 < n_train = 150: 64 of 64
  components)
- pca16: 16 x 16 images, PCA with baseline (d = 256 >= n_train: 64 of 149
  components)
- external: the 64-feature CSV, with baseline (the baseline fits its own PCA)

The runs never reach the solver's hard cases, so solver.json also pins about
20 single fits on the pca8 data, chosen for them (SOLVER_GENOMES).

Compared exactly: bitstrings, eval ids, split indices, accuracies,
complexities, O_B and everything else in report.json and history.csv
except the wall clock and the run's paths. Accuracies are k / n_test and
complexities come from the gate census, so last-bit BLAS differences cannot
move them unless a prediction sits exactly on the decision boundary.
Compared within a tolerance: the float-sensitive fields in FLOAT_FIELDS.

Regenerate, after a change that is meant to alter results, on two OpenBLAS
threads, the setting that wrote the committed files (regenerate() refuses any
other, since the thread count moves the last bits of a fit):

    OPENBLAS_NUM_THREADS=2 PYTHONPATH=src python tests/test_reference_runs.py
"""

from __future__ import annotations

import csv
import dataclasses
import json
import logging
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from qkevolve import cli, evolve, svm
from qkevolve.genome import HEADER_BITS, bits_to_line, genome_length, random_bits

REFERENCE_DIR = Path(__file__).with_name("reference_runs")
MAKE_DATA = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_data.py"

# name -> (data side, config mode, dataset inside the data directory)
RUNS = {
    "pca8": (8, "pca", "images"),
    "pca16": (16, "pca", "images"),
    "external": (8, "external", "features.csv"),
}
DATA_SEEDS = {8: 3, 16: 4}
# Pinned at an svm_tol of 1e-6, not the default 1e-4 (see FLOAT_FIELDS).
PINNED_SVM_TOL = 1e-6
RUN_SETTINGS = {
    "qubits": 2, "layers": 3, "mu": 10, "lambda": 6, "generations": 5, "patience": 0, "seed": 5,
    "baseline": "true", "baseline_epochs": 40, "svm_tol": PINNED_SVM_TOL,
}
BLAS_THREADS = "2"  # the OPENBLAS_NUM_THREADS that wrote the pinned files

# The SVM dual stops once every KKT violation is below its tol, so a kernel
# that differs from the pinned one in the last bits, from another BLAS or CPU,
# may stop at duals and a bias that differ on that scale: abs 1e-6 at the
# pinned tol of 1e-6. At the default 1e-4, one BLAS thread instead of two
# moved a dual by up to 2.0e-5 and a bias by up to 1.7e-5, and a symmetric
# +-1 ulp K moved them by up to 7.2e-5 and 1.8e-5, past these tolerances (no
# bitstring, fitness or n_support moved). The MLP baseline's loss is a smooth
# function of its inputs after a fixed number of full-batch steps, so rounding
# moves it far less than 1e-9 relative.
FLOAT_FIELDS = {
    "dual_coefs": dict(rel=0.0, abs=1e-6),
    "bias": dict(rel=0.0, abs=1e-6),
    "final_loss": dict(rel=1e-9, abs=0.0),
}

# solver.json: single fits scored through evaluate_fitness on the pca8 data
# (split seed RUN_SETTINGS["seed"], 150 training rows) with the deployed 6 x 11
# grid. Each genome is random_bits from default_rng(seed). In "one_component"
# its header is zeroed, asking for one component: every rotation then reads
# x0, the kernel is low-rank and SMO crawls. Steps counted with a copy of
# svm.fit at tol 1e-6 (pinned), then at the default 1e-4: seed 18 stops at
# max_passes (100,000), then takes 15,301; 0, 2, 4, 6, 11, 19 and 22 take
# 8,167-73,926, past 20 n, then 3,146-24,935; 1, 5, 26 and 37 take
# 1,678-2,624, then 915-1,506. "random_header" keeps its header: ordinary fits
# of 358-1,065 steps, then 249-554.
SOLVER_GENOMES = {
    "one_component": (18, 0, 2, 4, 6, 11, 19, 22, 1, 5, 26, 37),
    "random_header": (0, 3, 5, 13, 14, 23, 37, 39),
}
# The fitness pair compares exactly, the solver's outputs within these
# tolerances. Measured when the set was pinned: one BLAS thread instead of two
# moved the dual objective by at most 5.9e-9 and the bias by at most 5.3e-7;
# K perturbed by a symmetric +-1 ulp moved them by at most 2.3e-8 and 1.2e-6
# (both worst on seed 18's fit, stopped at max_passes). Neither moved an
# n_support. The default svm_tol (1e-4) moves all 12 one-component fits past
# these tolerances and no fitness pair (test_solver_fits_at_the_default_tol).
SOLVER_FIELDS = {
    "dual_objective": dict(rel=0.0, abs=1e-6),
    "bias": dict(rel=0.0, abs=1e-5),
    "n_support": dict(rel=0.0, abs=1),
}


def make_data(root: Path) -> dict[int, Path]:
    dirs = {}
    for side, seed in DATA_SEEDS.items():
        dirs[side] = root / f"data{side}"
        subprocess.run(
            [sys.executable, str(MAKE_DATA), str(dirs[side]), "--image-side", str(side),
             "--seed", str(seed)],
            check=True, capture_output=True,
        )
    return dirs


def run_reference(name: str, data_dirs: dict[int, Path], workdir: Path) -> dict:
    """Run one pinned configuration through the CLI and return what is pinned:
    report.json minus the wall clock and paths, the eval ids of the best and
    archive members, and history.csv minus its wall-clock column."""
    side, mode, dataset = RUNS[name]
    out = workdir / name
    lines = [f"mode = {mode}", f"dataset = {data_dirs[side] / dataset}", f"output_dir = {out}",
             f"image_size = {side}"] + [f"{k} = {v}" for k, v in RUN_SETTINGS.items()]
    config = workdir / f"{name}.cfg"
    config.write_text("\n".join(lines) + "\n")

    results = []
    real_run_ga = cli.run_ga

    def capturing_run_ga(*args, **kwargs):
        results.append(real_run_ga(*args, **kwargs))
        return results[-1]

    cli.run_ga = capturing_run_ga
    try:
        assert cli.main(["run", "--config", str(config)]) == 0
    finally:
        cli.run_ga = real_run_ga
    (result,) = results

    report = json.loads((out / "report.json").read_text())
    report.pop("wall_clock_seconds")
    for key in ("dataset", "output_dir"):
        report["config"].pop(key)
    with open(out / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][-1] == "wallclock_seconds"
    return {
        "report": report,
        "eval_ids": {
            "best": result.archive[0].eval_id,
            "archive": [ind.eval_id for ind in result.archive],
        },
        "history": [row[:-1] for row in rows],
    }


def mismatches(got, want, path="", tolerances=FLOAT_FIELDS) -> list[str]:
    """Paths where `got` differs from `want`: exactly, except under a key in
    `tolerances`, where numbers compare within that key's tolerance."""
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}", tolerances)]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [
            m for i, (g, w) in enumerate(zip(got, want))
            for m in mismatches(g, w, f"{path}[{i}]", tolerances)
        ]
    if key in tolerances and isinstance(want, (int, float)) and isinstance(got, (int, float)):
        tol = tolerances[key]
        ok = math.isclose(got, want, rel_tol=tol["rel"], abs_tol=tol["abs"])
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: {got!r} != pinned {want!r}"]


def solver_fits(
    data_dirs: dict[int, Path], svm_tol: float = PINNED_SVM_TOL
) -> dict[str, list[dict]]:
    """Score each SOLVER_GENOMES genome through evaluate_fitness and return
    what is pinned: its bitstring, fitness pair, and the fit's n_support,
    bias and dual objective sum(alpha) - beta^T K beta / 2 on the K it got."""
    images = data_dirs[8] / "images"
    config = cli.RunConfig(  # output_dir is never written: only prepare_data reads the config
        mode="pca", dataset=images, output_dir=images, image_size=8, seed=RUN_SETTINGS["seed"],
        svm_tol=svm_tol,
    )
    data = cli.prepare_data(config).eval_data
    length = genome_length(config.qubits, config.layers, data.mode)
    fits = []
    real_fit = evolve.svm.fit

    def capturing_fit(k, y, svm_config):
        model = real_fit(k, y, svm_config)
        beta = model.signed_duals
        fits.append({
            "n_support": model.n_support,
            "bias": model.bias,
            "dual_objective": float(beta @ y - 0.5 * (beta @ k @ beta)),
        })
        return model

    pinned: dict[str, list[dict]] = {}
    evolve.svm.fit = capturing_fit
    try:
        for group, seeds in SOLVER_GENOMES.items():
            pinned[group] = []
            for seed in seeds:
                bits = random_bits(length, np.random.default_rng(seed))
                if group == "one_component":
                    bits[:HEADER_BITS] = 0
                fitness = evolve.evaluate_fitness(evolve.Individual(bits=bits), data, config)
                pinned[group].append({
                    "seed": seed,
                    "bitstring": bits_to_line(bits),
                    "fitness": dataclasses.asdict(fitness),
                    **fits.pop(),
                })
    finally:
        evolve.svm.fit = real_fit
    return pinned


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    return make_data(tmp_path_factory.mktemp("reference-data"))


def assert_pinned(got, name: str, tolerances=FLOAT_FIELDS) -> None:
    pinned = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    problems = mismatches(got, pinned, name, tolerances)
    assert not problems, (
        f"{len(problems)} pinned fields differ (regenerate with `OPENBLAS_NUM_THREADS="
        f"{BLAS_THREADS} PYTHONPATH=src python tests/test_reference_runs.py` if intended):\n"
        + "\n".join(problems[:20])
    )


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_pinned_outputs(name, data_dirs, tmp_path):
    assert_pinned(run_reference(name, data_dirs, tmp_path), name)


def max_passes_stops(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if "SMO stopped at max_passes" in r.getMessage()]


def test_solver_matches_pinned_fits(data_dirs, caplog):
    with caplog.at_level(logging.WARNING, logger=svm.log.name):
        fits = solver_fits(data_dirs)
    assert_pinned(fits, "solver", SOLVER_FIELDS)
    assert len(max_passes_stops(caplog)) == 1  # seed 18's, at tol 1e-6


def test_solver_fits_at_the_default_tol(data_dirs, caplog):
    """At the default svm_tol no hard case stops at max_passes, and every
    genome scores its pinned fitness pair."""
    with caplog.at_level(logging.WARNING, logger=svm.log.name):
        fits = solver_fits(data_dirs, svm_tol=svm.SvmConfig.tol)
    assert max_passes_stops(caplog) == []
    pinned = json.loads((REFERENCE_DIR / "solver.json").read_text())
    assert {group: [(f["bitstring"], f["fitness"]) for f in fits[group]] for group in fits} == {
        group: [(f["bitstring"], f["fitness"]) for f in pinned[group]] for group in pinned
    }


def regenerate() -> None:
    threads = os.environ.get("OPENBLAS_NUM_THREADS")
    if threads != BLAS_THREADS:
        sys.exit(
            f"regenerate on {BLAS_THREADS} BLAS threads, the setting that wrote the pinned "
            f"files (OPENBLAS_NUM_THREADS is {threads!r}): the thread count moves the last "
            f"bits of a fit. Run `OPENBLAS_NUM_THREADS={BLAS_THREADS} PYTHONPATH=src "
            "python tests/test_reference_runs.py`."
        )
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data_dirs = make_data(Path(tmp))
        outputs = {name: run_reference(name, data_dirs, Path(tmp)) for name in sorted(RUNS)}
        outputs["solver"] = solver_fits(data_dirs)
    for name, pinned in outputs.items():
        path = REFERENCE_DIR / f"{name}.json"
        path.write_text(json.dumps(pinned, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
        print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
