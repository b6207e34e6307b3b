"""Pinned reference runs: three small `qkevolve run` invocations on
`scripts/make_synthetic_data.py` data at fixed seeds, compared with the
outputs committed under tests/reference_runs/. A change that alters run
outputs fails here; once the files are regenerated, their diff is the
before/after of the change.

- pca8: 8 x 8 images, PCA with baseline (d = 64 < n_train = 150, the C^T C side)
- pca16: 16 x 16 images, PCA with baseline (d = 256 >= n_train, the snapshot
  side: 64 of 149 components)
- external: the 64-feature CSV, with baseline (the baseline fits its own PCA)

Compared exactly: bitstrings, eval ids, split indices, accuracies,
complexities, O_B and everything else in report.json and history.csv
except the wall clock and the run's paths. Accuracies are k / n_test and
complexities come from the gate census, so last-bit BLAS differences cannot
move them unless a prediction sits exactly on the decision boundary.
Compared within a tolerance: the float-sensitive fields in FLOAT_FIELDS.

Regenerate, after a change that is meant to alter results:

    PYTHONPATH=src python tests/test_reference_runs.py
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

from qkevolve import cli

REFERENCE_DIR = Path(__file__).with_name("reference_runs")
MAKE_DATA = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_data.py"

# name -> (data side, config mode, dataset inside the data directory)
RUNS = {
    "pca8": (8, "pca", "images"),
    "pca16": (16, "pca", "images"),
    "external": (8, "external", "features.csv"),
}
DATA_SEEDS = {8: 3, 16: 4}
RUN_SETTINGS = {
    "qubits": 2, "layers": 3, "mu": 10, "lambda": 6, "generations": 5, "patience": 0, "seed": 5,
    "baseline": "true", "baseline_epochs": 40,
}

# The SVM dual stops once every KKT violation is below its tol (1e-6), so a
# kernel that differs from the pinned one in the last bits, from another BLAS
# or CPU, may stop at duals and a bias that differ on that scale. The MLP
# baseline's loss is a smooth function of its inputs after a fixed number of
# full-batch steps, so rounding moves it far less than 1e-9 relative.
FLOAT_FIELDS = {
    "dual_coefs": dict(rel=0.0, abs=1e-6),
    "bias": dict(rel=0.0, abs=1e-6),
    "final_loss": dict(rel=1e-9, abs=0.0),
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


def mismatches(got, want, path="") -> list[str]:
    """Paths where `got` differs from `want`: exactly, except under a key in
    FLOAT_FIELDS, where numbers compare within that key's tolerance."""
    key = path.rsplit(".", 1)[-1].split("[", 1)[0]
    if isinstance(want, dict) and isinstance(got, dict):
        if got.keys() != want.keys():
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want for m in mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in mismatches(g, w, f"{path}[{i}]")]
    if key in FLOAT_FIELDS and isinstance(want, float) and isinstance(got, (int, float)):
        tol = FLOAT_FIELDS[key]
        ok = math.isclose(got, want, rel_tol=tol["rel"], abs_tol=tol["abs"])
    else:
        ok = type(got) is type(want) and got == want
    return [] if ok else [f"{path}: {got!r} != pinned {want!r}"]


@pytest.fixture(scope="module")
def data_dirs(tmp_path_factory):
    return make_data(tmp_path_factory.mktemp("reference-data"))


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_pinned_outputs(name, data_dirs, tmp_path):
    pinned = json.loads((REFERENCE_DIR / f"{name}.json").read_text())
    got = run_reference(name, data_dirs, tmp_path)
    problems = mismatches(got, pinned, name)
    assert not problems, (
        f"{len(problems)} pinned fields differ (regenerate with "
        "`PYTHONPATH=src python tests/test_reference_runs.py` if intended):\n"
        + "\n".join(problems[:20])
    )


def regenerate() -> None:
    REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        data_dirs = make_data(Path(tmp))
        for name in sorted(RUNS):
            pinned = run_reference(name, data_dirs, Path(tmp))
            path = REFERENCE_DIR / f"{name}.json"
            path.write_text(json.dumps(pinned, indent=1, sort_keys=True, ensure_ascii=False) + "\n")
            print(f"wrote {path}")


if __name__ == "__main__":
    regenerate()
