"""End-to-end orchestration and command-line entry points.

Subcommands:
  run       --config FILE   full pipeline: ingest, split, standardize, evolve,
                            optional MLP baseline, write report/history/archive
  inspect   --genome BITS --config FILE   decode and print one individual
  baseline  --config FILE   classical PCA(64)+MLP comparison only

The config file is flat `key = value` text, one key per line; a '#' at the
start of a line or after whitespace starts a comment (schema in the README).
Outputs land in the configured output directory as report.json, history.csv
and archive.json.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import re
import sys
import time
from dataclasses import asdict, astuple, dataclass, fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from . import baseline as baseline_mod
from . import evolve
from .circuit import build_feature_map, complexity, diagram
from .evolve import (
    EvalData,
    GaConfig,
    HistoryRow,
    compile_individual,
    run as run_ga,
    train_individual,
)
from .genome import EncodingMode, bits_to_line, decode_genome, line_to_bits
from .reduce import (
    check_test_fraction,
    load_external_features,
    reorder_rows,
    standardize_apply,
    standardize_fit,
    stratified_split,
)
from .svm import SvmConfig

log = logging.getLogger(__name__)

EXTERNAL_FEATURE_DIM = 64


class ConfigError(ValueError):
    """Invalid configuration or input; reported as a one-line machine-parseable
    error and a nonzero exit."""

    def __init__(self, code: str, detail: str):
        super().__init__(f"{code}: {detail}")
        self.code = code
        self.detail = detail


@dataclass(kw_only=True)
class RunConfig(GaConfig):
    """A run's settings: the GA's, with the deployed 6x11 grid as default,
    then the data, SVM and baseline keys."""

    qubits: int = 6
    layers: int = 11
    mode: str  # "pca" or "external"
    dataset: Path
    output_dir: Path
    image_size: int = 250
    test_fraction: float = 0.25
    svm_c: float = SvmConfig.c_reg
    svm_tol: float = SvmConfig.tol
    svm_max_passes: int = SvmConfig.max_passes
    baseline: bool = True
    baseline_lr: float = 0.01
    baseline_epochs: int = 100

    def __post_init__(self):
        """Every run rule, checked once, so no RunConfig exists that a run
        would reject, whether it was parsed from a file or built in code."""
        self.dataset, self.output_dir = Path(self.dataset), Path(self.output_dir)
        if self.mode not in ("pca", "external"):
            raise ValueError("mode must be 'pca' or 'external'")
        if self.image_size < 1:
            raise ValueError("image_size must be at least 1")
        check_test_fraction(self.test_fraction)
        baseline_mod.check_training_params(self.baseline_lr, self.baseline_epochs)
        super().__post_init__()
        self.svm_config()

    @property
    def encoding_mode(self) -> EncodingMode:
        return EncodingMode.PCA_HEADER if self.mode == "pca" else EncodingMode.FIXED_FEATURES

    def ga_config(self) -> GaConfig:
        """The GA settings alone, which only perfbench asks for (ROADMAP item 4)."""
        return GaConfig(**{f.name: getattr(self, f.name) for f in fields(GaConfig)})

    def svm_config(self) -> SvmConfig:
        return SvmConfig(c_reg=self.svm_c, tol=self.svm_tol, max_passes=self.svm_max_passes)

    def echo(self) -> dict:
        d = asdict(self)
        d["dataset"] = str(self.dataset)
        d["output_dir"] = str(self.output_dir)
        d["lambda"] = d.pop("lambda_")
        return d


_BOOLS = {"true": True, "false": False, "1": True, "0": False, "yes": True, "no": False}

# Config keys and their types are RunConfig's fields; `lambda` is spelled
# `lambda_` in Python.
_CONFIG_TYPES = {
    "lambda" if name == "lambda_" else name: typ for name, typ in get_type_hints(RunConfig).items()
}


def parse_config_file(path, require_dataset: bool = True) -> RunConfig:
    """Parse and validate a flat key=value config file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError("config-missing", f"config file not found: {path}")
    values: dict = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        # a '#' inside a value, as in a path `run#1`, is part of the value
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError("config-syntax", f"line {line_no}: expected 'key = value'")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _CONFIG_TYPES:
            raise ConfigError("config-key", f"line {line_no}: unknown key {key!r}")
        if key in values:
            raise ConfigError("config-key", f"line {line_no}: duplicate key {key!r}")
        if not text:
            raise ConfigError("config-value", f"line {line_no}: empty value for {key!r}")
        typ = _CONFIG_TYPES[key]
        try:
            values[key] = _BOOLS[text.lower()] if typ is bool else typ(text)
        except (KeyError, ValueError):
            raise ConfigError(
                "config-value", f"line {line_no}: cannot parse {text!r} as {typ.__name__}"
            ) from None

    for required in ("mode", "dataset", "output_dir"):
        if required not in values:
            raise ConfigError("config-key", f"missing required key {required!r}")
    if "lambda" in values:
        values["lambda_"] = values.pop("lambda")
    try:
        config = RunConfig(**values)
    except ValueError as exc:
        raise ConfigError("config-value", str(exc)) from None
    if require_dataset:
        # pca reads a directory of class folders, external one feature file
        kind = "directory" if config.mode == "pca" else "file"
        if not (config.dataset.is_dir() if kind == "directory" else config.dataset.is_file()):
            problem = f"is not a {kind}" if config.dataset.exists() else "does not exist"
            raise ConfigError("dataset-missing", f"dataset path {problem}: {config.dataset}")
    return config


# ---------------------------------------------------------------------------
# image ingestion


def _read_pgm(path: Path) -> tuple[np.ndarray, int]:
    """Decode a P2 (ascii) or P5 (binary) PGM into its (height x width)
    samples, as stored, and its maxval; a sample outside [0, maxval] is
    rejected."""
    data = path.read_bytes()
    if data[:2] not in (b"P2", b"P5"):
        raise ValueError(f"{path}: not a P2/P5 PGM file")
    binary = data[:2] == b"P5"

    tokens = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        ch = data[pos:pos + 1]
        if ch == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        elif ch.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end:end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    width, height, maxval = (int(t) for t in tokens)
    if width < 1 or height < 1 or not 0 < maxval < 65536:
        raise ValueError(f"{path}: invalid PGM dimensions")

    if binary:
        pos += 1  # single whitespace after maxval
        dtype = np.dtype(">u2") if maxval > 255 else np.dtype(np.uint8)
        count = width * height
        if len(data) - pos < count * dtype.itemsize:
            raise ValueError(f"{path}: truncated PGM pixel data")
        pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
        # a full-range sample type cannot exceed maxval, so it needs no check
        checked = maxval < np.iinfo(dtype).max
    else:
        pixels = np.array(data[pos:].split(), dtype=float)
        if pixels.size != width * height:
            raise ValueError(f"{path}: wrong ascii pixel count")
        checked = True
    if checked and not 0 <= pixels.min() <= pixels.max() <= maxval:
        raise ValueError(f"{path}: PGM sample outside [0, {maxval}]")
    return pixels.reshape(height, width), maxval


def _load_image(path: Path) -> tuple[np.ndarray, int]:
    """Grayscale samples and the value that maps to 1; PGM natively, other
    formats via Pillow when it is installed."""
    if path.suffix.lower() == ".pgm":
        return _read_pgm(path)
    try:
        from PIL import Image
    except ImportError:
        raise ValueError(f"{path}: only PGM is supported without Pillow installed") from None
    with Image.open(path) as img:
        return np.asarray(img.convert("L")), 255


def bilinear_resize(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-center bilinear resampling with edge clamping, so output
    corners reproduce input corners exactly. At the input's own shape every
    sample lands on a pixel center with zero weight on its neighbours, so the
    output equals the input."""
    img = np.asarray(img, dtype=float)
    h, w = img.shape
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0, h - 1)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0, w - 1)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None]
    wx = (xs - x0)[None, :]
    top = img[np.ix_(y0, x0)] * (1 - wx) + img[np.ix_(y0, x1)] * wx
    bottom = img[np.ix_(y1, x0)] * (1 - wx) + img[np.ix_(y1, x1)] * wx
    return top * (1 - wy) + bottom * wy


def load_image_dataset(root, image_size: int = 250) -> tuple[np.ndarray, np.ndarray]:
    """Load a two-class grayscale image tree as (rows, labels): one
    subdirectory per class, labels 0/1 assigned by lexicographic directory
    order. Every image is scaled to [0, 1], resized to image_size x image_size
    and flattened row-major into one preallocated (files x d) matrix; an image
    already that size is scaled straight into its row. Unreadable files are
    skipped with a warning, and the matrix is then shrunk in place to the
    readable rows, so no second (files x d) buffer is allocated."""
    root = Path(root)
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if len(class_dirs) != 2:
        raise ValueError(f"{root}: expected exactly 2 class subdirectories, found {len(class_dirs)}")
    class_files = [sorted(p for p in class_dir.iterdir() if p.is_file()) for class_dir in class_dirs]
    n_files = sum(len(files) for files in class_files)
    rows = np.empty((n_files, image_size * image_size))
    labels = np.empty(n_files, dtype=int)
    n = 0
    for label, (class_dir, files) in enumerate(zip(class_dirs, class_files)):
        first = n
        for file in files:
            try:
                samples, maxval = _load_image(file)
            except (ValueError, OSError) as exc:
                log.warning("skipping unreadable image %s: %s", file, exc)
                continue
            if samples.shape == (image_size, image_size):
                np.divide(samples.ravel(), maxval, out=rows[n])
            else:
                rows[n] = bilinear_resize(samples / maxval, image_size, image_size).ravel()
            labels[n] = label
            n += 1
        if n == first:
            raise ValueError(f"{class_dir}: class has no readable images")
    if n < n_files:
        log.warning("skipped %d unreadable images under %s", n_files - n, root)
        rows.resize((n, rows.shape[1]))
        labels.resize(n)
    return rows, labels


# ---------------------------------------------------------------------------
# pipeline


@dataclass
class PreparedData:
    eval_data: EvalData
    train_indices: np.ndarray
    test_indices: np.ndarray


def prepare_data(config: RunConfig) -> PreparedData:
    """Ingest, split and standardize on the training rows. In PCA mode the
    standardized blocks are then projected once onto the most components a
    header can request, and only those scores are kept. The ingested matrix
    is the only full-size one: its rows are moved in place so the training
    rows come first, and both blocks are standardized and centered in it."""
    mode = config.encoding_mode
    if mode is EncodingMode.PCA_HEADER:
        rows, labels = load_image_dataset(config.dataset, config.image_size)
    else:
        try:
            rows, labels = load_external_features(config.dataset)
        except ValueError as exc:
            raise ConfigError("dataset-format", str(exc)) from None
        if rows.shape[1] != EXTERNAL_FEATURE_DIM:
            raise ConfigError(
                "dataset-width",
                f"external feature files must have exactly {EXTERNAL_FEATURE_DIM} feature "
                f"columns, found {rows.shape[1]}",
            )
    train_idx, test_idx = stratified_split(rows, labels, config.test_fraction, config.seed)
    reorder_rows(rows, np.concatenate([train_idx, test_idx]))
    x_train, x_test = rows[: train_idx.size], rows[train_idx.size:]
    standardize_apply(standardize_fit(x_train), rows)
    if mode is EncodingMode.PCA_HEADER:
        x_train, x_test = evolve.project_pca(x_train, x_test)
    return PreparedData(
        eval_data=EvalData(
            x_train=x_train,
            y_train=labels[train_idx] * 2 - 1,
            x_test=x_test,
            y_test=labels[test_idx] * 2 - 1,
            svm_config=config.svm_config(),
            mode=mode,
        ),
        train_indices=train_idx,
        test_indices=test_idx,
    )


def _individual_record(ind, config: RunConfig, prepared: PreparedData) -> dict:
    genome, circ, _, _ = compile_individual(ind.bits, prepared.eval_data, config)
    return {
        "bitstring": bits_to_line(ind.bits),
        "accuracy": ind.fitness.accuracy,
        "complexity": ind.fitness.complexity,
        "objective_balance": ind.fitness.objective_balance,
        "pca_components": genome.pca_components,
        "pca_components_effective": None if genome.pca_components is None else circ.input_dim,
        "circuit": diagram(circ),
    }


def run_baseline(config: RunConfig, prepared: PreparedData) -> dict:
    """PCA(64) + MLP comparison on the same split and standardization as the
    run; the component count is clamped when the training set is too small
    for 64. In PCA mode it reads the run's scores; on external features it
    fits its own PCA, the only caller there that needs one, on copies: the
    fit overwrites its input, and the run's features are read again after
    this."""
    data = prepared.eval_data
    x_train, x_test = data.x_train, data.x_test
    if data.mode is EncodingMode.FIXED_FEATURES:
        x_train, x_test = evolve.project_pca(x_train.copy(), x_test.copy())
    y01_train, y01_test = (data.y_train + 1) // 2, (data.y_test + 1) // 2
    model = baseline_mod.train(
        x_train, y01_train, lr=config.baseline_lr, epochs=config.baseline_epochs, seed=config.seed
    )
    return {
        "accuracy": baseline_mod.evaluate(model, x_test, y01_test),
        "train_accuracy": baseline_mod.evaluate(model, x_train, y01_train),
        "pca_components": int(x_train.shape[1]),
        "hidden_dim": model.hidden_dim,
        "learning_rate": config.baseline_lr,
        "epochs": config.baseline_epochs,
        "final_loss": float(model.loss_history[-1]),
    }


def _make_output_dir(config: RunConfig) -> Path:
    """Create the output directory, so an unusable one fails before any work."""
    try:
        config.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError("output-dir", f"cannot create {config.output_dir}: {exc}") from None
    return config.output_dir


def run_pipeline(config: RunConfig) -> dict:
    """Execute the configured run, write report.json, history.csv and
    archive.json into the output directory, and return the report."""
    t0 = time.perf_counter()
    out = _make_output_dir(config)
    prepared = prepare_data(config)
    data = prepared.eval_data
    result = run_ga(config, data)

    baseline_report = run_baseline(config, prepared) if config.baseline else None

    gen0 = result.initial_population
    archive = [_individual_record(ind, config, prepared) for ind in result.archive]
    # Retrain the winner on the same split so its dual solution lands in the report.
    _, best_qsvm, _ = train_individual(result.archive[0].bits, data, config)
    labels = np.concatenate([data.y_train, data.y_test])
    report = {
        "config": config.echo(),
        "dataset": {
            "n_samples": int(labels.size),
            "class_counts": {0: int((labels < 0).sum()), 1: int((labels > 0).sum())},
            "n_train": int(prepared.train_indices.size),
            "n_test": int(prepared.test_indices.size),
            "train_indices": prepared.train_indices.tolist(),
            "test_indices": prepared.test_indices.tolist(),
        },
        "best": {**archive[0], "qsvm": best_qsvm.summary()},
        "archive": archive,
        "baseline": baseline_report,
        "history_file": "history.csv",
        "total_evaluations": result.evaluations,
        "generations_run": len(result.history),
        "generation0": {
            "median_complexity": float(np.median([i.fitness.complexity for i in gen0])),
            "best_accuracy": max(i.fitness.accuracy for i in gen0),
        },
        "provenance": {
            "image_resize": "bilinear, half-pixel centers",
            "intensity_scale": "[0, 1] at decode, then per-feature [-1, 1] on the training split",
        },
        "wall_clock_seconds": time.perf_counter() - t0,
    }

    with open(out / "history.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        columns = [f.name for f in fields(HistoryRow)]
        writer.writerow(columns)
        for row in result.history:
            writer.writerow(
                f"{value:.3f}" if name == "wallclock_seconds" else value
                for name, value in zip(columns, astuple(row))
            )
    with open(out / "archive.json", "w") as fh:
        json.dump(archive, fh, indent=2, sort_keys=True, ensure_ascii=False)
    with open(out / "report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, ensure_ascii=False)
    return report


# ---------------------------------------------------------------------------
# entry points


def _cmd_run(args) -> int:
    config = parse_config_file(args.config)
    report = run_pipeline(config)
    best = report["best"]
    print(
        f"run complete: best accuracy {best['accuracy']:.4f}, "
        f"complexity {best['complexity']:.3f}, O_B {best['objective_balance']:.4f}, "
        f"archive size {len(report['archive'])}, report in {config.output_dir}"
    )
    return 0


def _cmd_inspect(args) -> int:
    config = parse_config_file(args.config, require_dataset=False)
    bits = line_to_bits(args.genome)
    try:
        genome = decode_genome(bits, config.qubits, config.layers, config.encoding_mode)
    except ValueError as exc:
        raise ConfigError("genome-length", str(exc)) from None
    dim = EXTERNAL_FEATURE_DIM if genome.pca_components is None else genome.pca_components
    circ = build_feature_map(genome, dim)
    if genome.pca_components is not None:
        print(f"pca_components: {genome.pca_components} requested")
        print(
            f"note: a run uses min(requested, n_train - 1, image_size² = {config.image_size**2}) "
            "components; its report.json gives pca_components_effective and the circuit it "
            "evaluated"
        )
    print(f"complexity: {complexity(circ)}")
    census = circ.census
    print(f"gates: {census.n_local} local, {census.n_cnot} cnot, {census.n_identity} identity")
    print(diagram(circ))
    return 0


def _cmd_baseline(args) -> int:
    config = parse_config_file(args.config)
    out = _make_output_dir(config)
    result = run_baseline(config, prepare_data(config))
    with open(out / "baseline.json", "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
    print(json.dumps(result, sort_keys=True))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qkevolve",
        description="Evolve quantum-inspired kernel classifiers for grayscale images.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute the full pipeline")
    p_run.add_argument("--config", required=True)
    p_run.set_defaults(func=_cmd_run)
    p_inspect = sub.add_parser("inspect", help="decode and print one genome")
    p_inspect.add_argument("--genome", required=True)
    p_inspect.add_argument("--config", required=True)
    p_inspect.set_defaults(func=_cmd_inspect)
    p_base = sub.add_parser("baseline", help="run only the classical baseline")
    p_base.add_argument("--config", required=True)
    p_base.set_defaults(func=_cmd_baseline)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": exc.code, "detail": exc.detail}), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(json.dumps({"error": "input", "detail": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected failures
        print(json.dumps({"error": "internal", "detail": f"{type(exc).__name__}: {exc}"}), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
