"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line. Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from qkevolve import svm
from qkevolve.baseline import evaluate as mlp_evaluate, init_model, loss_and_grads, train as mlp_train
from qkevolve.circuit import build_feature_map, evaluate_states
from qkevolve.cli import parse_config_file, run_pipeline
from qkevolve.evolve import (
    FitnessPair,
    GaConfig,
    Individual,
    dominates,
    evaluate_fitness,
    fast_non_dominated_sort,
    run,
)
from qkevolve.genome import (
    CircuitGenome,
    EncodingMode,
    GateGene,
    GateKind,
    KIND_BY_CODE,
    decode_genome,
    genome_length,
    random_bits,
)

from conftest import gram, make_eval_data
from oracles import (
    CNOT_MATRIX,
    dual_objective,
    encode_genome,
    mlp_numeric_grads,
    pareto_front_points,
    peel_fronts,
    product_kernel,
    qp_bruteforce,
    reference_states,
)

REFERENCE_GATE_TABLE = {
    "000": GateKind.RX_PARAM,
    "001": GateKind.RY_PARAM,
    "011": GateKind.RZ_PARAM,
    "101": GateKind.CNOT,
    "100": GateKind.IDENTITY,
    "110": GateKind.RX_FIXED,
    "111": GateKind.RY_FIXED,
    "010": GateKind.RZ_FIXED,
}


def report(num, label, passed, detail=""):
    line = f"[criterion {num:02d}] {label}: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


def random_circuit(rng, max_qubits=6, max_layers=11, input_dim=3, cnot_free=False):
    m = int(rng.integers(1, max_qubits + 1))
    n = int(rng.integers(1, max_layers + 1))
    if cnot_free:
        kinds = [k for k in KIND_BY_CODE if k is not GateKind.CNOT]
        grid = tuple(
            tuple(
                GateGene(kinds[int(rng.integers(len(kinds)))], int(rng.integers(1, 17)))
                for _ in range(n)
            )
            for _ in range(m)
        )
        genome = CircuitGenome(grid=grid)
    else:
        bits = random_bits(genome_length(m, n, EncodingMode.FIXED_FEATURES), rng)
        genome = decode_genome(bits, m, n, EncodingMode.FIXED_FEATURES)
    return build_feature_map(genome, input_dim)


def test_criterion_1_encoding_fidelity():
    t0 = time.perf_counter()
    table_ok = True
    for gate_code, kind in REFERENCE_GATE_TABLE.items():
        for angle_value in range(16):
            angle_code = format(angle_value, "04b")
            bits = [int(c) for c in gate_code + angle_code]
            gene = decode_genome(bits, 1, 1, EncodingMode.FIXED_FEATURES).grid[0][0]
            table_ok &= gene.kind is kind and gene.angle_step == angle_value + 1

    rng = np.random.default_rng(1001)
    round_trip_ok = True
    mode = EncodingMode.PCA_HEADER
    length = genome_length(2, 3, mode)
    for _ in range(10_000):
        genome = decode_genome(random_bits(length, rng), 2, 3, mode)
        round_trip_ok &= decode_genome(encode_genome(genome, mode), 2, 3, mode) == genome
    elapsed = time.perf_counter() - t0
    report(
        1,
        "encoding fidelity (128 table cells, 10k round trips)",
        table_ok and round_trip_ok and elapsed < 1.0,
        f"{elapsed:.2f}s",
    )


def test_criterion_2_simulator_correctness():
    rng = np.random.default_rng(1002)
    unit_ok = True
    for _ in range(1000):
        circ = random_circuit(rng)
        x = rng.uniform(-1, 1, size=(1, 3))
        unit_ok &= abs(np.linalg.norm(evaluate_states(circ, x)) - 1.0) <= 1e-10

    # Rx(pi/2) = -i*X prepares basis state |b0 b1> up to the phase (-i)^(b0+b1)
    cnot_ok = True
    for basis in range(4):
        flips = ((basis >> 1) & 1, basis & 1)
        prep = [GateGene(GateKind.RX_FIXED if f else GateKind.IDENTITY, 4) for f in flips]
        cnot_genome = CircuitGenome(
            grid=((prep[0], GateGene(GateKind.CNOT, 1)), (prep[1], GateGene(GateKind.IDENTITY, 1)))
        )
        state = evaluate_states(build_feature_map(cnot_genome, 1), np.zeros((1, 1)))[0]
        cnot_ok &= np.allclose(state, (-1j) ** sum(flips) * CNOT_MATRIX[:, basis], atol=1e-12)

    cos_ok = True
    param_kinds = (GateKind.RX_PARAM, GateKind.RY_PARAM, GateKind.RZ_PARAM)
    for _ in range(100):
        step = int(rng.integers(1, 17))
        kind = param_kinds[int(rng.integers(3))]
        circ = build_feature_map(CircuitGenome(grid=((GateGene(kind, step),),)), 1)
        theta = step * np.pi / 8
        x, xp = rng.uniform(-2, 2, size=2)
        got = gram(circ, np.array([[x]]), np.array([[xp]]))[0, 0]
        cos_ok &= abs(got - np.cos(theta * (x - xp))) <= 1e-10

    report(
        2,
        "simulator correctness (unitarity, CNOT matrix, closed-form kernel)",
        unit_ok and cnot_ok and cos_ok,
    )


def test_criterion_3_gram_properties():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1003)
    ok = True
    cases = []
    for _ in range(50):
        circ = random_circuit(rng)
        points = rng.uniform(-1, 1, size=(20, 3))
        km = gram(circ, points)
        ok &= np.allclose(km, km.T, atol=1e-10)
        ok &= np.allclose(np.diag(km), 1.0, atol=1e-10)
        ok &= np.linalg.eigvalsh(km).min() >= -1e-8
        cases.append((circ, points, km))
    elapsed = time.perf_counter() - t0
    # the same Grams from the dense per-gate reference simulator (untimed)
    for circ, points, km in cases[:10]:
        ref = reference_states(circ, points)
        ok &= np.allclose(km, (ref.conj() @ ref.T).real, atol=1e-10)
    report(3, "kernel Gram properties (50 circuits x 20 points)", ok and elapsed < 30.0, f"{elapsed:.1f}s")


def test_criterion_4_per_qubit_factorization():
    rng = np.random.default_rng(1004)
    ok = True
    for _ in range(100):
        circ = random_circuit(rng, cnot_free=True)
        for _ in range(2):
            x, xp = rng.uniform(-1, 1, size=(2, 3))
            ok &= abs(product_kernel(circ, x, xp) - gram(circ, x[None, :], xp[None, :])[0, 0]) <= 1e-10
    report(4, "entanglement-free kernels factorize per qubit", ok)


def test_criterion_5_svm_optimality():
    rng = np.random.default_rng(1005)
    objective_ok = True
    kkt_ok = True
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        a = rng.normal(size=(n, n + 2))
        k = a @ a.T
        d = np.sqrt(np.diag(k))
        k = k / np.outer(d, d)
        y = rng.choice([-1.0, 1.0], size=n)
        if np.unique(y).size < 2:
            y[0] = -y[0]
        c = float(rng.choice([0.5, 1.0, 2.0]))
        _, best = qp_bruteforce(k, y, c)
        # the objective gap at the default tol; the margin KKT check on a fit
        # at tol 1e-6, so it stays at 2e-6
        gap = abs(dual_objective(svm.fit(k, y, svm.SvmConfig(c_reg=c)).dual_coefs, k, y) - best)
        worst_gap = max(worst_gap, gap)
        objective_ok &= gap <= 1e-4
        config = svm.SvmConfig(c_reg=c, tol=1e-6)
        model = svm.fit(k, y, config)
        alpha = model.dual_coefs
        kkt_ok &= bool(np.all(alpha >= -1e-12) and np.all(alpha <= c + 1e-12))
        kkt_ok &= abs(float(alpha @ y)) < 1e-8
        margin = (alpha > 1e-8) & (alpha < c - 1e-8)
        if margin.any():
            scores = k @ (alpha * y) + model.bias
            kkt_ok &= np.max(np.abs(y[margin] * scores[margin] - 1.0)) < 2 * config.tol
    report(
        5,
        "SVM dual optimality vs brute-force QP oracle (200 instances)",
        objective_ok and kkt_ok,
        f"worst gap {worst_gap:.2e}",
    )


def test_criterion_6_nsga2_correctness(tiny_sep_dataset):
    rng = np.random.default_rng(1006)
    sort_ok = True
    for _ in range(500):
        n = int(rng.integers(1, 13))
        fits = [
            FitnessPair(
                accuracy=float(rng.integers(0, 5)) / 4,
                objective_balance=float(rng.integers(0, 5)),
                complexity=0.0,
            )
            for _ in range(n)
        ]
        expected = peel_fronts([(f.accuracy, f.objective_balance) for f in fits])
        sort_ok &= fast_non_dominated_sort(fits) == expected

    x, y01 = tiny_sep_dataset
    data = make_eval_data(x, y01)
    archive_ok = []

    def check(gen, archive, population):
        archive_ok.append(
            not any(dominates(a.fitness, b.fitness) for a in archive for b in archive)
        )

    run(
        GaConfig(
            qubits=1,
            layers=2,
            mu=12,
            lambda_=6,
            generations=100,
            patience=0,
            seed=42,
        ),
        data,
        on_generation=check,
    )
    report(
        6,
        "NSGA-II sorting vs exhaustive domination; archive non-dominated per generation",
        sort_ok and len(archive_ok) == 100 and all(archive_ok),
    )


@pytest.fixture(scope="module")
def exhaustive_front_runs(tiny_sep_dataset):
    """Criterion 7 computation, shared with the criterion 9 audit."""
    x, y01 = tiny_sep_dataset
    data = make_eval_data(x, y01, seed=0)
    config = GaConfig(qubits=1, layers=2, seed=0)

    t0 = time.perf_counter()
    all_fitness = []
    points = []
    for code in range(1 << 14):
        bits = np.array([(code >> (13 - b)) & 1 for b in range(14)], dtype=np.uint8)
        fitness = evaluate_fitness(Individual(bits=bits), data, config)
        all_fitness.append(fitness)
        points.append((fitness.accuracy, fitness.objective_balance))
    true_front = pareto_front_points(points)

    archives = []
    for seed in range(5):
        result = run(
            GaConfig(
                qubits=1,
                layers=2,
                mu=50,
                lambda_=20,
                generations=500,
                patience=200,
                seed=seed,
            ),
            data,
        )
        archives.append(result)
        all_fitness.extend(ind.fitness for ind in result.archive)
        all_fitness.extend(ind.fitness for ind in result.initial_population)
    elapsed = time.perf_counter() - t0
    return {
        "true_front": true_front,
        "results": archives,
        "elapsed": elapsed,
        "all_fitness": all_fitness,
    }


@pytest.mark.slow
def test_criterion_7_exhaustive_front_recovery(exhaustive_front_runs):
    true_front = exhaustive_front_runs["true_front"]
    best_acc = max(p[0] for p in true_front)
    best_point = min((p for p in true_front if p[0] == best_acc), key=lambda p: p[1])
    subset_ok = best_ok = True
    within_budget = True
    for result in exhaustive_front_runs["results"]:
        got = {(i.fitness.accuracy, i.fitness.objective_balance) for i in result.archive}
        subset_ok &= got <= true_front
        best_ok &= best_point in got
        within_budget &= len(result.history) <= 500
    elapsed = exhaustive_front_runs["elapsed"]
    report(
        7,
        "GA archive within exhaustive 14-bit Pareto front, 5 seeds",
        subset_ok and best_ok and within_budget and elapsed < 600.0,
        f"{elapsed:.0f}s, front size {len(true_front)}",
    )


def _write_feature_images(root: Path, x: np.ndarray, y01: np.ndarray):
    """Serialize 64-feature rows as 8x8 16-bit PGMs under one global affine
    map, so the pipeline's image path reproduces the feature matrix."""
    lo, hi = x.min(), x.max()
    quant = np.round((x - lo) / (hi - lo) * 65535).astype(">u2")
    for i, (row, label) in enumerate(zip(quant, y01)):
        class_dir = root / f"class{label}"
        class_dir.mkdir(parents=True, exist_ok=True)
        (class_dir / f"s{i:03d}.pgm").write_bytes(b"P5\n8 8\n65535\n" + row.tobytes())


@pytest.fixture(scope="module")
def end_to_end_run(two_gauss_dataset, tmp_path_factory):
    """Criterion 8 computation through the real pipeline, shared with 9."""
    x, y01 = two_gauss_dataset
    base = tmp_path_factory.mktemp("e2e")
    _write_feature_images(base / "images", x, y01)
    (base / "run.cfg").write_text(
        "\n".join(
            [
                "mode = pca",
                f"dataset = {base / 'images'}",
                f"output_dir = {base / 'out'}",
                "image_size = 8",
                "qubits = 6",
                "layers = 11",
                "mu = 50",
                "lambda = 20",
                "generations = 200",
                "patience = 0",
                "seed = 5",
                "baseline = true",
            ]
        )
    )
    t0 = time.perf_counter()
    pipeline_report = run_pipeline(parse_config_file(base / "run.cfg"))
    elapsed = time.perf_counter() - t0
    return {"report": pipeline_report, "elapsed": elapsed, "out": base / "out"}


@pytest.mark.slow
def test_criterion_8_end_to_end_sanity(end_to_end_run):
    rep = end_to_end_run["report"]
    elapsed = end_to_end_run["elapsed"]
    best = rep["best"]
    accuracy_ok = best["accuracy"] >= 0.90
    complexity_ok = best["complexity"] < rep["generation0"]["median_complexity"]
    gens_ok = rep["generations_run"] <= 200
    report(
        8,
        "two-Gaussian pipeline reaches 0.90 with shrinking complexity",
        accuracy_ok and complexity_ok and gens_ok and elapsed < 900.0,
        f"acc {best['accuracy']:.3f}, C {best['complexity']:.2f} vs gen0 median "
        f"{rep['generation0']['median_complexity']:.2f}, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_criterion_9_dynamic_fitness_arithmetic(exhaustive_front_runs, end_to_end_run):
    checked = 0
    ok = True
    for fitness in exhaustive_front_runs["all_fitness"]:
        ok &= abs(fitness.objective_balance - fitness.complexity * (1 + fitness.accuracy**2)) <= 1e-12
        checked += 1
    archive_path = end_to_end_run["out"] / "archive.json"
    for member in json.loads(archive_path.read_text()):
        ok &= (
            abs(member["objective_balance"] - member["complexity"] * (1 + member["accuracy"] ** 2))
            <= 1e-12
        )
        checked += 1
    best = end_to_end_run["report"]["best"]
    ok &= abs(best["objective_balance"] - best["complexity"] * (1 + best["accuracy"] ** 2)) <= 1e-12
    report(9, "O_B = C*(1+acc^2) on every audited individual", ok, f"{checked} audited")


def test_criterion_10_mlp_baseline():
    rng = np.random.default_rng(1010)
    grad_ok = True
    for trial in range(50):
        n = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        h = int(rng.integers(2, 5))
        model = init_model(d, hidden_dim=h, seed=trial)
        xs = rng.normal(size=(n, d))
        y = rng.integers(0, 2, n)
        _, analytic = loss_and_grads(model, xs, y)
        numeric = mlp_numeric_grads(model, xs, y, h=1e-5)
        for key in analytic:
            rel = np.abs(analytic[key] - numeric[key]) / np.maximum(
                1.0, np.maximum(np.abs(analytic[key]), np.abs(numeric[key]))
            )
            grad_ok &= float(rel.max()) <= 1e-4

    x0 = rng.normal(loc=(-2, -2), scale=0.5, size=(40, 2))
    x1 = rng.normal(loc=(2, 2), scale=0.5, size=(40, 2))
    xs = np.vstack([x0, x1])
    ys = np.array([0] * 40 + [1] * 40)
    model = mlp_train(xs, ys, lr=0.01, epochs=100, seed=3)
    train_acc = mlp_evaluate(model, xs, ys)
    report(
        10,
        "MLP gradients vs central differences; blobs trainable",
        grad_ok and train_acc >= 0.95,
        f"train acc {train_acc:.3f}",
    )


def test_criterion_11_paper_scale_configuration(two_gauss_dataset, tmp_path):
    # The reference medical image datasets are external downloads and the
    # autoencoder feature extractor is out of scope, so their accuracy figures
    # are not reproduced here. Substitute check: with user-supplied data the
    # pipeline must run to completion at the full deployment size (6 qubits x
    # 11 layers) and report all three model accuracies.
    x, y01 = two_gauss_dataset
    _write_feature_images(tmp_path / "images", x[:60], y01[:60])
    common = [
        "qubits = 6",
        "layers = 11",
        "mu = 10",
        "lambda = 6",
        "generations = 3",
        "patience = 0",
        "seed = 1",
        "baseline = true",
    ]
    (tmp_path / "pca.cfg").write_text(
        "\n".join(
            ["mode = pca", f"dataset = {tmp_path / 'images'}", f"output_dir = {tmp_path / 'pca_out'}", "image_size = 8"]
            + common
        )
    )
    header = ",".join([f"f{i}" for i in range(64)] + ["label"])
    rows = [",".join(str(v) for v in row) + f",{label}" for row, label in zip(x[:60], y01[:60])]
    (tmp_path / "features.csv").write_text(header + "\n" + "\n".join(rows))
    (tmp_path / "ext.cfg").write_text(
        "\n".join(
            ["mode = external", f"dataset = {tmp_path / 'features.csv'}", f"output_dir = {tmp_path / 'ext_out'}"]
            + common
        )
    )

    pca_report = run_pipeline(parse_config_file(tmp_path / "pca.cfg"))
    ext_report = run_pipeline(parse_config_file(tmp_path / "ext.cfg"))
    accuracies = {
        "pca_qsvm": pca_report["best"]["accuracy"],
        "external_qsvm": ext_report["best"]["accuracy"],
        "pca64_mlp": pca_report["baseline"]["accuracy"],
    }
    ok = all(isinstance(v, float) and 0.0 <= v <= 1.0 for v in accuracies.values())
    ok &= genome_length(6, 11, EncodingMode.PCA_HEADER) == 469
    report(
        11,
        "full-scale configuration runs to completion, three accuracies reported",
        ok,
        ", ".join(f"{k}={v:.3f}" for k, v in accuracies.items()),
    )
