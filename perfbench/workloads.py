"""Workload definitions and the closed loop that runs them.

Every workload runs in one process, one round after another, each round
starting only when the previous one has finished. A round is identical work
every time: it prepares the data from the generated files and then either
runs a fixed number of generations of `evolve.run` or scores a fixed list of
genomes with `evolve.evaluate_fitness`. Rounds repeat until the requested
seconds have passed, so a faster commit measures more rounds of the same work.
"""

from __future__ import annotations

import logging
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from qkevolve import cli, evolve, genome, svm

import checks
from spans import Recorder, Target, installed

# Gate codes (first three bits of a gene): CNOT is 101, identity is 100.
CNOT_CODE = (1, 0, 1)
IDENTITY_CODE = (1, 0, 0)
# Setup is repeated at least this often so setup_s is a median.
MIN_ROUNDS = 3
# The GA (and split) seed, and the seed of the replay genome list, are part of
# each workload's definition; --seed makes the dataset. A run-dependent GA seed
# changes which genomes are evaluated, and at n_train=150 a genome whose PCA
# header asks for one component can make SMO run for seconds instead of ~45 ms,
# so generation times then varied by 45-75% between seeds.
WORKLOAD_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    mode: str  # "pca" reads a PGM tree, "external" a 64-feature CSV
    samples: int
    image_side: int
    threads: int = 1
    generations: int = 0  # evolve workloads
    replay_genomes: int = 0  # replay workloads: random genomes, each also scored CNOT-free
    qubits: int = 6
    layers: int = 11
    mu: int = 50
    lambda_: int = 20

    @property
    def is_replay(self) -> bool:
        return self.replay_genomes > 0


# evolve-n150 is the north-star loop and stays runnable by name, but it is not
# in BENCHMARK.json: on a shared 2-core Xeon its timings moved by 20-30%
# between identical runs (its ~40 ms evaluations are interpreter-bound SMO),
# more than a bound of 0.25 allows. Its layers are all exercised by the other
# two workloads: evolve-img250-t2 is the same loop at n_train=150.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="evolve-n150",
            why="North-star loop: PCA-header mode, n_train=150, d=64, one thread; simulation "
            "and SMO share the cost, with the fitness cache and NSGA-II active",
            mode="pca",
            samples=200,
            image_side=8,
            generations=8,
        ),
        Workload(
            name="replay-n450",
            why="Fixed seeded genome list, half CNOT-free, scored once each at n_train=450 on "
            "64 external features; Gram and SMO dominate, bypassing PCA, cache and selection",
            mode="external",
            samples=600,
            image_side=8,
            replay_genomes=20,
        ),
        Workload(
            name="evolve-img250-t2",
            why="d=62,500 PCA-header mode on two evaluation threads: per-evaluation PCA "
            "projection dominates, ingest and the full PCA fit dominate setup, memory peaks",
            mode="pca",
            samples=200,
            image_side=250,
            threads=2,
            generations=5,
        ),
    )
}


def generate_inputs(workload: Workload, seed: int, outdir: Path, root: Path) -> Path:
    """Write the workload's dataset with the repository's synthetic generator
    (in a child process, so neither its time nor its memory is measured) and
    return the dataset path the pipeline reads."""
    subprocess.run(
        [
            sys.executable,
            str(root / "scripts" / "make_synthetic_data.py"),
            str(outdir),
            "--samples",
            str(workload.samples),
            "--image-side",
            str(workload.image_side),
            "--seed",
            str(seed),
        ],
        check=True,
        stdout=subprocess.DEVNULL,
    )
    return outdir / ("images" if workload.mode == "pca" else "features.csv")


def run_config(workload: Workload, dataset: Path, workdir: Path) -> cli.RunConfig:
    return cli.RunConfig(
        mode=workload.mode,
        dataset=dataset,
        output_dir=workdir / "out",
        image_size=workload.image_side,
        qubits=workload.qubits,
        layers=workload.layers,
        mu=workload.mu,
        lambda_=workload.lambda_,
        generations=max(workload.generations, 1),
        patience=0,
        seed=WORKLOAD_SEED,
        baseline=False,
    )


def replay_genomes(workload: Workload) -> list[np.ndarray]:
    """Seeded uniform-random genomes, each followed by its CNOT-free form
    (every CNOT gene rewritten to identity)."""
    rng = np.random.default_rng(WORKLOAD_SEED)
    mode = genome.EncodingMode.FIXED_FEATURES
    length = genome.genome_length(workload.qubits, workload.layers, mode)
    out = []
    for _ in range(workload.replay_genomes):
        bits = genome.random_bits(length, rng)
        out.extend([bits, without_cnots(bits)])
    return out


def without_cnots(bits: np.ndarray) -> np.ndarray:
    genes = bits.reshape(-1, genome.GATE_BITS).copy()
    cnot = (genes[:, :3] == CNOT_CODE).all(axis=1)
    genes[cnot, :3] = IDENTITY_CODE
    return genes.ravel()


# ---------------------------------------------------------------------------
# rounds


class FailureCounter(logging.Handler):
    """Counts evaluations that `evaluate_fitness` absorbed into worst-case
    fitness, from its warning on the `qkevolve.evolve` logger."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "worst-case" in record.getMessage():
            self.count += 1


@dataclass
class Round:
    t0: float
    t_setup: float  # first on_generation callback; end of prepare_data on replay
    stamps: list[float]  # generation ends; on replay, ends of each batch of lambda
    t_end: float
    individuals: list  # final archive, or the scored replay list
    population: list  # final population, or the scored replay list
    evaluations: int  # RunResult.evaluations, or the replay list length
    traced: bool = False
    eval_spans: list = field(default_factory=list)
    failures: int = 0

    @property
    def setup_s(self) -> float:
        return self.t_setup - self.t0

    @property
    def run_s(self) -> float:
        return self.t_end - self.t0


def _evolve_round(workload, config):
    stamps = []
    population = []

    def on_generation(generation, archive, current):
        stamps.append(time.perf_counter())
        population[:] = current

    t0 = time.perf_counter()
    prepared = cli.prepare_data(config)
    result = evolve.run(
        config.ga_config(), prepared.eval_data, threads=workload.threads, on_generation=on_generation
    )
    t_end = time.perf_counter()
    return prepared, Round(
        t0=t0,
        t_setup=stamps[0],
        stamps=stamps,
        t_end=t_end,
        individuals=result.archive,
        population=population,
        evaluations=result.evaluations,
    )


def _replay_round(workload, config, genomes):
    ga_config = config.ga_config()
    t0 = time.perf_counter()
    prepared = cli.prepare_data(config)
    t_setup = time.perf_counter()
    stamps = [t_setup]
    scored = []
    for eval_id, bits in enumerate(genomes):
        ind = evolve.Individual(bits=bits.copy(), eval_id=eval_id)
        ind.fitness = evolve.evaluate_fitness(ind, prepared.eval_data, ga_config)
        scored.append(ind)
        if (eval_id + 1) % workload.lambda_ == 0 or eval_id + 1 == len(genomes):
            stamps.append(time.perf_counter())
    t_end = time.perf_counter()
    return prepared, Round(
        t0=t0,
        t_setup=t_setup,
        stamps=stamps,
        t_end=t_end,
        individuals=scored,
        population=scored,
        evaluations=len(genomes),
    )


def _eval_id(args, kwargs):
    return args[0].eval_id


def boundary_targets() -> list[Target]:
    """The untraced run's only hook: the fitness-evaluation boundary."""
    return [Target(evolve, "evaluate_fitness", "evolve.evaluate_fitness", eval_id=_eval_id)]


def traced_targets(problems: list[str]) -> list[Target]:
    """Every layer boundary the pipeline calls through. Observers record
    span attributes and append correctness problems to `problems`."""

    def on_build(args, kwargs, circ):
        return {"cnots": circ.census.n_cnot}

    def on_states(args, kwargs, states):
        problems.extend(checks.check_states(states))
        return {"cnot_free": args[0].census.n_cnot == 0}

    def on_pca_transform(args, kwargs, out):
        model, x = args
        nbytes = np.asarray(x).nbytes + model.components.nbytes + model.mean.nbytes + out.nbytes
        return {"mb": nbytes / 1e6}

    def on_fit(args, kwargs, model):
        k, y = np.asarray(args[0]), np.asarray(args[1], dtype=float)
        config = args[2] if len(args) > 2 else svm.SvmConfig()
        problems.extend(checks.check_gram(k))
        problems.extend(checks.check_dual(model.dual_coefs, y, config.c_reg))
        gap = checks.kkt_gap(model.dual_coefs, k, y, config.c_reg)
        return {"n_support": model.n_support, "unconverged": gap > config.tol}

    return [
        Target(cli, "prepare_data", "cli.prepare_data"),
        Target(cli, "load_image_dataset", "cli.load_image_dataset"),
        Target(cli, "load_external_features", "reduce.load_external_features"),
        Target(cli, "stratified_split", "reduce.stratified_split"),
        Target(cli, "standardize_fit", "reduce.standardize"),
        Target(cli, "standardize_apply", "reduce.standardize"),
        Target(evolve, "evaluate_fitness", "evolve.evaluate_fitness", eval_id=_eval_id),
        Target(evolve, "decode_genome", "genome.decode_genome"),
        Target(evolve, "pca_fit", "reduce.pca_fit"),
        Target(evolve, "pca_slice", "reduce.pca_slice"),
        Target(evolve, "pca_transform", "reduce.pca_transform", observe=on_pca_transform),
        Target(evolve, "build_feature_map", "circuit.build_feature_map", observe=on_build),
        Target(evolve, "evaluate_states", "circuit.evaluate_states", observe=on_states),
        Target(evolve, "complexity", "circuit.complexity"),
        Target(svm, "fit", "svm.fit", observe=on_fit),
        Target(svm, "predict", "svm.predict"),
        Target(svm, "accuracy", "svm.accuracy"),
        Target(evolve, "nsga2_select", "evolve.nsga2_select"),
        Target(evolve, "update_archive", "evolve.update_archive"),
    ]


@dataclass
class Outcome:
    workload: Workload
    rounds: list[Round]
    recorder: Recorder  # spans of the traced rounds
    problems: list[str]


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool, root: Path,
                 workdir: Path) -> Outcome:
    """Generate inputs (untimed), then run rounds for `seconds`, at least
    MIN_ROUNDS of them. With `trace`, rounds alternate untraced and traced
    (the untraced ones give the tracing overhead), then check the outputs."""
    dataset = generate_inputs(workload, seed, workdir / "data", root)
    config = run_config(workload, dataset, workdir)
    genomes = replay_genomes(workload) if workload.is_replay else None

    traced_recorder = Recorder()
    problems: list[str] = []
    rounds: list[Round] = []
    logger = logging.getLogger(evolve.__name__)
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        traced = trace and len(rounds) % 2 == 1
        recorder = traced_recorder if traced else Recorder()
        targets = traced_targets(problems) if traced else boundary_targets()
        first_span = len(recorder.spans)
        counter = FailureCounter()
        logger.addHandler(counter)
        try:
            with installed(recorder, targets):
                if workload.is_replay:
                    prepared, rnd = _replay_round(workload, config, genomes)
                else:
                    prepared, rnd = _evolve_round(workload, config)
        finally:
            logger.removeHandler(counter)
        rnd.traced = traced
        rnd.failures = counter.count
        rnd.eval_spans = [
            s for s in recorder.spans[first_span:] if s.name == "evolve.evaluate_fitness"
        ]
        rounds.append(rnd)

    problems.extend(_check_outputs(workload, config, prepared, rounds))
    return Outcome(workload, rounds, traced_recorder, problems)


def _fingerprint(rnd: Round):
    return [(ind.bits.tobytes(), ind.fitness) for ind in rnd.individuals]


def _check_outputs(workload, config, prepared, rounds) -> list[str]:
    """Untimed checks on the last round: archive order and non-domination,
    fresh re-evaluation of every member (with state, Gram and dual checks on
    those re-evaluations), and identical results from every round."""
    last = rounds[-1]
    archive = last.individuals
    if workload.is_replay:
        archive = evolve.update_archive([], last.individuals)
    problems = checks.check_archive(archive)
    if any(_fingerprint(r) != _fingerprint(last) for r in rounds):
        problems.append("rounds of identical work gave different results")
    with installed(Recorder(), [t for t in traced_targets(problems) if t.observe]):
        problems.extend(checks.check_reproduces(archive, prepared.eval_data, config.ga_config()))
    return problems


def tiny(workload: Workload) -> Workload:
    """A shrunken copy of a workload with the same mode, threads and shape of
    loop, for the benchmark's own tests."""
    sizes = dict(samples=40, image_side=4, qubits=2, layers=3, mu=6, lambda_=4)
    if workload.is_replay:
        sizes["replay_genomes"] = 3
    else:
        sizes["generations"] = 3
    return replace(workload, **sizes)


def available_threads() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
