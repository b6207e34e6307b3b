"""Multiobjective (mu + lambda) genetic search with NSGA-II selection.

Individuals are fixed-length bitstrings. Fitness is the pair (test accuracy,
objective balance O_B), where O_B = C + C * accuracy^2 folds the circuit
complexity C together with the achieved accuracy so that neither objective
starves the other. Accuracy is maximized, O_B minimized; raw C is carried
along for reporting.

Evaluation of one individual is fully deterministic (the SVM solver and the
simulator use no randomness) and only reads the shared `EvalData`, whose PCA
scores are computed before the run. Individuals are evaluated one at a time,
in eval-id order. All variation randomness is drawn from per-generation
streams derived from (seed, generation).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import svm
from .circuit import FeatureMapCircuit, build_feature_map, complexity, evaluate_states
from .genome import (
    MAX_PCA_COMPONENTS,
    CircuitGenome,
    EncodingMode,
    bits_to_line,
    decode_genome,
    genome_length,
    random_bits,
)
# Called through this module's names from `project_pca`, which is where the
# benchmark traces them. The benchmark also looks up `pca_slice` here, which
# no pipeline path calls; ROADMAP item 4 drops that target and this import.
from .reduce import pca_fit, pca_slice, pca_transform  # noqa: F401
from .svm import SvmConfig


def objective_balance(complexity_value: float, accuracy: float) -> float:
    """O_B = C + C * accuracy^2."""
    return complexity_value + complexity_value * (accuracy * accuracy)


@dataclass(frozen=True)
class FitnessPair:
    accuracy: float
    objective_balance: float
    complexity: float


@dataclass
class Individual:
    bits: np.ndarray
    fitness: FitnessPair | None = None
    eval_id: int = -1


@dataclass
class GaConfig:
    qubits: int
    layers: int
    mu: int = 50
    lambda_: int = 20
    p_cross: float = 0.6
    p_ind: float = 0.4
    p_gen: float = 0.3
    generations: int = 2000
    patience: int = 200  # stop after this many generations without archive change; 0 disables
    seed: int = 0

    def __post_init__(self):
        if self.mu < 1 or self.lambda_ < 1:
            raise ValueError("mu and lambda must be at least 1")
        if self.qubits < 1 or self.layers < 1:
            raise ValueError("qubits and layers must be at least 1")
        if self.generations < 1:
            raise ValueError("generations must be at least 1")
        if self.patience < 0:
            raise ValueError("patience must be at least 0")
        if self.seed < 0:
            raise ValueError("seed must be at least 0")
        for name in ("p_cross", "p_ind", "p_gen"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass
class EvalData:
    """Prepared dataset shared by every fitness evaluation: already split,
    standardized, with labels in {-1, +1}. Its `mode` selects the genome
    encoding. In PCA_HEADER mode x_train and x_test are the rows' scores from
    `project_pca`, on the most components a header can request, and a header
    asking for r components reads their leading min(r, r_max) columns. In
    FIXED_FEATURES mode they are the fixed features."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    svm_config: SvmConfig = field(default_factory=SvmConfig)
    mode: EncodingMode = EncodingMode.FIXED_FEATURES


def project_pca(x_train: np.ndarray, x_test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fit the leading r_max = min(n_train - 1, d, 64) PCA components on the
    training rows once, and return the train scores the fit computed and the
    test scores. Each count r then slices the leading r columns, which
    matches a fit of r components up to rounding in the sums. Both blocks are
    overwritten: the fit consumes the training rows, and the test rows are
    centered in place."""
    model = pca_fit(x_train, MAX_PCA_COMPONENTS)
    return model.scores, pca_transform(model, x_test)


def compile_individual(
    bits, data: EvalData, config: GaConfig
) -> tuple[CircuitGenome, FeatureMapCircuit, np.ndarray, np.ndarray]:
    """Decode a bitstring and build the circuit it is scored with, together
    with its train and test inputs: the leading principal-component scores
    its header asks for, or the fixed features without a header."""
    genome = decode_genome(bits, config.qubits, config.layers, data.mode)
    x_train, x_test = data.x_train, data.x_test
    if genome.pca_components is not None:
        x_train, x_test = x_train[:, : genome.pca_components], x_test[:, : genome.pca_components]
    return genome, build_feature_map(genome, x_train.shape[1]), x_train, x_test


def train_individual(
    bits, data: EvalData, config: GaConfig
) -> tuple[FeatureMapCircuit, svm.TrainedQSVM, float]:
    """Simulate the compiled circuit, train the QSVM on its Gram matrix and
    score it on the held-out rows. Raises what `compile_individual` and the
    SVM guards raise."""
    _, circ, x_train, x_test = compile_individual(bits, data, config)
    states = evaluate_states(circ, np.concatenate([x_train, x_test]))
    # Re<s|s'> = <Re s, Re s'> + <Im s, Im s'>: one real product per block,
    # and numpy forms f_train @ f_train.T as a bitwise-symmetric rank-k update.
    features = np.concatenate([states.real, states.imag], axis=1)
    f_train, f_test = features[: len(x_train)], features[len(x_train) :]
    k_train, k_test = f_train @ f_train.T, f_test @ f_train.T
    classifier = svm.fit(k_train, data.y_train, data.svm_config)
    return circ, classifier, svm.accuracy(svm.predict(classifier, k_test), data.y_test)


def dominates(f1: FitnessPair, f2: FitnessPair) -> bool:
    """Pareto domination under (accuracy max, objective_balance min)."""
    if f1.accuracy < f2.accuracy or f1.objective_balance > f2.objective_balance:
        return False
    return f1.accuracy > f2.accuracy or f1.objective_balance < f2.objective_balance


def evaluate_fitness(ind: Individual, data: EvalData, config: GaConfig) -> FitnessPair:
    """Score one individual through `train_individual`. On data that
    `prepare_data` builds no evaluation fails, so an error stops the run: a
    ValueError is re-raised with the eval id and the bitstring in its message,
    so the genome can be replayed with `qkevolve inspect`, and any other
    exception propagates unchanged."""
    try:
        circ, _, acc = train_individual(ind.bits, data, config)
    except ValueError as exc:
        raise ValueError(f"evaluation {ind.eval_id} ({bits_to_line(ind.bits)}): {exc}") from exc
    c = complexity(circ)
    return FitnessPair(accuracy=acc, objective_balance=objective_balance(c, acc), complexity=c)


def flipbit_mutation(ind: Individual, config: GaConfig, rng: np.random.Generator) -> Individual:
    """With probability p_ind, flip each bit independently with probability
    p_gen. Fitness is invalidated only if some bit actually changed."""
    if rng.random() >= config.p_ind:
        return ind
    flips = rng.random(ind.bits.size) < config.p_gen
    if not flips.any():
        return ind
    return Individual(bits=ind.bits ^ flips.astype(np.uint8))


def two_point_crossover(
    a: Individual, b: Individual, p_cross: float, rng: np.random.Generator
) -> tuple[Individual, Individual]:
    """With probability p_cross, swap the segment between two uniform cut
    points 1 <= i < j < L; otherwise return plain copies. Strings shorter than
    three bits admit no interior cut pair and always copy. Children carry no
    fitness: `run` finds a copy's fitness in its bitstring cache."""
    if a.bits.size != b.bits.size:
        raise ValueError("parents must have equal length")
    length = a.bits.size
    crossed = rng.random() < p_cross
    if crossed and length >= 3:
        i, j = np.sort(rng.choice(np.arange(1, length), size=2, replace=False))
        bits1 = a.bits.copy()
        bits2 = b.bits.copy()
        bits1[i:j], bits2[i:j] = b.bits[i:j].copy(), a.bits[i:j].copy()
        return Individual(bits=bits1), Individual(bits=bits2)
    return Individual(bits=a.bits.copy()), Individual(bits=b.bits.copy())


def fast_non_dominated_sort(fitnesses: list[FitnessPair]) -> list[list[int]]:
    """Indices grouped into fronts, rank 0 first, each sorted ascending.

    A sweep in (accuracy descending, O_B ascending) order puts each point in
    the first front whose latest member does not dominate it, or opens a new
    front. In two objectives that member has the lowest O_B in its front, all
    at accuracy no lower than the point's, so it dominates the point whenever
    any member of the front does.
    """
    order = sorted(
        range(len(fitnesses)),
        key=lambda i: (-fitnesses[i].accuracy, fitnesses[i].objective_balance),
    )
    fronts: list[list[int]] = []
    for i in order:
        for front in fronts:
            if not dominates(fitnesses[front[-1]], fitnesses[i]):
                front.append(i)
                break
        else:
            fronts.append([i])
    return [sorted(f) for f in fronts]


def _crowding(fitnesses: list[FitnessPair], front: list[int]) -> dict[int, float]:
    """Crowding distance on (accuracy, objective_balance), each normalized by
    its spread within the front; boundary points get infinity."""
    dist = {i: 0.0 for i in front}
    if len(front) <= 2:
        return {i: float("inf") for i in front}
    for key in (lambda f: f.accuracy, lambda f: f.objective_balance):
        ordered = sorted(front, key=lambda i: key(fitnesses[i]))
        lo, hi = key(fitnesses[ordered[0]]), key(fitnesses[ordered[-1]])
        dist[ordered[0]] = dist[ordered[-1]] = float("inf")
        span = hi - lo
        if span <= 0:
            continue
        for pos in range(1, len(ordered) - 1):
            gap = key(fitnesses[ordered[pos + 1]]) - key(fitnesses[ordered[pos - 1]])
            dist[ordered[pos]] += gap / span
    return dist


def _rank_and_crowding(population: list[Individual]):
    fitnesses = [ind.fitness for ind in population]
    fronts = fast_non_dominated_sort(fitnesses)
    rank = [0] * len(population)
    crowd = [0.0] * len(population)
    for r, front in enumerate(fronts):
        dist = _crowding(fitnesses, front)
        for i in front:
            rank[i] = r
            crowd[i] = dist[i]
    return fronts, rank, crowd


def nsga2_select(population: list[Individual], mu: int) -> list[Individual]:
    """Survivor selection: whole fronts by rank, the last partial front by
    crowding distance (descending), remaining ties by eval_id ascending."""
    if any(ind.fitness is None for ind in population):
        raise ValueError("selection requires every individual to be evaluated")
    fronts, _, crowd = _rank_and_crowding(population)
    chosen: list[Individual] = []
    for front in fronts:
        if len(chosen) + len(front) <= mu:
            chosen.extend(population[i] for i in front)
        else:
            ordered = sorted(front, key=lambda i: (-crowd[i], population[i].eval_id))
            chosen.extend(population[i] for i in ordered[: mu - len(chosen)])
            break
        if len(chosen) == mu:
            break
    return chosen


def _tournament(
    population: list[Individual], rank: list[int], crowd: list[float], rng: np.random.Generator
) -> Individual:
    i = int(rng.integers(len(population)))
    j = int(rng.integers(len(population)))
    key_i = (rank[i], -crowd[i], population[i].eval_id)
    key_j = (rank[j], -crowd[j], population[j].eval_id)
    return population[i] if key_i <= key_j else population[j]


def _archive_key(ind: Individual):
    return (-ind.fitness.accuracy, ind.fitness.objective_balance, ind.eval_id)


def update_archive(archive: list[Individual], candidates: list[Individual]) -> list[Individual]:
    """Merge candidates into the non-dominated archive. The result is sorted
    by accuracy descending then O_B ascending; duplicate fitness points keep
    only their earliest individual."""
    merged = sorted(archive + candidates, key=_archive_key)
    kept: list[Individual] = []
    min_ob = float("inf")
    for ind in merged:
        if ind.fitness.objective_balance < min_ob:
            kept.append(ind)
            min_ob = ind.fitness.objective_balance
    return kept


@dataclass(frozen=True)
class HistoryRow:
    generation: int
    best_accuracy: float
    best_objective_balance: float
    archive_size: int
    evaluations: int  # individuals resolved so far, cache hits included: mu + generation * lambda
    wallclock_seconds: float


@dataclass
class RunResult:
    archive: list[Individual]
    history: list[HistoryRow]  # one row per generation run, at least one
    initial_population: list[Individual]

    @property
    def evaluations(self) -> int:
        return self.history[-1].evaluations


def _stream(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def run(
    config: GaConfig,
    data: EvalData,
    threads: int = 1,
    on_generation=None,
) -> RunResult:
    """Full (mu + lambda) evolution.

    Each generation draws lambda parents by binary domination tournament,
    recombines consecutive pairs, mutates, and looks every offspring up in a
    cache keyed by its bitstring, so each distinct bitstring is evaluated
    once per run, in eval-id order. It then selects the next mu from parents
    plus offspring. The Pareto archive is updated every generation, and the
    run stops after `generations` generations or once the archive has not
    changed for `patience` generations. The best individual is the archive's
    first member: maximum accuracy, ties broken by minimum O_B, then eval_id.

    `threads` is accepted and ignored: a run starts no thread. Its one caller
    outside the tests is perfbench's `evolve-img250-t2`; ROADMAP item 4
    drops it there and deletes the keyword.
    """
    length = genome_length(config.qubits, config.layers, data.mode)
    cache: dict[bytes, FitnessPair] = {}

    def resolve(pending: list[Individual]):
        for ind in pending:
            key = ind.bits.tobytes()
            if key not in cache:
                cache[key] = evaluate_fitness(ind, data, config)
            ind.fitness = cache[key]

    init_rng = _stream(config.seed, 0)
    population = [Individual(bits=random_bits(length, init_rng), eval_id=i) for i in range(config.mu)]
    next_id = config.mu
    resolve(population)
    initial_population = list(population)
    archive = update_archive([], population)

    history: list[HistoryRow] = []
    t0 = time.perf_counter()
    stagnant = 0
    for generation in range(1, config.generations + 1):
        rng = _stream(config.seed, 1, generation)
        _, rank, crowd = _rank_and_crowding(population)
        parents = [_tournament(population, rank, crowd, rng) for _ in range(config.lambda_)]
        offspring: list[Individual] = []
        for k in range(0, config.lambda_ - 1, 2):
            offspring.extend(two_point_crossover(parents[k], parents[k + 1], config.p_cross, rng))
        if config.lambda_ % 2:
            offspring.append(Individual(bits=parents[-1].bits.copy()))
        offspring = [flipbit_mutation(child, config, rng) for child in offspring]
        for child in offspring:
            child.eval_id = next_id
            next_id += 1
        resolve(offspring)

        population = nsga2_select(population + offspring, config.mu)
        previous = [(ind.fitness.accuracy, ind.fitness.objective_balance) for ind in archive]
        archive = update_archive(archive, offspring)
        current = [(ind.fitness.accuracy, ind.fitness.objective_balance) for ind in archive]
        stagnant = stagnant + 1 if current == previous else 0

        history.append(
            HistoryRow(
                generation=generation,
                best_accuracy=archive[0].fitness.accuracy,
                best_objective_balance=min(i.fitness.objective_balance for i in archive),
                archive_size=len(archive),
                evaluations=config.mu + generation * config.lambda_,
                wallclock_seconds=time.perf_counter() - t0,
            )
        )
        if on_generation is not None:
            on_generation(generation, archive, population)
        if config.patience and stagnant >= config.patience:
            break

    return RunResult(archive=archive, history=history, initial_population=initial_population)
