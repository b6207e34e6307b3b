"""Multiobjective (mu + lambda) genetic search with NSGA-II selection.

Individuals are fixed-length bitstrings. Fitness is the pair (test accuracy,
objective balance O_B), where O_B = C + C * accuracy^2 folds the circuit
complexity C together with the achieved accuracy so that neither objective
starves the other. Accuracy is maximized, O_B minimized; raw C is carried
along for reporting.

Evaluation of one individual is fully deterministic (the SVM solver, PCA and
the simulator use no randomness), so offspring within a generation can be
evaluated on any number of threads with schedule-independent results. All
variation randomness is drawn from per-generation streams derived from
(seed, generation).
"""

from __future__ import annotations

import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import svm
from .circuit import FeatureMapCircuit, build_feature_map, complexity, evaluate_states
from .genome import (
    MAX_PCA_COMPONENTS,
    CircuitGenome,
    EncodingMode,
    decode_genome,
    genome_length,
    random_bits,
)
# pca_slice is not called here; it stays importable as evolve.pca_slice only
# because the benchmark traces that name, and can go with its trace target.
from .reduce import pca_fit, pca_slice, pca_transform  # noqa: F401
from .svm import SvmConfig

log = logging.getLogger(__name__)


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
    m_qubits: int
    n_layers: int
    mode: EncodingMode
    mu: int = 50
    lambda_: int = 20
    p_cross: float = 0.6
    p_ind: float = 0.4
    p_gen: float = 0.3
    max_generations: int = 2000
    patience: int = 200  # stop after this many generations without archive change; 0 disables
    seed: int = 0

    def __post_init__(self):
        if self.mu < 1 or self.lambda_ < 1:
            raise ValueError("mu and lambda must be at least 1")
        if self.m_qubits < 1 or self.n_layers < 1:
            raise ValueError("grid dimensions must be at least 1x1")
        for name in ("p_cross", "p_ind", "p_gen"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")


@dataclass
class EvalData:
    """Prepared dataset shared by every fitness evaluation: already split,
    standardized, with labels in {-1, +1}. In PCA mode, train and test are
    projected once onto the most components a header can request (at most
    n_train - 1); each count then slices leading columns, which matches a
    refit at that count up to rounding in the projection sums."""

    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray
    svm_config: SvmConfig = field(default_factory=SvmConfig)
    _pca_scores: tuple[np.ndarray, np.ndarray] | None = field(default=None, init=False, repr=False)
    _pca_lock: threading.Lock = field(default_factory=threading.Lock, init=False, repr=False)

    def pca_inputs(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """Views of the train and test scores on the leading min(r, r_max)
        components, for r >= 1. Thread-safe."""
        with self._pca_lock:
            if self._pca_scores is None:
                n, d = self.x_train.shape
                model = pca_fit(self.x_train, min(n - 1, d, MAX_PCA_COMPONENTS))
                self._pca_scores = (pca_transform(model, self.x_train), pca_transform(model, self.x_test))
        train, test = self._pca_scores
        return train[:, :r], test[:, :r]


def compile_individual(
    bits, data: EvalData, config: GaConfig
) -> tuple[CircuitGenome, FeatureMapCircuit, np.ndarray, np.ndarray]:
    """Decode a bitstring and build the circuit it is scored with, together
    with its train and test inputs: the leading principal components its
    header asks for (clamped as `EvalData.pca_inputs` does), or the fixed
    features without a header."""
    genome = decode_genome(bits, config.m_qubits, config.n_layers, config.mode)
    if genome.pca_components is None:
        x_train, x_test = data.x_train, data.x_test
    else:
        x_train, x_test = data.pca_inputs(genome.pca_components)
    return genome, build_feature_map(genome, x_train.shape[1]), x_train, x_test


def train_individual(
    bits, data: EvalData, config: GaConfig
) -> tuple[FeatureMapCircuit, svm.TrainedQSVM, float]:
    """Simulate the compiled circuit, train the QSVM on its Gram matrix and
    score it on the held-out rows. Raises what the SVM and PCA guards raise."""
    _, circ, x_train, x_test = compile_individual(bits, data, config)
    s_train = evaluate_states(circ, x_train)
    s_test = evaluate_states(circ, x_test)
    k_train, k_test = ((s.conj() @ s_train.T).real for s in (s_train, s_test))
    classifier = svm.fit(k_train, data.y_train, data.svm_config)
    return circ, classifier, svm.accuracy(svm.predict(classifier, k_test), data.y_test)


def worst_case_complexity(config: GaConfig) -> float:
    """Complexity of a grid made entirely of CNOTs, the heaviest possible."""
    return 2.0 * config.n_layers


def dominates(f1: FitnessPair, f2: FitnessPair) -> bool:
    """Pareto domination under (accuracy max, objective_balance min)."""
    if f1.accuracy < f2.accuracy or f1.objective_balance > f2.objective_balance:
        return False
    return f1.accuracy > f2.accuracy or f1.objective_balance < f2.objective_balance


def evaluate_fitness(ind: Individual, data: EvalData, config: GaConfig) -> FitnessPair:
    """Score one individual through `train_individual`.

    The expected failures are absorbed into a worst-case fitness (accuracy 0,
    complexity of a full grid) so a long evolution never halts on one bad
    individual: ValueError (numpy's LinAlgError among them) from the SVM and
    PCA guards, and RuntimeError from the SVM's PSD abort. Any other exception
    is a programming error and propagates.
    """
    try:
        circ, _, acc = train_individual(ind.bits, data, config)
        c = complexity(circ)
        return FitnessPair(accuracy=acc, objective_balance=objective_balance(c, acc), complexity=c)
    except (ValueError, RuntimeError):
        log.warning("fitness evaluation failed; assigning worst-case fitness", exc_info=True)
        c = worst_case_complexity(config)
        return FitnessPair(accuracy=0.0, objective_balance=objective_balance(c, 0.0), complexity=c)


def flipbit_mutation(ind: Individual, config: GaConfig, rng: np.random.Generator) -> Individual:
    """With probability p_ind, flip each bit independently with probability
    p_gen. Fitness is invalidated only if some bit actually changed."""
    if rng.random() >= config.p_ind:
        return ind
    flips = rng.random(ind.bits.size) < config.p_gen
    if not flips.any():
        return ind
    return Individual(bits=ind.bits ^ flips.astype(np.uint8), fitness=None, eval_id=ind.eval_id)


def two_point_crossover(
    a: Individual, b: Individual, p_cross: float, rng: np.random.Generator
) -> tuple[Individual, Individual]:
    """With probability p_cross, swap the segment between two uniform cut
    points 1 <= i < j < L; otherwise return plain copies. Strings shorter than
    three bits admit no interior cut pair and always copy."""
    if a.bits.size != b.bits.size:
        raise ValueError("parents must have equal length")
    length = a.bits.size
    crossed = rng.random() < p_cross
    if crossed and length >= 3:
        i, j = np.sort(rng.choice(np.arange(1, length), size=2, replace=False))
        bits1 = a.bits.copy()
        bits2 = b.bits.copy()
        bits1[i:j], bits2[i:j] = b.bits[i:j].copy(), a.bits[i:j].copy()
        return (
            Individual(bits=bits1, fitness=None, eval_id=-1),
            Individual(bits=bits2, fitness=None, eval_id=-1),
        )
    return (
        Individual(bits=a.bits.copy(), fitness=a.fitness, eval_id=-1),
        Individual(bits=b.bits.copy(), fitness=b.fitness, eval_id=-1),
    )


def fast_non_dominated_sort(fitnesses: list[FitnessPair]) -> list[list[int]]:
    """Indices grouped into fronts, rank 0 first (standard NSGA-II sort)."""
    n = len(fitnesses)
    dominated_by = [[] for _ in range(n)]
    domination_count = [0] * n
    fronts = [[]]
    for i in range(n):
        for j in range(i + 1, n):
            if dominates(fitnesses[i], fitnesses[j]):
                dominated_by[i].append(j)
                domination_count[j] += 1
            elif dominates(fitnesses[j], fitnesses[i]):
                dominated_by[j].append(i)
                domination_count[i] += 1
    for i in range(n):
        if domination_count[i] == 0:
            fronts[0].append(i)
    current = 0
    while fronts[current]:
        nxt = []
        for i in fronts[current]:
            for j in dominated_by[i]:
                domination_count[j] -= 1
                if domination_count[j] == 0:
                    nxt.append(j)
        current += 1
        fronts.append(sorted(nxt))
    fronts.pop()
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
    merged = sorted(archive + [c for c in candidates if c.fitness is not None], key=_archive_key)
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
    evaluations: int
    wallclock_seconds: float


@dataclass
class RunResult:
    archive: list[Individual]
    best: Individual
    history: list[HistoryRow]
    initial_population: list[Individual]
    evaluations: int
    generations_run: int


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
    recombines consecutive pairs, mutates, evaluates whatever changed and
    selects the next mu from parents plus offspring. The Pareto archive is
    updated every generation and the run stops at max_generations or when the
    archive has not changed for `patience` generations. The best individual is
    the archive member with maximum accuracy, ties broken by minimum O_B and
    then by eval_id.
    """
    length = genome_length(config.m_qubits, config.n_layers, config.mode)
    cache: dict[bytes, FitnessPair] = {}
    evaluations = 0

    def resolve(pending: list[Individual]):
        nonlocal evaluations
        todo = []
        for ind in pending:
            if ind.fitness is None:
                ind.fitness = cache.get(ind.bits.tobytes())
                if ind.fitness is None:
                    todo.append(ind)
        if todo:
            if threads > 1:
                with ThreadPoolExecutor(max_workers=threads) as pool:
                    results = list(pool.map(lambda i: evaluate_fitness(i, data, config), todo))
            else:
                results = [evaluate_fitness(ind, data, config) for ind in todo]
            for ind, fit_pair in zip(todo, results):
                ind.fitness = fit_pair
                cache[ind.bits.tobytes()] = fit_pair
        evaluations += len(pending)

    init_rng = _stream(config.seed, 0)
    population = [Individual(bits=random_bits(length, init_rng), eval_id=i) for i in range(config.mu)]
    next_id = config.mu
    resolve(population)
    initial_population = list(population)
    archive = update_archive([], population)

    history: list[HistoryRow] = []
    t0 = time.perf_counter()
    stagnant = 0
    generations_run = 0
    for generation in range(1, config.max_generations + 1):
        rng = _stream(config.seed, 1, generation)
        _, rank, crowd = _rank_and_crowding(population)
        parents = [_tournament(population, rank, crowd, rng) for _ in range(config.lambda_)]
        offspring: list[Individual] = []
        for k in range(0, config.lambda_ - 1, 2):
            offspring.extend(two_point_crossover(parents[k], parents[k + 1], config.p_cross, rng))
        if config.lambda_ % 2:
            last = parents[-1]
            offspring.append(Individual(bits=last.bits.copy(), fitness=last.fitness, eval_id=-1))
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
                evaluations=evaluations,
                wallclock_seconds=time.perf_counter() - t0,
            )
        )
        generations_run = generation
        if on_generation is not None:
            on_generation(generation, archive, population)
        if config.patience and stagnant >= config.patience:
            break

    best = archive[0]
    return RunResult(
        archive=archive,
        best=best,
        history=history,
        initial_population=initial_population,
        evaluations=evaluations,
        generations_run=generations_run,
    )
