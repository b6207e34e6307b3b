"""Correctness checks the benchmark runs on what the pipeline produced.

Each check returns a list of human-readable problems; an empty list passes.
"""

from __future__ import annotations

import numpy as np

from qkevolve import evolve

NORM_TOL = 1e-9
GRAM_DIAG_TOL = 1e-9
DUAL_TOL = 1e-9


def check_archive(archive) -> list[str]:
    """The archive is mutually non-dominated and sorted by accuracy
    descending, then objective balance ascending."""
    problems = []
    if not archive:
        return ["archive is empty"]
    for pos, (a, b) in enumerate(zip(archive, archive[1:])):
        fa, fb = a.fitness, b.fitness
        if (-fa.accuracy, fa.objective_balance) >= (-fb.accuracy, fb.objective_balance):
            problems.append(f"archive not sorted at position {pos}")
    for i, a in enumerate(archive):
        for j, b in enumerate(archive):
            if i != j and evolve.dominates(a.fitness, b.fitness):
                problems.append(f"archive member {i} dominates member {j}")
    return problems


def check_reproduces(individuals, data, config, evaluate=None) -> list[str]:
    """A fresh evaluation of each individual's bits gives exactly the stored
    FitnessPair, which catches cache and aliasing bugs."""
    evaluate = evaluate or evolve.evaluate_fitness
    problems = []
    for ind in individuals:
        fresh = evaluate(evolve.Individual(bits=ind.bits.copy(), eval_id=ind.eval_id), data, config)
        if fresh != ind.fitness:
            problems.append(f"eval {ind.eval_id}: stored {ind.fitness} but re-evaluated {fresh}")
    return problems


def check_states(states: np.ndarray) -> list[str]:
    """Every simulated state has unit norm."""
    err = float(np.max(np.abs(np.linalg.norm(states, axis=1) - 1.0), initial=0.0))
    return [f"state norm off by {err:.3e}"] if err > NORM_TOL else []


def check_gram(k: np.ndarray) -> list[str]:
    """Every Gram diagonal entry is 1."""
    err = float(np.max(np.abs(np.diagonal(k) - 1.0), initial=0.0))
    return [f"Gram diagonal off by {err:.3e}"] if err > GRAM_DIAG_TOL else []


def check_dual(alpha: np.ndarray, y: np.ndarray, c_reg: float) -> list[str]:
    """The returned dual is feasible: 0 <= alpha <= C and sum(alpha * y) = 0."""
    problems = []
    if alpha.min(initial=0.0) < 0.0 or alpha.max(initial=0.0) > c_reg:
        problems.append(f"dual outside the box [0, {c_reg}]")
    balance = abs(float(alpha @ y))
    if balance > DUAL_TOL * max(1.0, c_reg * alpha.size):
        problems.append(f"dual equality constraint off by {balance:.3e}")
    return problems


def kkt_gap(alpha: np.ndarray, k: np.ndarray, y: np.ndarray, c_reg: float) -> float:
    """Largest KKT violation of a dual solution, in the solver's own measure:
    max over the 'up' set of -y*grad minus min over the 'low' set."""
    grad = y * (k @ (alpha * y)) - 1.0
    yg = -(y * grad)
    up = ((y > 0) & (alpha < c_reg)) | ((y < 0) & (alpha > 0.0))
    low = ((y > 0) & (alpha > 0.0)) | ((y < 0) & (alpha < c_reg))
    if not up.any() or not low.any():
        return 0.0
    return float(yg[up].max() - yg[low].min())
