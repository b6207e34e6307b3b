"""Turn the rounds and spans of one benchmark run into named metrics.

End-to-end metrics come from untraced rounds only. Per-layer metrics come
from the spans of traced rounds; counts are per round, because every round
is the same work and the number of rounds depends on speed.
"""

from __future__ import annotations

import resource
import statistics

import numpy as np

from spans import covered, self_seconds

# name -> unit, in the order they are printed
END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "gen_s_p50": "s",
    "eval_ms_p50": "ms",
    "eval_ms_p90": "ms",
    "evals_per_s": "1/s",
    "best_accuracy": "ratio",
    "mean_accuracy": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "genome.decode_genome.ms_p50": "ms",
    "genome.decode_genome.calls": "count",
    "reduce.pca_transform.ms_p50": "ms",
    "reduce.pca_transform.calls": "count",
    "reduce.pca_transform.mb_computed": "MB",
    "reduce.pca_fit.s": "s",
    "cli.load_image_dataset.s": "s",
    "reduce.load_external_features.s": "s",
    "reduce.standardize.s": "s",
    "circuit.build_feature_map.ms_p50": "ms",
    "circuit.evaluate_states.ms_p50": "ms",
    "circuit.evaluate_states.ms_p90": "ms",
    "circuit.evaluate_states.calls": "count",
    "circuit.evaluate_states.ms_p50.cnot_free": "ms",
    "circuit.evaluate_states.ms_p50.entangled": "ms",
    "circuit.cnot_free_frac": "ratio",
    "circuit.cnots_p50": "count",
    "evolve.evaluate_fitness.self_ms_p50": "ms",
    "svm.fit.ms_p50": "ms",
    "svm.fit.ms_p90": "ms",
    "svm.fit.calls": "count",
    "svm.fit.n_support_p50": "count",
    "svm.fit.unconverged": "count",
    "svm.predict.ms_p50": "ms",
    "evolve.evaluate_fitness.ms_p50": "ms",
    "evolve.evaluate_fitness.ms_p90": "ms",
    "evolve.evaluate_fitness.calls": "count",
    "evolve.computed_frac": "ratio",
    "evolve.failures": "count",
    "failed_eval_frac": "ratio",
    "evolve.nsga2_select.ms_p50": "ms",
    "evolve.update_archive.ms_p50": "ms",
    "evolve.generation.self_ms_p50": "ms",
    "evolve.pool_busy_frac": "ratio",
    "trace.overhead_frac": "ratio",
}


# Which end-to-end metric each per-layer metric should move, and on which
# workload, written down before any change is measured against it.
IMG, REPLAY = "evolve-img250-t2", "replay-n450"
_EVAL = f"eval_ms_p50 on {REPLAY} and {IMG}"
_SETUP_IMG = f"setup_s on {IMG}"
_SELECTION = f"gen_s_p50 and evals_per_s on {IMG}; no change on {REPLAY}"
_SVM = f"eval_ms_p90 and gen_s_p50 on {IMG}; eval_ms_p50 on {REPLAY}"
_LOOP = f"gen_s_p50 and evals_per_s on {IMG}"
MOVES = {
    "genome.decode_genome.ms_p50": f"{_EVAL}, only slightly",
    "genome.decode_genome.calls": f"{_EVAL}, only slightly",
    "reduce.pca_transform.ms_p50": f"eval_ms_p50 and gen_s_p50 on {IMG}; no change on {REPLAY}",
    "reduce.pca_transform.calls": f"eval_ms_p50 and gen_s_p50 on {IMG}; no change on {REPLAY}",
    "reduce.pca_transform.mb_computed": f"eval_ms_p50 and gen_s_p50 on {IMG}; no change on {REPLAY}",
    "reduce.pca_fit.s": _SETUP_IMG,
    "cli.load_image_dataset.s": _SETUP_IMG,
    "reduce.load_external_features.s": f"setup_s on {REPLAY}",
    "reduce.standardize.s": _SETUP_IMG,
    "circuit.build_feature_map.ms_p50": _EVAL,
    "circuit.evaluate_states.ms_p50": _EVAL,
    "circuit.evaluate_states.ms_p90": _EVAL,
    "circuit.evaluate_states.calls": _EVAL,
    "circuit.evaluate_states.ms_p50.cnot_free": f"eval_ms_p50 on {REPLAY} (its CNOT-free half)",
    "circuit.evaluate_states.ms_p50.entangled": f"eval_ms_p50 on {REPLAY} (its entangled half)",
    "circuit.cnot_free_frac": "none: the input property a factorized kernel depends on",
    "circuit.cnots_p50": "none: the input property a factorized kernel depends on",
    "evolve.evaluate_fitness.self_ms_p50": f"eval_ms_p50 on {REPLAY} (inline Gram products)",
    "svm.fit.ms_p50": _SVM,
    "svm.fit.ms_p90": _SVM,
    "svm.fit.calls": _SVM,
    "svm.fit.n_support_p50": _SVM,
    "svm.fit.unconverged": "best_accuracy and mean_accuracy",
    "svm.predict.ms_p50": f"eval_ms_p50 on {REPLAY}",
    "evolve.evaluate_fitness.ms_p50": _LOOP,
    "evolve.evaluate_fitness.ms_p90": _LOOP,
    "evolve.evaluate_fitness.calls": _LOOP,
    "evolve.computed_frac": f"{_LOOP}; no change from the cache on {REPLAY}",
    "evolve.failures": "best_accuracy, mean_accuracy and the run's failed count",
    "failed_eval_frac": "best_accuracy, mean_accuracy and the run's failed count",
    "evolve.nsga2_select.ms_p50": _SELECTION,
    "evolve.update_archive.ms_p50": _SELECTION,
    "evolve.generation.self_ms_p50": _SELECTION,
    "evolve.pool_busy_frac": _SELECTION,
    "trace.overhead_frac": "none: the cost of tracing itself",
}


def _q(values, q: float) -> float:
    """Percentile q of values, 0.0 for an empty list (a layer the workload
    never calls)."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def _generations(rnd):
    """(start, end) of every generation after the first; on replay, of every
    batch of lambda evaluations."""
    return list(zip(rnd.stamps[:-1], rnd.stamps[1:]))


def end_to_end(outcome) -> tuple[dict, dict]:
    """Metric values and the sample count behind each."""
    rounds = [r for r in outcome.rounds if not r.traced]
    evals_ms = [s.seconds * 1e3 for r in rounds for s in r.eval_spans]
    gens = [end - start for r in rounds for start, end in _generations(r)]
    rates = [
        sum(s.start >= r.t_setup for s in r.eval_spans) / (r.t_end - r.t_setup) for r in rounds
    ]
    last = rounds[-1]
    values = {
        "setup_s": statistics.median(r.setup_s for r in rounds),
        "run_s": statistics.median(r.run_s for r in rounds),
        "gen_s_p50": _q(gens, 50),
        "eval_ms_p50": _q(evals_ms, 50),
        "eval_ms_p90": _q(evals_ms, 90),
        "evals_per_s": statistics.median(rates),
        "best_accuracy": max(ind.fitness.accuracy for ind in last.individuals),
        "mean_accuracy": statistics.fmean(ind.fitness.accuracy for ind in last.population),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "setup_s": len(rounds),
        "run_s": len(rounds),
        "gen_s_p50": len(gens),
        "eval_ms_p50": len(evals_ms),
        "eval_ms_p90": len(evals_ms),
        "evals_per_s": len(rounds),
        "best_accuracy": len(last.individuals),
        "mean_accuracy": len(last.population),
        "peak_rss_mb": 1,
    }
    return values, samples


def per_layer(outcome) -> dict:
    spans = outcome.recorder.spans
    traced = [r for r in outcome.rounds if r.traced]
    # Round 0 warms the process up, so the overhead compares later rounds only.
    untraced = [r for r in outcome.rounds[1:] if not r.traced]
    n = len(traced)
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name, q=50, where=None):
        return _q([s.seconds * 1e3 for s in by_name.get(name, []) if where is None or where(s)], q)

    def per_round(name):
        return len(by_name.get(name, [])) / n

    def seconds_per_round(name):
        return sum(s.seconds for s in by_name.get(name, [])) / n

    def attr(name, key):
        return [s.attrs[key] for s in by_name.get(name, [])]

    selfs = self_seconds(spans)
    evals = by_name.get("evolve.evaluate_fitness", [])
    cnots = attr("circuit.build_feature_map", "cnots")
    gen_self, gen_wall, gen_busy = [], 0.0, 0.0
    for r in traced:
        for start, end in _generations(r):
            inside = [s for s in r.eval_spans if start < s.start <= end]
            gen_self.append((end - start - covered(start, end, inside)) * 1e3)
            gen_wall += end - start
            gen_busy += sum(min(s.end, end) - s.start for s in inside)
    threads = outcome.workload.threads
    failures = sum(r.failures for r in traced)

    return {
        "genome.decode_genome.ms_p50": ms("genome.decode_genome"),
        "genome.decode_genome.calls": per_round("genome.decode_genome"),
        "reduce.pca_transform.ms_p50": ms("reduce.pca_transform"),
        "reduce.pca_transform.calls": per_round("reduce.pca_transform"),
        "reduce.pca_transform.mb_computed": sum(attr("reduce.pca_transform", "mb")) / n,
        "reduce.pca_fit.s": seconds_per_round("reduce.pca_fit"),
        "cli.load_image_dataset.s": seconds_per_round("cli.load_image_dataset"),
        "reduce.load_external_features.s": seconds_per_round("reduce.load_external_features"),
        "reduce.standardize.s": seconds_per_round("reduce.standardize"),
        "circuit.build_feature_map.ms_p50": ms("circuit.build_feature_map"),
        "circuit.evaluate_states.ms_p50": ms("circuit.evaluate_states"),
        "circuit.evaluate_states.ms_p90": ms("circuit.evaluate_states", 90),
        "circuit.evaluate_states.calls": per_round("circuit.evaluate_states"),
        "circuit.evaluate_states.ms_p50.cnot_free": ms(
            "circuit.evaluate_states", where=lambda s: s.attrs["cnot_free"]
        ),
        "circuit.evaluate_states.ms_p50.entangled": ms(
            "circuit.evaluate_states", where=lambda s: not s.attrs["cnot_free"]
        ),
        "circuit.cnot_free_frac": sum(c == 0 for c in cnots) / len(cnots) if cnots else 0.0,
        "circuit.cnots_p50": _q(cnots, 50),
        "evolve.evaluate_fitness.self_ms_p50": _q([selfs[s.id] * 1e3 for s in evals], 50),
        "svm.fit.ms_p50": ms("svm.fit"),
        "svm.fit.ms_p90": ms("svm.fit", 90),
        "svm.fit.calls": per_round("svm.fit"),
        "svm.fit.n_support_p50": _q(attr("svm.fit", "n_support"), 50),
        "svm.fit.unconverged": sum(attr("svm.fit", "unconverged")) / n,
        "svm.predict.ms_p50": ms("svm.predict"),
        "evolve.evaluate_fitness.ms_p50": ms("evolve.evaluate_fitness"),
        "evolve.evaluate_fitness.ms_p90": ms("evolve.evaluate_fitness", 90),
        "evolve.evaluate_fitness.calls": per_round("evolve.evaluate_fitness"),
        "evolve.computed_frac": len(evals) / sum(r.evaluations for r in traced),
        "evolve.failures": failures / n,
        "failed_eval_frac": failures / len(evals) if evals else 0.0,
        "evolve.nsga2_select.ms_p50": ms("evolve.nsga2_select"),
        "evolve.update_archive.ms_p50": ms("evolve.update_archive"),
        "evolve.generation.self_ms_p50": _q(gen_self, 50),
        "evolve.pool_busy_frac": gen_busy / (gen_wall * threads) if gen_wall else 0.0,
        "trace.overhead_frac": statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in untraced)
        - 1.0,
    }
