"""The benchmark's own tests, on tiny sizes.

Run from the repository root: python -m pytest perfbench/tests -q
"""

import dataclasses
import json
import math
import sys

import numpy as np
import pytest

from qkevolve import circuit, evolve, genome, svm

import checks
import metrics
import run as bench_run
import workloads
from conftest import ROOT
from spans import Recorder, Span, installed, self_seconds

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_tiny(name, tmp_path, trace):
    workload = workloads.tiny(workloads.WORKLOADS[name])
    return workloads.run_workload(
        workload, seed=3, seconds=0, trace=trace, root=ROOT, workdir=tmp_path
    )


def test_benchmark_json_lists_the_code_s_workloads_and_metrics():
    for w in BENCHMARK["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == metrics.PER_LAYER
    assert list(metrics.MOVES) == list(metrics.PER_LAYER)
    assert {w["name"] for w in BENCHMARK["workloads"]} == {metrics.IMG, metrics.REPLAY}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_metric_is_emitted(name, tmp_path):
    untraced = _run_tiny(name, tmp_path / "u", trace=False)
    traced = _run_tiny(name, tmp_path / "t", trace=True)
    assert untraced.problems == [] and traced.problems == []

    values, samples = metrics.end_to_end(untraced)
    assert list(values) == list(metrics.END_TO_END) == list(samples)
    assert all(math.isfinite(v) and v > 0 for v in values.values())

    layers = metrics.per_layer(traced)
    assert list(layers) == list(metrics.PER_LAYER)
    assert all(math.isfinite(v) for v in layers.values())
    assert layers["evolve.evaluate_fitness.calls"] > 0
    assert layers["svm.fit.calls"] == layers["evolve.evaluate_fitness.calls"]
    if workloads.WORKLOADS[name].is_replay:
        assert layers["reduce.pca_transform.calls"] == 0
        assert layers["circuit.cnot_free_frac"] >= 0.5
    else:
        assert layers["reduce.pca_transform.calls"] == 2 * layers["evolve.evaluate_fitness.calls"]


def _all_targets():
    return workloads.traced_targets([]) + workloads.boundary_targets()


def test_wrappers_restore_the_original_functions(tmp_path):
    originals = {(t.module.__name__, t.attr): getattr(t.module, t.attr) for t in _all_targets()}
    with pytest.raises(RuntimeError):
        with installed(Recorder(), workloads.traced_targets([])):
            assert evolve.evaluate_states is not originals[("qkevolve.evolve", "evaluate_states")]
            raise RuntimeError("interrupt the block")
    _run_tiny("evolve-n150", tmp_path, trace=True)
    for t in _all_targets():
        assert getattr(t.module, t.attr) is originals[(t.module.__name__, t.attr)]


def test_spans_nest_under_their_evaluation(tmp_path):
    outcome = _run_tiny("evolve-img250-t2", tmp_path, trace=True)
    spans = {s.id: s for s in outcome.recorder.spans}
    for span in spans.values():
        if span.name == "circuit.evaluate_states":
            parent = spans[span.parent]
            assert parent.name == "evolve.evaluate_fitness"
            assert span.eval_id == parent.eval_id >= 0
            assert parent.start <= span.start <= span.end <= parent.end


def test_self_time_counts_overlapping_children_once():
    spans = [
        Span(0, "parent", 0.0, 10.0, None, None, 1),
        Span(1, "a", 1.0, 4.0, 0, None, 1),
        Span(2, "b", 3.0, 6.0, 0, None, 2),
        Span(3, "c", 9.0, 12.0, 0, None, 2),
    ]
    assert self_seconds(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_check_fails_when_a_fitness_is_corrupted(tmp_path, monkeypatch):
    outcome = _run_tiny("evolve-n150", tmp_path / "clean", trace=False)
    assert outcome.problems == []

    original_run = evolve.run

    def corrupting_run(*args, **kwargs):
        result = original_run(*args, **kwargs)
        best = result.archive[0]
        best.fitness = dataclasses.replace(best.fitness, complexity=best.fitness.complexity + 1.0)
        return result

    monkeypatch.setattr(evolve, "run", corrupting_run)
    outcome = _run_tiny("evolve-n150", tmp_path / "corrupt", trace=False)
    assert any("re-evaluated" in p for p in outcome.problems)


def test_command_exits_nonzero_on_a_failed_check(tmp_path, monkeypatch, capsys):
    for var in bench_run.BLAS_ENV_VARS:
        monkeypatch.setenv(var, "1")
    monkeypatch.setattr(sys, "path", list(sys.path))
    tiny = workloads.tiny(workloads.WORKLOADS["evolve-n150"])
    monkeypatch.setitem(workloads.WORKLOADS, "evolve-n150", tiny)
    monkeypatch.setattr(bench_run, "WORK_ROOT", tmp_path)
    monkeypatch.setattr(checks, "check_archive", lambda archive: ["forced failure"])
    code = bench_run.main(["--workload", "evolve-n150", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(tmp_path.iterdir()) == []  # the work directory is removed


def test_kkt_gap_and_dual_checks_flag_a_bad_dual():
    rng = np.random.default_rng(0)
    states = rng.normal(size=(12, 4)) + 1j * rng.normal(size=(12, 4))
    states /= np.linalg.norm(states, axis=1, keepdims=True)
    k = (states.conj() @ states.T).real
    y = np.array([1.0, -1.0] * 6)
    model = svm.fit(k, y)
    assert checks.kkt_gap(model.dual_coefs, k, y, 1.0) <= svm.SvmConfig().tol
    assert checks.check_dual(model.dual_coefs, y, 1.0) == []
    assert checks.check_gram(k) == [] and checks.check_states(states) == []
    assert checks.kkt_gap(np.zeros(12), k, y, 1.0) > 0.5
    assert checks.check_dual(np.full(12, 2.0), y, 1.0)
    assert checks.check_gram(2.0 * k) and checks.check_states(2.0 * states)


def test_replay_list_pairs_each_genome_with_its_cnot_free_form():
    workload = workloads.WORKLOADS["replay-n450"]
    genomes = workloads.replay_genomes(workload)
    assert len(genomes) == 2 * workload.replay_genomes
    assert all(np.array_equal(g, h) for g, h in zip(genomes, workloads.replay_genomes(workload)))
    mode = genome.EncodingMode.FIXED_FEATURES
    for entangled, free in zip(genomes[::2], genomes[1::2]):
        census = lambda bits: circuit.build_feature_map(
            genome.decode_genome(bits, workload.qubits, workload.layers, mode), 64
        ).census
        c_ent, c_free = census(entangled), census(free)
        assert c_free.n_cnot == 0
        assert c_free.n_identity == c_ent.n_identity + c_ent.n_cnot
        assert c_free.n_local == c_ent.n_local
