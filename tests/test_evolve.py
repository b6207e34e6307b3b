import dataclasses
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkevolve import evolve
from qkevolve.evolve import (
    EvalData,
    FitnessPair,
    GaConfig,
    Individual,
    compile_individual,
    dominates,
    evaluate_fitness,
    fast_non_dominated_sort,
    flipbit_mutation,
    nsga2_select,
    objective_balance,
    run,
    two_point_crossover,
    update_archive,
)
from qkevolve.circuit import evaluate_states
from qkevolve.genome import (
    GATE_BITS,
    HEADER_BITS,
    EncodingMode,
    bits_to_line,
    genome_length,
    random_bits,
)
from qkevolve.reduce import pca_fit, pca_transform

from conftest import make_eval_data
from oracles import peel_fronts


def fp(acc, ob, c=0.0):
    return FitnessPair(accuracy=acc, objective_balance=ob, complexity=c)


def ind_with(acc, ob, eval_id=0):
    return Individual(bits=np.zeros(7, dtype=np.uint8), fitness=fp(acc, ob), eval_id=eval_id)


def bits_of(text):
    return np.array([int(ch) for ch in text], dtype=np.uint8)


TINY_CONFIG = GaConfig(qubits=1, layers=2, seed=0)


class TestDominates:
    def test_better_in_both(self):
        assert dominates(fp(0.9, 3.0), fp(0.8, 4.0))

    def test_trade_off_is_incomparable(self):
        assert not dominates(fp(0.9, 5.0), fp(0.8, 4.0))
        assert not dominates(fp(0.8, 4.0), fp(0.9, 5.0))

    def test_equal_pairs_do_not_dominate(self):
        assert not dominates(fp(0.7, 2.0), fp(0.7, 2.0))

    def test_one_strict_suffices(self):
        assert dominates(fp(0.9, 4.0), fp(0.8, 4.0))
        assert dominates(fp(0.8, 3.0), fp(0.8, 4.0))


class TestObjectiveBalance:
    def test_worked_arithmetic(self):
        # 3 local + 1 CNOT on 2 qubits -> C = 2.5; at accuracy 0.8, O_B = 4.1
        assert objective_balance(2.5, 0.8) == pytest.approx(4.1, abs=1e-12)

    @given(st.floats(0, 25), st.floats(0, 1))
    def test_matches_factored_form(self, c, acc):
        assert objective_balance(c, acc) == pytest.approx(c * (1 + acc * acc), abs=1e-12)


class TestEvaluateFitness:
    def test_all_identity_genome_predicts_majority_class(self, tiny_sep_dataset):
        # identity gates everywhere -> constant kernel -> the QSVM degenerates
        # to predicting the train-majority class on every test point
        x, y01 = tiny_sep_dataset
        y_skew = y01.copy()
        y_skew[:8] = 1  # make class 1 the clear majority
        data = make_eval_data(x, y_skew, seed=2)
        identity_bits = bits_of("1000000" * 2)
        fitness = evaluate_fitness(Individual(bits=identity_bits), data, TINY_CONFIG)
        assert fitness.complexity == 0.0
        assert fitness.objective_balance == 0.0
        majority_rate = np.mean(data.y_test == 1)
        assert fitness.accuracy == pytest.approx(majority_rate)

    def test_bit_for_bit_deterministic(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 14, dtype=np.uint8)
        f1 = evaluate_fitness(Individual(bits=bits), data, TINY_CONFIG)
        f2 = evaluate_fitness(Individual(bits=bits), data, TINY_CONFIG)
        assert f1 == f2

    def test_ob_consistency(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        rng = np.random.default_rng(6)
        for _ in range(20):
            bits = rng.integers(0, 2, 14, dtype=np.uint8)
            f = evaluate_fitness(Individual(bits=bits), data, TINY_CONFIG)
            assert f.objective_balance == pytest.approx(
                f.complexity * (1 + f.accuracy**2), abs=1e-12
            )

    def test_pca_mode_uses_genome_component_count(self, two_gauss_dataset):
        x, y01 = two_gauss_dataset
        data = make_eval_data(x, y01, pca=True)
        config = GaConfig(qubits=1, layers=1, seed=0)
        # header 000000 -> 1 component; gate Rx(x0 * pi/8)
        bits = bits_of("0000000" + "0000000")
        fitness = evaluate_fitness(Individual(bits=bits), data, config)
        assert fitness.complexity == 1.0
        assert 0.0 <= fitness.accuracy <= 1.0

    @pytest.mark.parametrize("threads", [1, 2])
    def test_evaluation_error_names_its_genome_and_stops_the_run(
        self, tiny_sep_dataset, monkeypatch, threads
    ):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        broken = EvalData(
            x_train=data.x_train,
            y_train=np.ones_like(data.y_train),  # single class, SVM will refuse
            x_test=data.x_test,
            y_test=data.y_test,
        )
        bits = bits_of("0110100" + "1010011")
        with pytest.raises(ValueError) as caught:
            evaluate_fitness(Individual(bits=bits, eval_id=37), broken, TINY_CONFIG)
        message = str(caught.value)
        assert "training requires both classes" in message
        assert "evaluation 37 (01101001010011)" in message
        # generation 0 is drawn from the seed alone, so its first individual,
        # the first to fail, has the bits it has in a run on intact data
        first = run(dataclasses.replace(TINY_CONFIG, generations=1), data).initial_population[0]
        evaluated = []

        def spy(ind, data, config):
            evaluated.append(ind.eval_id)
            return evaluate_fitness(ind, data, config)

        monkeypatch.setattr(evolve, "evaluate_fitness", spy)
        with pytest.raises(ValueError) as caught:
            run(TINY_CONFIG, broken, threads=threads)
        message = str(caught.value)
        assert "training requires both classes" in message
        assert f"evaluation 0 ({bits_to_line(first.bits)})" in message
        assert evaluated == [0]

    def test_programming_errors_propagate(self, tiny_sep_dataset, monkeypatch):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        for error in (TypeError, RuntimeError, ValueError):

            def broken(circuit, xs):
                raise error("simulator defect")

            monkeypatch.setattr(evolve, "evaluate_states", broken)
            with pytest.raises(error, match="simulator defect"):
                evaluate_fitness(Individual(bits=np.zeros(14, dtype=np.uint8)), data, TINY_CONFIG)

    def test_solver_value_error_propagates_with_its_cause(self, tiny_sep_dataset, monkeypatch):
        original = ValueError("kernel matrix contains non-finite entries")

        def reject(*args, **kwargs):
            raise original

        monkeypatch.setattr(evolve.svm, "fit", reject)
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        bits = np.zeros(14, dtype=np.uint8)
        with pytest.raises(ValueError) as caught:
            evaluate_fitness(Individual(bits=bits, eval_id=5), data, TINY_CONFIG)
        assert caught.value.__cause__ is original
        assert str(caught.value) == f"evaluation 5 ({'0' * 14}): {original}"

    def test_one_simulation_covers_train_and_test(self, tiny_sep_dataset, monkeypatch):
        calls = []
        real = evolve.evaluate_states

        def counting(circuit, xs):
            calls.append(len(xs))
            return real(circuit, xs)

        monkeypatch.setattr(evolve, "evaluate_states", counting)
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        bits = np.random.default_rng(8).integers(0, 2, 14, dtype=np.uint8)
        evaluate_fitness(Individual(bits=bits), data, TINY_CONFIG)
        assert calls == [len(data.x_train) + len(data.x_test)]


class TestGramBlocks:
    def test_blocks_are_the_real_part_of_the_complex_gram(self, two_gauss_dataset, monkeypatch):
        # 150 training rows and 6 qubits: at this size the complex product
        # S* S^T comes out bitwise asymmetric
        data = {
            mode: make_eval_data(*two_gauss_dataset, pca=mode is EncodingMode.PCA_HEADER)
            for mode in EncodingMode
        }
        blocks = []
        real_fit, real_predict = evolve.svm.fit, evolve.svm.predict

        def spy_fit(k, y, config):
            blocks.append([k])
            return real_fit(k, y, config)

        def spy_predict(model, k):
            blocks[-1].append(k)
            return real_predict(model, k)

        monkeypatch.setattr(evolve.svm, "fit", spy_fit)
        monkeypatch.setattr(evolve.svm, "predict", spy_predict)
        rng = np.random.default_rng(53)
        kinds = set()
        modes = ((EncodingMode.FIXED_FEATURES, 0), (EncodingMode.PCA_HEADER, HEADER_BITS))
        config = GaConfig(qubits=6, layers=4)
        for mode, offset in modes:
            for _ in range(6):
                bits = random_bits(genome_length(6, 4, mode), rng)
                genes = bits[offset:].reshape(-1, GATE_BITS).copy()
                genes[(genes[:, :3] == (1, 0, 1)).all(axis=1), :3] = (1, 0, 0)  # CNOT -> identity
                for variant in (bits, np.concatenate([bits[:offset], genes.ravel()])):
                    compiled = evolve.compile_individual(variant, data[mode], config)
                    _, circ, x_train, x_test = compiled
                    evolve.train_individual(variant, data[mode], config)
                    k_train, k_test = blocks[-1]
                    assert np.array_equal(k_train, k_train.T)
                    # K = F F^T is PSD by construction: its rounding error is at
                    # most about n p eps for unit-norm rows of width p = 2^(M+1)
                    n, p = len(k_train), 2 ** (config.qubits + 1)
                    assert np.linalg.eigvalsh(k_train)[0] >= -n * p * np.finfo(float).eps
                    s_train, s_test = evaluate_states(circ, x_train), evaluate_states(circ, x_test)
                    for got, s in ((k_train, s_train), (k_test, s_test)):
                        want = (s.conj() @ s_train.T).real
                        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
                    kinds.add((mode, circ.census.n_cnot == 0))
        assert len(blocks) == 24
        assert kinds == {(m, free) for m in EncodingMode for free in (False, True)}


def header_bits(r, m_qubits=1, n_layers=1):
    """A PCA-header bitstring asking for r components, over an identity grid."""
    return bits_of(format(r - 1, "06b") + "0" + "1000000" * m_qubits * n_layers)


class TestPcaInputs:
    @pytest.mark.parametrize("n_samples", [200, 40])
    def test_slices_match_refit_at_each_count(self, two_gauss_dataset, n_samples):
        x, y01 = two_gauss_dataset
        features = make_eval_data(x[:n_samples], y01[:n_samples])
        data = make_eval_data(x[:n_samples], y01[:n_samples], pca=True)
        r_max = min(features.x_train.shape[0] - 1, features.x_train.shape[1], 64)
        assert data.x_train.shape[1] == data.x_test.shape[1] == r_max
        config = GaConfig(qubits=1, layers=1)
        counts = {1, r_max // 2, r_max} | ({64} if r_max < 64 else set())
        for r in sorted(counts):
            _, _, x_train_r, x_test_r = compile_individual(header_bits(r), data, config)
            model = pca_fit(features.x_train.copy(), r)
            assert x_train_r.shape == (features.x_train.shape[0], min(r, r_max))
            for got, x_full in ((x_train_r, features.x_train), (x_test_r, features.x_test)):
                np.testing.assert_allclose(
                    got, pca_transform(model, x_full.copy()), rtol=0, atol=1e-10
                )

    # 60 samples leave 45 training rows, so the one fit holds 44 components.
    # It happens in setup, when the data are projected; the run fits nothing.
    @pytest.mark.parametrize(
        "mode, expected_fits",
        [(EncodingMode.PCA_HEADER, [44]), (EncodingMode.FIXED_FEATURES, [])],
        ids=["pca_header", "fixed_features"],
    )
    def test_pca_fitted_once_in_setup_not_in_run(
        self, two_gauss_dataset, monkeypatch, mode, expected_fits
    ):
        x, y01 = two_gauss_dataset
        calls = []
        real_fit = evolve.pca_fit

        def counting_fit(train, r):
            model = real_fit(train, r)
            calls.append(model.components.shape[0])
            return model

        monkeypatch.setattr(evolve, "pca_fit", counting_fit)
        data = make_eval_data(x[:60], y01[:60], pca=mode is EncodingMode.PCA_HEADER)
        assert calls == expected_fits
        config = GaConfig(qubits=1, layers=2, mu=6, lambda_=4, generations=2, patience=0)
        run(config, data)
        assert calls == expected_fits


class TestFlipbitMutation:
    def test_p_ind_zero_never_mutates(self):
        rng = np.random.default_rng(1)
        config = GaConfig(qubits=1, layers=2, p_ind=0.0)
        ind = Individual(bits=bits_of("01" * 7), fitness=fp(0.5, 1.0))
        for _ in range(50):
            out = flipbit_mutation(ind, config, rng)
            assert out is ind

    def test_full_probabilities_complement(self):
        rng = np.random.default_rng(2)
        config = GaConfig(qubits=1, layers=2, p_ind=1.0, p_gen=1.0)
        ind = Individual(bits=bits_of("01100110011001"), fitness=fp(0.5, 1.0))
        out = flipbit_mutation(ind, config, rng)
        assert np.array_equal(out.bits, 1 - ind.bits)
        assert out.fitness is None

    def test_flip_fraction_matches_binomial_expectation(self):
        rng = np.random.default_rng(3)
        config = GaConfig(qubits=1, layers=2, p_ind=1.0, p_gen=0.3)
        ind = Individual(bits=np.zeros(100_000, dtype=np.uint8))
        out = flipbit_mutation(ind, config, rng)
        assert out.bits.mean() == pytest.approx(0.3, abs=0.01)

    def test_length_preserved(self):
        rng = np.random.default_rng(4)
        config = GaConfig(qubits=2, layers=3, p_ind=0.7, p_gen=0.5)
        bits = rng.integers(0, 2, genome_length(2, 3, EncodingMode.FIXED_FEATURES), dtype=np.uint8)
        for _ in range(30):
            out = flipbit_mutation(Individual(bits=bits), config, rng)
            assert out.bits.size == bits.size


class _StubRng:
    """Fixed decisions for the crossover golden test."""

    def __init__(self, rand, cuts):
        self._rand = rand
        self._cuts = cuts

    def random(self):
        return self._rand

    def choice(self, a, size=None, replace=True):
        return np.array(self._cuts)


class TestTwoPointCrossover:
    def test_fixed_cuts_segment_swap(self):
        a = Individual(bits=bits_of("00000000"))
        b = Individual(bits=bits_of("11111111"))
        c1, c2 = two_point_crossover(a, b, 1.0, _StubRng(0.0, (2, 5)))
        assert "".join(map(str, c1.bits)) == "00111000"
        assert "".join(map(str, c2.bits)) == "11000111"

    def test_no_crossover_returns_copies(self):
        rng = np.random.default_rng(7)
        a = Individual(bits=bits_of("0101"), fitness=fp(0.5, 1.0))
        b = Individual(bits=bits_of("1010"), fitness=fp(0.6, 2.0))
        c1, c2 = two_point_crossover(a, b, 0.0, rng)
        assert np.array_equal(c1.bits, a.bits) and np.array_equal(c2.bits, b.bits)
        assert c1.bits is not a.bits  # children own their bits
        assert c1.fitness is None  # run finds a copy's fitness in its cache

    @given(st.integers(3, 60), st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_positionwise_xor_preserved(self, length, seed):
        rng = np.random.default_rng(seed)
        a = Individual(bits=rng.integers(0, 2, length, dtype=np.uint8))
        b = Individual(bits=rng.integers(0, 2, length, dtype=np.uint8))
        c1, c2 = two_point_crossover(a, b, 1.0, rng)
        assert np.array_equal(c1.bits ^ c2.bits, a.bits ^ b.bits)
        assert c1.bits.size == length

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError):
            two_point_crossover(
                Individual(bits=bits_of("01")),
                Individual(bits=bits_of("011")),
                1.0,
                np.random.default_rng(0),
            )


class TestNsga2:
    def test_single_dominant_point_is_rank_zero_alone(self):
        fits = [fp(0.9, 1.0), fp(0.8, 2.0), fp(0.7, 3.0)]
        fronts = fast_non_dominated_sort(fits)
        assert fronts[0] == [0]

    def test_extremes_survive_crowding_truncation(self):
        pop = [
            ind_with(0.9, 4.0, 0),
            ind_with(0.85, 3.0, 1),
            ind_with(0.84, 2.9, 2),
            ind_with(0.5, 1.0, 3),
        ]
        chosen = nsga2_select(pop, 3)
        ids = {ind.eval_id for ind in chosen}
        assert {0, 3} <= ids  # boundary points carry infinite crowding distance

    def test_fronts_match_bruteforce_peeling(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            n = int(rng.integers(1, 81))
            fits = [
                fp(float(rng.integers(0, 5)) / 4, float(rng.integers(0, 5)))
                for _ in range(n)
            ]
            expected = peel_fronts([(f.accuracy, f.objective_balance) for f in fits])
            assert fast_non_dominated_sort(fits) == expected

    def test_selection_requires_fitness(self):
        with pytest.raises(ValueError):
            nsga2_select([Individual(bits=np.zeros(3, dtype=np.uint8))], 1)


class TestArchive:
    def test_never_contains_dominated_pair(self):
        rng = np.random.default_rng(13)
        archive = []
        for step in range(60):
            cand = [ind_with(rng.integers(0, 5) / 4, float(rng.integers(0, 5)), step * 10 + k) for k in range(5)]
            archive = update_archive(archive, cand)
            for a in archive:
                for b in archive:
                    assert not dominates(a.fitness, b.fitness)

    def test_duplicates_keep_earliest(self):
        archive = update_archive([], [ind_with(0.9, 1.0, 7), ind_with(0.9, 1.0, 3)])
        assert len(archive) == 1
        assert archive[0].eval_id == 3


class TestRun:
    def small_config(self, **overrides):
        params = dict(
            qubits=1,
            layers=2,
            mu=12,
            lambda_=6,
            generations=25,
            patience=0,
            seed=3,
        )
        params.update(overrides)
        return GaConfig(**params)

    def test_fixed_seed_reproduces_history_and_archive(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        r1 = run(self.small_config(), data)
        r2 = run(self.small_config(), data)
        strip = lambda rows: [
            (r.generation, r.best_accuracy, r.best_objective_balance, r.archive_size, r.evaluations)
            for r in rows
        ]
        assert strip(r1.history) == strip(r2.history)
        assert [i.fitness for i in r1.archive] == [i.fitness for i in r2.archive]
        assert [i.bits.tobytes() for i in r1.archive] == [i.bits.tobytes() for i in r2.archive]

    def test_archive_metrics_monotone_and_nondominated(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        best_accs, best_obs = [], []

        def check(gen, archive, population):
            for a in archive:
                for b in archive:
                    assert not dominates(a.fitness, b.fitness)
            best_accs.append(max(i.fitness.accuracy for i in archive))
            best_obs.append(min(i.fitness.objective_balance for i in archive))

        run(self.small_config(), data, on_generation=check)
        assert all(b >= a for a, b in zip(best_accs, best_accs[1:]))
        assert all(b <= a for a, b in zip(best_obs, best_obs[1:]))

    def test_history_covers_every_generation(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        result = run(self.small_config(generations=10), data)
        assert [r.generation for r in result.history] == list(range(1, 11))
        # every lookup counts, cache hits included: mu initial plus lambda per generation
        assert result.evaluations == result.history[-1].evaluations == 12 + 10 * 6

    def test_stagnation_stop(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        result = run(self.small_config(generations=200, patience=5), data)
        assert len(result.history) < 200

    def test_best_is_max_accuracy_then_min_ob(self, tiny_sep_dataset):
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        result = run(self.small_config(), data)
        top = max(i.fitness.accuracy for i in result.archive)
        assert result.archive[0].fitness.accuracy == top
        contenders = [i for i in result.archive if i.fitness.accuracy == top]
        assert result.archive[0].fitness.objective_balance == min(
            i.fitness.objective_balance for i in contenders
        )

    def test_clones_are_served_from_the_cache(self, tiny_sep_dataset, monkeypatch):
        # With no crossover and no mutation every offspring copies a parent
        # (odd lambda also covers the unpaired copy), so only the initial
        # population is ever evaluated.
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        calls = []

        def counting(ind, data, config):
            calls.append(ind.eval_id)
            return evaluate_fitness(ind, data, config)

        monkeypatch.setattr(evolve, "evaluate_fitness", counting)
        config = self.small_config(generations=10, lambda_=7, p_cross=0.0, p_ind=0.0)
        result = run(config, data)
        assert len(result.history) == 10
        assert sorted(calls) == list(range(config.mu))

    def test_threaded_evaluation_matches_serial(self, tiny_sep_dataset, monkeypatch):
        # `threads` is accepted and ignored: every evaluation runs in turn on
        # the calling thread.
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        serial = run(self.small_config(generations=8), data)
        evaluating_threads = set()

        def spy(ind, data, config):
            evaluating_threads.add(threading.current_thread())
            return evaluate_fitness(ind, data, config)

        monkeypatch.setattr(evolve, "evaluate_fitness", spy)
        threaded = run(self.small_config(generations=8), data, threads=4)
        assert [i.fitness for i in serial.archive] == [i.fitness for i in threaded.archive]
        assert evaluating_threads == {threading.main_thread()}

    def test_each_distinct_bitstring_evaluated_once(self, tiny_sep_dataset, monkeypatch):
        # 7-bit genomes repeat often, within a generation as well as across
        # generations; a repeat is served from the cache either way.
        x, y01 = tiny_sep_dataset
        data = make_eval_data(x, y01)
        config = GaConfig(
            qubits=1,
            layers=1,
            mu=4,
            lambda_=20,
            p_ind=1.0,
            p_gen=0.5,
            generations=5,
            patience=0,
        )
        evaluated = []

        def spy(ind, data, config):
            evaluated.append(ind.bits.tobytes())
            return evaluate_fitness(ind, data, config)

        monkeypatch.setattr(evolve, "evaluate_fitness", spy)
        result = run(config, data)
        assert len(evaluated) == len(set(evaluated))
        assert len(evaluated) < result.evaluations  # the run did repeat bitstrings
