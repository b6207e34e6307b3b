import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkevolve.reduce import (
    load_external_features,
    pca_fit,
    pca_slice,
    pca_transform,
    reorder_rows,
    standardize_apply,
    standardize_fit,
    stratified_split,
)

from oracles import reference_standardize_apply, reference_test_counts, svd_pca


class TestStandardize:
    def test_training_extremes_map_to_unit_interval(self):
        train = np.array([[0.0], [10.0], [5.0]])
        params = standardize_fit(train)
        out = standardize_apply(params, train)
        assert out.min() == -1.0 and out.max() == 1.0

    def test_constant_feature_maps_to_zero(self):
        train = np.array([[3.0, 1.0], [3.0, 2.0]])
        out = standardize_apply(standardize_fit(train), train)
        assert np.all(out[:, 0] == 0.0)

    def test_test_rows_extend_unclipped(self):
        params = standardize_fit(np.array([[0.0], [10.0]]))
        assert standardize_apply(params, np.array([[15.0]]))[0, 0] == 2.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            standardize_fit(np.empty((0, 3)))

    def test_in_place_and_byte_equal_to_reference(self):
        rng = np.random.default_rng(12)
        train = rng.normal(size=(30, 8))
        train[:, 2] = 4.0  # constant feature
        train[:, 5] = 0.0  # constant zero feature
        wide = rng.normal(scale=3.0, size=(10, 16))  # test rows beyond the fitted range
        ints = rng.integers(-50, 50, size=(12, 8))
        cases = [
            (standardize_fit(train), train.copy()),
            (standardize_fit(train), wide.copy()[:, ::2]),  # non-contiguous view
            (standardize_fit(train), wide.copy()[:8, :8].T),  # transposed view
            (standardize_fit(ints[:6]), ints),  # integer input
            (standardize_fit(train), train[0]),  # one row
        ]
        results = []
        for params, x in cases:
            before = np.array(x, copy=True)
            want = reference_standardize_apply(params, before)
            got = standardize_apply(params, x)
            assert got.dtype == want.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            if x.dtype == np.float64:
                # overwritten: the result is the input (a 2-D view of the one row)
                assert got is x or (x.ndim == 1 and np.shares_memory(got, x))
                assert got.tobytes() == x.tobytes()
            else:
                # converted to float first, so the integer input is left as it was
                assert np.array_equal(x, before) and x.dtype == before.dtype
            results.append(got)
        assert np.abs(results[1]).max() > 1.0


class TestPca:
    def test_rank_one_data_captures_all_variance(self):
        t = np.linspace(-2, 2, 30)
        data = np.stack([t, 3.0 * t], axis=1)
        scores = pca_transform(pca_fit(data.copy(), 1), data.copy())
        total = np.var(data, axis=0, ddof=1).sum()
        assert np.var(scores[:, 0], ddof=1) == pytest.approx(total, rel=1e-10)

    def test_full_rank_transform_is_isometry(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(30, 5))
        model = pca_fit(data.copy(), 5)
        assert model.components.shape == (5, 5)
        proj = pca_transform(model, data.copy())
        d_orig = np.linalg.norm(data[:, None] - data[None, :], axis=2)
        d_proj = np.linalg.norm(proj[:, None] - proj[None, :], axis=2)
        assert np.allclose(d_orig, d_proj, atol=1e-8)

    def test_reconstruction_error_non_increasing_in_r(self):
        rng = np.random.default_rng(11)
        data = rng.normal(size=(20, 10))
        full = pca_fit(data.copy(), 10)
        errors = []
        for r in range(1, 11):
            model = pca_slice(full, r)
            proj = pca_transform(model, data.copy())
            recon = proj @ model.components + model.mean
            errors.append(np.linalg.norm(data - recon))
        assert all(b <= a + 1e-9 for a, b in zip(errors, errors[1:]))

    def test_orthonormality_and_variance_ordering(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(3, 25))
            d = int(rng.integers(2, 15))
            r = int(rng.integers(1, min(n - 1, d) + 1))
            data = rng.normal(size=(n, d))
            model = pca_fit(data.copy(), r)
            gram = model.components @ model.components.T
            assert np.allclose(gram, np.eye(r), atol=1e-8)
            variances = np.var(pca_transform(model, data), axis=0, ddof=1)
            assert np.all(np.diff(variances) <= 1e-10)

    def test_out_of_range_components_clamped(self):
        rng = np.random.default_rng(17)
        for shape, held in (((5, 3), 3), ((4, 9), 3)):  # min(n - 1, d) components
            data = rng.normal(size=shape)
            full = pca_fit(data.copy(), held)
            assert full.components.shape == (held, shape[1])
            for r, kept in ((50, held), (held + 1, held), (0, 1), (-2, 1)):
                for model in (pca_fit(data.copy(), r), pca_slice(full, r)):
                    assert model.components.shape == (kept, shape[1])
                    assert model.scores.shape == (shape[0], kept)

    def test_deterministic_including_signs(self):
        rng = np.random.default_rng(19)
        data = rng.normal(size=(12, 6))
        m1, m2 = pca_fit(data.copy(), 4), pca_fit(data.copy(), 4)
        assert np.array_equal(m1.components, m2.components)
        # fixed convention: the largest loading of each component is positive
        peaks = m1.components[np.arange(4), np.abs(m1.components).argmax(axis=1)]
        assert np.all(peaks > 0)

    def test_slice_is_leading_rows_of_full_fit(self):
        rng = np.random.default_rng(23)
        data = rng.normal(size=(15, 8))
        full = pca_fit(data, 8)
        for r in (1, 3, 7, 20):
            sliced = pca_slice(full, r)
            assert sliced.components.tobytes() == full.components[: min(r, 8)].tobytes()
            assert sliced.scores.tobytes() == full.scores[:, : min(r, 8)].tobytes()
            assert sliced.mean is full.mean
            # truncating in steps is truncating once
            twice = pca_slice(pca_slice(full, 7), r)
            assert twice.components.tobytes() == pca_slice(full, min(r, 7)).components.tobytes()

    def test_transform_dimension_mismatch(self):
        model = pca_fit(np.random.default_rng(2).normal(size=(6, 4)), 2)
        with pytest.raises(ValueError, match="mismatch"):
            pca_transform(model, np.zeros((3, 5)))

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError):
            pca_fit(np.ones((1, 4)), 1)


# A wide shape (n <= d) and a tall one (n > d): both fit from C C^T (n x n).
SHAPES = [(40, 500), (60, 8)]


class TestPcaAgainstSvd:
    @pytest.mark.parametrize("n, d", SHAPES)
    def test_scores_match_svd_oracle(self, n, d):
        rng = np.random.default_rng(37)
        train = rng.normal(size=(n, d)) * rng.uniform(0.5, 2.0, size=d)
        held_out = rng.normal(size=(10, d))
        model = pca_fit(train.copy(), n)
        oracle = svd_pca(train, n - 1)
        for x in (train, held_out):
            np.testing.assert_allclose(
                pca_transform(model, x.copy()), pca_transform(oracle, x.copy()), rtol=0, atol=1e-10
            )
        # the training scores the fit returns, against the SVD's U S and a projection
        np.testing.assert_allclose(model.scores, oracle.scores, rtol=0, atol=1e-10)
        np.testing.assert_allclose(
            model.scores, pca_transform(model, train.copy()), rtol=0, atol=1e-10
        )

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_components_orthonormal(self, n, d):
        rng = np.random.default_rng(43)
        data = rng.normal(size=(n, d))
        for r in (-1, 0, 1, 5, min(n - 1, d), n + d):
            components = pca_fit(data.copy(), r).components
            r_eff = min(max(r, 1), n - 1, d)
            assert components.shape == (r_eff, d)
            np.testing.assert_allclose(
                components @ components.T, np.eye(r_eff), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize("n, d", SHAPES)
    def test_sliced_scores_are_leading_score_columns(self, n, d):
        # what a run relies on: scores computed once, then cut per individual
        rng = np.random.default_rng(47)
        train = rng.normal(size=(n, d))
        scores = pca_fit(train.copy(), n).scores
        for r in (1, 2, 5, min(n - 1, d)):
            fitted = pca_fit(train.copy(), r)
            np.testing.assert_allclose(fitted.scores, scores[:, :r], rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                fitted.scores, pca_transform(svd_pca(train, r), train.copy()), rtol=0, atol=1e-10
            )

    @pytest.mark.parametrize(
        "case",
        ["duplicated-wide", "duplicated-tall", "constant-wide", "constant-tall"],
    )
    def test_zero_variance_components_are_zero_rows(self, case, caplog):
        rng = np.random.default_rng(41)
        n, d = (40, 500) if case.endswith("wide") else (60, 8)
        if case.startswith("duplicated"):
            # four distinct rows repeated, plus two rows constant across features
            train = rng.normal(size=(4, d))[np.arange(n) % 4]
            train[:2] = rng.normal(size=(2, 1))
        else:
            train = np.full((n, d), 0.1)  # its mean is not exactly 0.1 in floating point
        rank = np.linalg.matrix_rank(train - train[0])
        r = min(n - 1, d)
        model = pca_fit(train.copy(), r)
        assert np.isfinite(model.components).all() and np.isfinite(model.scores).all()
        assert not model.components[rank:].any()
        assert not model.scores[:, rank:].any()
        kept = model.components[:rank]
        np.testing.assert_allclose(kept @ kept.T, np.eye(rank), rtol=0, atol=1e-10)
        if rank:
            oracle = pca_transform(svd_pca(train, rank), train.copy())
            np.testing.assert_allclose(
                pca_transform(model, train.copy())[:, :rank], oracle, rtol=0, atol=1e-10
            )
            np.testing.assert_allclose(model.scores[:, :rank], oracle, rtol=0, atol=1e-10)
        # the warning counts only the components fitted
        pca_fit(train, rank + 2)
        messages = [rec.getMessage() for rec in caplog.records]
        assert [m for m in messages if "zero training variance" in m] == [
            f"{r - rank} of {r} PCA components have zero training variance",
            f"2 of {rank + 2} PCA components have zero training variance",
        ]


class TestStratifiedSplit:
    def test_exact_proportions(self):
        y = np.array([0] * 60 + [1] * 40)
        x = np.zeros((100, 2))
        train, test = stratified_split(x, y, 0.25, seed=1)
        assert (y[test] == 0).sum() == 15
        assert (y[test] == 1).sum() == 10
        assert train.size + test.size == 100
        assert np.intersect1d(train, test).size == 0

    def test_same_seed_identical(self):
        rng = np.random.default_rng(29)
        y = rng.integers(0, 2, 40)
        y[:2] = [0, 1]
        x = rng.normal(size=(40, 3))
        a = stratified_split(x, y, 0.25, seed=9)
        b = stratified_split(x, y, 0.25, seed=9)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_balanced_eight_samples(self):
        y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
        _, test = stratified_split(np.zeros((8, 1)), y, 0.25, seed=0)
        # floor(4 * 0.25) = 1 per class, no remainder
        assert (y[test] == 0).sum() == 1
        assert (y[test] == 1).sum() == 1

    def test_remainder_goes_to_largest_class(self):
        y = np.array([0] * 7 + [1] * 3)
        _, test = stratified_split(np.zeros((10, 1)), y, 0.25, seed=0)
        # target floor(10*0.25)=2; floors are 1 and 0; remainder 1 -> class 0
        assert (y[test] == 0).sum() == 2
        assert (y[test] == 1).sum() == 0

    def test_small_class_rejected(self):
        y = np.array([0, 1, 1, 1])
        with pytest.raises(ValueError):
            stratified_split(np.zeros((4, 1)), y, 0.25, seed=0)

    def test_empty_test_set_rejected(self):
        # floor(8 * 0.1) = 0 test rows
        y = np.array([0] * 4 + [1] * 4)
        with pytest.raises(ValueError, match=r"test_fraction 0.1 .*\{0: 4, 1: 4\}.* no test row"):
            stratified_split(np.zeros((8, 1)), y, 0.1, seed=0)

    def test_class_without_training_row_rejected(self):
        # target floor(4 * 0.9) = 3; floors are 1 and 1; the remainder takes class 0's last row
        y = np.array([0, 0, 1, 1])
        with pytest.raises(ValueError, match=r"test_fraction 0.9 .* no training row in class 0"):
            stratified_split(np.zeros((4, 1)), y, 0.9, seed=0)

    @given(
        st.lists(st.integers(0, 1), min_size=8, max_size=60),
        st.integers(0, 1000),
        st.sampled_from([0.2, 0.25, 0.4]),
    )
    @settings(max_examples=80, deadline=None)
    def test_proportions_within_one_sample(self, labels, seed, fraction):
        y = np.array(labels)
        if (y == 0).sum() < 2 or (y == 1).sum() < 2:
            return
        x = np.zeros((y.size, 1))
        train, test = stratified_split(x, y, fraction, seed=seed)
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(y.size))
        for c in (0, 1):
            expected = (y == c).sum() * fraction
            got = (y[test] == c).sum()
            assert abs(got - expected) <= 1.0

    @given(
        st.lists(st.integers(2, 40), min_size=2, max_size=5),
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 1000),
    )
    @settings(max_examples=300, deadline=None)
    def test_remainder_matches_the_cycling_loop(self, sizes, fraction, seed):
        y = np.repeat(np.arange(len(sizes)), sizes)
        want = reference_test_counts(y, fraction)
        try:
            train, test = stratified_split(np.zeros((y.size, 1)), y, fraction, seed=seed)
        except ValueError:
            # rejected exactly when the loop's counts leave no test row or a
            # class with no training row
            assert sum(want.values()) == 0 or any(want[c] == n for c, n in enumerate(sizes))
            return
        assert {c: int((y[test] == c).sum()) for c in range(len(sizes))} == want
        # the same split: each class's seeded permutation, its first rows to test
        rng = np.random.default_rng(seed)
        parts = [rng.permutation(np.flatnonzero(y == c)) for c in range(len(sizes))]
        heads = [p[: want[c]] for c, p in enumerate(parts)]
        tails = [p[want[c]:] for c, p in enumerate(parts)]
        assert np.array_equal(test, np.sort(np.concatenate(heads)))
        assert np.array_equal(train, np.sort(np.concatenate(tails)))


def permutations_of_1_to_60_rows():
    """Row orders over 1-60 rows: the identity, one cycle through every row,
    or any permutation."""
    return st.integers(1, 60).flatmap(
        lambda n: st.one_of(
            st.just(list(range(n))),
            st.just([*range(1, n), 0]),
            st.permutations(range(n)),
        )
    )


class TestReorderRows:
    @given(permutations_of_1_to_60_rows(), st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_in_place_and_byte_equal_to_fancy_indexing(self, order, seed):
        rows = np.random.default_rng(seed).normal(size=(len(order), 3))
        want = rows[np.array(order)]
        got = reorder_rows(rows, np.array(order))
        assert got is rows
        assert got.tobytes() == want.tobytes()


class TestNoLeakage:
    def test_fitted_params_ignore_test_rows(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(40, 6))
        y = np.array([0, 1] * 20)
        train, test = stratified_split(x, y, 0.25, seed=4)
        perturbed = x.copy()
        perturbed[test] += rng.normal(scale=10.0, size=(test.size, 6))

        p1, p2 = standardize_fit(x[train]), standardize_fit(perturbed[train])
        assert p1.feature_min.tobytes() == p2.feature_min.tobytes()
        assert p1.feature_max.tobytes() == p2.feature_max.tobytes()
        m1 = pca_fit(standardize_apply(p1, x[train]), 6)
        m2 = pca_fit(standardize_apply(p2, perturbed[train]), 6)
        assert m1.components.tobytes() == m2.components.tobytes()
        assert m1.mean.tobytes() == m2.mean.tobytes()


class TestLoadExternalFeatures:
    def write(self, tmp_path, text, name="features.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def header(self, d=64):
        return ",".join([f"f{i}" for i in range(d)] + ["label"])

    def test_happy_path(self, tmp_path):
        rows = [",".join(["0.5"] * 64) + f",{label}" for label in (0, 0, 1, 1)]
        rows, labels = load_external_features(
            self.write(tmp_path, self.header() + "\n" + "\n".join(rows))
        )
        assert rows.shape == (4, 64)
        assert labels.tolist() == [0, 0, 1, 1]

    def test_ragged_row_reports_row_number(self, tmp_path):
        rows = [",".join(["0.1"] * 64) + ",0", ",".join(["0.1"] * 63) + ",1"]
        path = self.write(tmp_path, self.header() + "\n" + "\n".join(rows))
        with pytest.raises(ValueError, match="row 3"):
            load_external_features(path)

    def test_empty_file_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_external_features(self.write(tmp_path, ""))

    def test_header_only_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no data rows"):
            load_external_features(self.write(tmp_path, self.header()))

    def test_missing_label_column_rejected(self, tmp_path):
        path = self.write(tmp_path, "f0,f1\n0.1,0.2")
        with pytest.raises(ValueError, match="label"):
            load_external_features(path)

    def test_unknown_label_rejected(self, tmp_path):
        path = self.write(tmp_path, "f0,label\n0.1,2")
        with pytest.raises(ValueError, match="row 2.*unknown label"):
            load_external_features(path)

    def test_non_numeric_feature_rejected(self, tmp_path):
        path = self.write(tmp_path, "f0,label\nabc,1")
        with pytest.raises(ValueError, match="row 2"):
            load_external_features(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_feature_rejected_with_row_number(self, tmp_path, value):
        path = self.write(tmp_path, f"f0,f1,label\n0.1,0.2,0\n0.3,{value},1\n0.5,0.6,0")
        with pytest.raises(ValueError, match="row 3: non-finite"):
            load_external_features(path)

    def test_values_returned_exactly_as_stored(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n0.25,-3.5,1\n1.0,2.0,0")
        rows, _ = load_external_features(path)
        assert rows.tolist() == [[0.25, -3.5], [1.0, 2.0]]

    def test_blank_line_in_body_rejected_with_row_number(self, tmp_path):
        path = self.write(tmp_path, "f0,f1,label\n0.1,0.2,0\n\n0.3,0.4,1\n")
        with pytest.raises(ValueError, match="row 3: expected 3 columns"):
            load_external_features(path)

    @pytest.mark.parametrize("line", ["# a comment", "#0.3,0.4,1"])
    def test_hash_led_line_in_body_rejected_with_row_number(self, tmp_path, line):
        path = self.write(tmp_path, f"f0,f1,label\n0.1,0.2,0\n{line}\n0.5,0.6,1\n")
        with pytest.raises(ValueError, match="row 3: "):
            load_external_features(path)

    def test_crlf_file_reads_as_lf_file(self, tmp_path):
        rng = np.random.default_rng(3)
        lines = ["f0,f1,f2,label"] + [
            ",".join(repr(v) for v in rng.normal(size=3).tolist()) + f",{i % 2}" for i in range(6)
        ]
        lf = load_external_features(self.write(tmp_path, "\n".join(lines) + "\n", "lf.csv"))
        crlf_path = tmp_path / "crlf.csv"
        crlf_path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
        crlf = load_external_features(crlf_path)
        assert crlf[0].tobytes() == lf[0].tobytes()
        assert crlf[1].tobytes() == lf[1].tobytes()

    def test_underscore_digit_separator_rejected_with_row_number(self, tmp_path):
        # float("1_000") is 1000.0, but the file grammar has no separators
        path = self.write(tmp_path, "f0,f1,label\n0.1,0.2,0\n1_000,0.4,1\n")
        with pytest.raises(ValueError, match="row 3: non-numeric feature value"):
            load_external_features(path)

    @pytest.mark.parametrize(
        "line, what",
        [('"0.3",0.4,1', "non-numeric feature value"), ('0.3,0.4,"1"', "unknown label")],
    )
    def test_quoted_field_rejected_with_row_number(self, tmp_path, line, what):
        path = self.write(tmp_path, f"f0,f1,label\n0.1,0.2,0\n{line}\n")
        with pytest.raises(ValueError, match=f"row 3: {what}"):
            load_external_features(path)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["", "+", "-"]),
                st.text("0123456789", max_size=6),
                st.none() | st.text("0123456789", max_size=20),
                st.none()
                | st.tuples(st.sampled_from("eE"), st.booleans(), st.integers(-330, 300)),
            ).filter(lambda t: t[1] or t[2]),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_values_bit_identical_to_float(self, tmp_path_factory, parts):
        """Signed, '+'-led, '.5', '5.' and exponent forms, down to subnormal
        and underflowing exponents, parse as float() parses them."""
        texts = []
        for sign, whole, frac, exp in parts:
            text = sign + whole + ("" if frac is None else "." + frac)
            if exp is not None:
                mark, plus, power = exp
                text += mark + ("+" if plus and power >= 0 else "") + str(power)
            texts.append(text)
        path = tmp_path_factory.mktemp("csv") / "features.csv"
        body = "\n".join(f"{t},{i % 2}" for i, t in enumerate(texts))
        path.write_text("f0,label\n" + body + "\n")
        rows, labels = load_external_features(path)
        assert rows.tobytes() == np.array([[float(t)] for t in texts]).tobytes()
        assert labels.tolist() == [i % 2 for i in range(len(texts))]
