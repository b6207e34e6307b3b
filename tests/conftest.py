import numpy as np
import pytest

from qkevolve.circuit import evaluate_states
from qkevolve.evolve import EvalData, project_pca
from qkevolve.genome import EncodingMode, decode_genome, genome_length, random_bits
from qkevolve.reduce import standardize_apply, standardize_fit, stratified_split


def make_eval_data(x, y01, seed=0, test_fraction=0.25, svm_config=None, pca=False):
    """Split, standardize on train and wrap into EvalData with +-1 labels;
    with `pca`, project both blocks through `project_pca` as `prepare_data`
    does, for PCA-header configs."""
    train_idx, test_idx = stratified_split(x, y01, test_fraction, seed)
    params = standardize_fit(x[train_idx])
    x_train = standardize_apply(params, x[train_idx])
    x_test = standardize_apply(params, x[test_idx])
    if pca:
        x_train, x_test = project_pca(x_train, x_test)
    kwargs = {} if svm_config is None else {"svm_config": svm_config}
    return EvalData(
        x_train=x_train,
        y_train=y01[train_idx] * 2 - 1,
        x_test=x_test,
        y_test=y01[test_idx] * 2 - 1,
        pca_scores=pca,
        **kwargs,
    )


def gram(circ, rows, cols=None):
    """Re<Phi(row_i)|Phi(col_j)>, formed as the evaluation path forms it: one
    real product of the stacked [Re, Im] amplitudes."""

    def features(xs):
        states = evaluate_states(circ, xs)
        return np.concatenate([states.real, states.imag], axis=1)

    f_rows = features(rows)
    f_cols = f_rows if cols is None else features(cols)
    return f_rows @ f_cols.T


def random_genome(rng, m, n, mode=EncodingMode.FIXED_FEATURES):
    bits = random_bits(genome_length(m, n, mode), rng)
    return decode_genome(bits, m, n, mode), bits


@pytest.fixture(scope="session")
def tiny_sep_dataset():
    """40 samples, 2 features, two mostly separated Gaussian blobs. Fixed for
    the exhaustive 14-bit search."""
    rng = np.random.default_rng(20240331)
    y01 = np.array([0] * 20 + [1] * 20)
    centers = np.where(y01[:, None] == 0, -0.8, 0.8)
    x = centers + rng.normal(scale=0.35, size=(40, 2))
    return x, y01


@pytest.fixture(scope="session")
def two_gauss_dataset():
    """200 samples x 64 raw features; the two classes separate in a
    4-dimensional informative subspace, the other 60 dimensions are noise."""
    rng = np.random.default_rng(20240809)
    y01 = np.array([0] * 100 + [1] * 100)
    x = rng.normal(scale=1.0, size=(200, 64))
    signs = np.where(y01 == 0, -1.0, 1.0)
    x[:, :4] = signs[:, None] * 1.2 + rng.normal(scale=0.4, size=(200, 4))
    perm = rng.permutation(200)
    return x[perm], y01[perm]
