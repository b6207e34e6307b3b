"""Independent reference implementations used to freeze expected values.

Each oracle is deliberately built from a different principle than the code it
checks: matrix exponentials via eigendecomposition instead of closed forms,
circuits one gate at a time as dense 2^M x 2^M matrices on the full state
instead of fused blocks on qubit clusters, kernels of CNOT-free circuits as
products of per-qubit inner products, the SVM dual via exhaustive active-set
enumeration instead of pairwise updates, domination fronts via repeated peeling, gradients via central
differences, bilinear resampling via a scalar loop, and PCA via a thin SVD of
the centered rows instead of the eigendecomposition of their smaller Gram.
`reference_fit` is the SVM solver before its allocation-free rewrite, kept as
a bit-exact reference, and `reference_standardize_apply` is the same for the
standardization before its in-place rewrite.

Helpers that only tests use live here too: the genome encoder, the inverse
of `decode_genome` that the round-trip tests run, the SVM decision value of
one kernel row and the MLP's class probabilities for one input.
"""

from __future__ import annotations

import itertools

import numpy as np

from qkevolve.genome import GATE_BITS, KIND_BY_CODE, ROTATION_AXIS, EncodingMode, GateKind
from qkevolve.reduce import PcaModel, StandardizationParams
from qkevolve.svm import PSD_ABORT_TOL, PSD_CLAMP_TOL, SUPPORT_TOL, SvmConfig, TrainedQSVM

CNOT_MATRIX = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)

_SIGMA = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def expm_rotation(axis: str, angle: float) -> np.ndarray:
    """exp(-i*angle*sigma_axis) through the eigendecomposition of sigma."""
    vals, vecs = np.linalg.eigh(_SIGMA[axis])
    return (vecs * np.exp(-1j * angle * vals)) @ vecs.conj().T


def _op_unitary(op, x) -> np.ndarray:
    """The 2x2 unitary of one rotation op at input x."""
    angle = op.theta if op.feature_index is None else op.theta * x[op.feature_index]
    return expm_rotation(ROTATION_AXIS[op.kind], angle)


def gate_matrix(op, n_qubits: int, x=None) -> np.ndarray:
    """Dense 2^M x 2^M matrix of one circuit op (qubit 0 is the most
    significant bit); x supplies the feature of a parameterized rotation."""
    dim = 1 << n_qubits
    if op.kind is GateKind.IDENTITY:
        return np.eye(dim, dtype=complex)
    if op.kind is GateKind.CNOT:
        out = np.zeros((dim, dim), dtype=complex)
        for col in range(dim):
            bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
            bits[op.target] ^= bits[op.qubit]
            out[int("".join(map(str, bits)), 2), col] = 1.0
        return out
    if op.feature_index is not None and x is None:
        raise ValueError("parameterized gate needs an input feature value")
    left = np.eye(1 << op.qubit)
    right = np.eye(1 << (n_qubits - 1 - op.qubit))
    return np.kron(np.kron(left, _op_unitary(op, x)), right)


def reference_states(circuit, xs) -> np.ndarray:
    """U(x)|0..0> for each row x, applying every op's dense matrix in scan
    order; matrices that do not depend on x are built once."""
    m = circuit.n_qubits
    fixed = {i: gate_matrix(op, m) for i, op in enumerate(circuit.ops) if op.feature_index is None}
    out = []
    for x in np.atleast_2d(xs):
        state = np.zeros(1 << m, dtype=complex)
        state[0] = 1.0
        for i, op in enumerate(circuit.ops):
            state = (fixed[i] if i in fixed else gate_matrix(op, m, x)) @ state
        out.append(state)
    return np.array(out)


def product_kernel(circuit, x, x_other) -> float:
    """Kernel of a CNOT-free circuit as the product of per-qubit 2-dimensional
    inner products, Re taken after the complex product; no 2^M state is formed."""
    if circuit.census.n_cnot:
        raise ValueError("product_kernel requires a CNOT-free circuit")
    total = 1.0 + 0.0j
    for q in range(circuit.n_qubits):
        sx = np.array([1.0, 0.0], dtype=complex)
        sy = np.array([1.0, 0.0], dtype=complex)
        for op in circuit.ops:
            if op.qubit == q and op.kind is not GateKind.IDENTITY:
                sx = _op_unitary(op, x) @ sx
                sy = _op_unitary(op, x_other) @ sy
        total *= np.vdot(sx, sy)
    return float(total.real)


def dual_objective(alpha: np.ndarray, k: np.ndarray, y: np.ndarray) -> float:
    q = k * np.outer(y, y)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def qp_bruteforce(k: np.ndarray, y: np.ndarray, c: float):
    """Exact soft-margin dual optimum by enumerating every {0, C, free}
    active-set assignment and keeping the best feasible candidate. Exponential
    in n; intended for n <= 8."""
    n = len(y)
    q = k * np.outer(y, y)
    best_alpha, best_obj = None, -np.inf
    for assign in itertools.product((0, 1, 2), repeat=n):
        upper = [i for i, a in enumerate(assign) if a == 1]
        free = [i for i, a in enumerate(assign) if a == 2]
        alpha = np.zeros(n)
        alpha[upper] = c
        if free:
            qff = q[np.ix_(free, free)]
            rhs = np.ones(len(free))
            if upper:
                rhs = rhs - q[np.ix_(free, upper)] @ alpha[upper]
            mat = np.zeros((len(free) + 1, len(free) + 1))
            mat[: len(free), : len(free)] = qff
            mat[: len(free), -1] = -y[free]
            mat[-1, : len(free)] = y[free]
            vec = np.concatenate([rhs, [-(y[upper] @ alpha[upper]) if upper else 0.0]])
            try:
                sol = np.linalg.solve(mat, vec)
            except np.linalg.LinAlgError:
                continue
            af = sol[: len(free)]
            if np.any(af < -1e-9) or np.any(af > c + 1e-9):
                continue
            alpha[free] = np.clip(af, 0.0, c)
        if abs(float(y @ alpha)) > 1e-8:
            continue
        obj = dual_objective(alpha, k, y)
        if obj > best_obj:
            best_obj, best_alpha = obj, alpha
    return best_alpha, best_obj


def reference_fit(k_train, y, config=None):
    """The SVM solver as it stood before its allocation-free rewrite: every
    kernel goes through `eigvalsh`, and each step builds its working sets with
    `np.where`. `svm.fit` must return the same floats, bit for bit."""
    config = config or SvmConfig()
    k = np.asarray(k_train, dtype=float)
    y = np.asarray(y, dtype=float).ravel()
    n = y.size
    if k.shape != (n, n):
        raise ValueError(f"kernel shape {k.shape} does not match {n} labels")
    if not np.isfinite(k).all():
        raise ValueError("kernel matrix contains non-finite entries")
    if not np.all(np.isin(y, (-1.0, 1.0))):
        raise ValueError("labels must be -1 or +1")
    if np.unique(y).size < 2:
        raise ValueError("training requires both classes")
    eig_min = float(np.linalg.eigvalsh(k)[0])
    if eig_min < -PSD_ABORT_TOL:
        raise RuntimeError(
            f"kernel matrix min eigenvalue {eig_min:.3e} is far below zero; "
            "this indicates a simulator bug, not rounding"
        )
    if eig_min < -PSD_CLAMP_TOL:
        k = k + (-eig_min) * np.eye(k.shape[0])

    c_reg, tol = config.c_reg, config.tol
    lo, hi = np.minimum(0.0, y * c_reg), np.maximum(0.0, y * c_reg)
    beta = np.zeros(n)  # signed duals y * alpha, each boxed in [lo, hi]
    yg = y.copy()  # y_i - f_i without bias, i.e. minus y_i times the dual gradient
    columns = k.T.copy()  # k[:, i] contiguously; rows of k may differ in the last bit

    for _ in range(config.max_passes):
        i = np.argmax(np.where(beta < hi, yg, -np.inf))
        j = np.argmin(np.where(beta > lo, yg, np.inf))
        violation = yg[i] - yg[j]
        if violation <= tol:
            break
        quad = k[i, i] + k[j, j] - 2.0 * k[i, j]
        if quad <= 0.0:
            quad = 1e-12
        bound_i, bound_j = hi[i] - beta[i], beta[j] - lo[j]
        t = min(violation / quad, bound_i, bound_j)
        if t <= 0.0:
            break
        # land exactly on the box when a bound is the binding constraint
        new_i = hi[i] if t == bound_i else beta[i] + t
        new_j = lo[j] if t == bound_j else beta[j] - t
        yg -= columns[i] * (new_i - beta[i]) + columns[j] * (new_j - beta[j])
        beta[i], beta[j] = new_i, new_j

    alpha = np.abs(beta)  # abs also turns a -0.0 dual into 0.0
    residual = y - k @ beta
    margin = (alpha > SUPPORT_TOL) & (alpha < c_reg - SUPPORT_TOL)
    if margin.any():
        bias = residual[margin].mean()
    else:
        # midpoint of the bias interval allowed by the bound variables
        bias = 0.5 * (residual[beta < hi].max() + residual[beta > lo].min())

    return TrainedQSVM(
        dual_coefs=alpha,
        labels=y,
        bias=float(bias),
        support_mask=alpha > SUPPORT_TOL,
        regularization=c_reg,
    )


def decision(model, k_row: np.ndarray) -> float:
    """Pre-sign SVM decision value for one point given its kernel row against
    the training set."""
    k_row = np.asarray(k_row, dtype=float).ravel()
    if k_row.size != model.dual_coefs.size:
        raise ValueError("kernel row length does not match the training set")
    return float((model.dual_coefs * model.labels) @ k_row + model.bias)


def pareto_front_points(points) -> set:
    """Non-dominated (accuracy, objective_balance) pairs of a point cloud,
    accuracy maximized and objective balance minimized."""

    def dominated(p, q):
        return (
            q[0] >= p[0]
            and q[1] <= p[1]
            and (q[0] > p[0] or q[1] < p[1])
        )

    unique = set(points)
    return {p for p in unique if not any(dominated(p, q) for q in unique)}


def peel_fronts(points: list) -> list:
    """Non-dominated sorting by repeatedly removing the current front."""
    remaining = list(enumerate(points))
    fronts = []
    while remaining:
        front_pairs = pareto_front_points([p for _, p in remaining])
        front = sorted(i for i, p in remaining if p in front_pairs)
        fronts.append(front)
        remaining = [(i, p) for i, p in remaining if i not in set(front)]
    return fronts


def bilinear_reference(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Scalar-loop bilinear resampling, half-pixel centers, edge clamp."""
    h, w = img.shape
    out = np.zeros((out_h, out_w))
    for r in range(out_h):
        for col in range(out_w):
            sy = min(max((r + 0.5) * h / out_h - 0.5, 0.0), h - 1.0)
            sx = min(max((col + 0.5) * w / out_w - 0.5, 0.0), w - 1.0)
            y0, x0 = int(np.floor(sy)), int(np.floor(sx))
            y1, x1 = min(y0 + 1, h - 1), min(x0 + 1, w - 1)
            fy, fx = sy - y0, sx - x0
            top = img[y0, x0] * (1 - fx) + img[y0, x1] * fx
            bot = img[y1, x0] * (1 - fx) + img[y1, x1] * fx
            out[r, col] = top * (1 - fy) + bot * fy
    return out


def reference_standardize_apply(params: StandardizationParams, x: np.ndarray) -> np.ndarray:
    """`standardize_apply` as one expression with full-size temporaries, the
    bit-exact reference for its in-place steps."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    span = params.feature_max - params.feature_min
    safe = np.where(span > 0, span, 1.0)
    out = 2.0 * (x - params.feature_min) / safe - 1.0
    return np.where(span > 0, out, 0.0)


def svd_pca(train: np.ndarray, r: int) -> PcaModel:
    """Top-r principal directions from the thin SVD U S V^T of the centered
    rows, with r clamped to [1, min(n-1, d)] as `pca_fit` clamps it, and
    `pca_fit`'s sign rule (largest-magnitude loading positive). The training
    scores are U S, read off the SVD rather than projected, signed with the
    components. Directions of zero variance are whatever the SVD returns for
    the null space."""
    train = np.atleast_2d(np.asarray(train, dtype=float))
    n, d = train.shape
    r_eff = int(min(max(1, r), n - 1, d))
    mean = train.mean(axis=0)
    u, s, vt = np.linalg.svd(train - mean, full_matrices=False)
    components = vt[:r_eff]
    flip = np.where(components[np.arange(r_eff), np.abs(components).argmax(axis=1)] < 0, -1.0, 1.0)
    return PcaModel(
        mean=mean, components=components * flip[:, None], scores=u[:, :r_eff] * (s[:r_eff] * flip)
    )


def forward(model, x: np.ndarray) -> np.ndarray:
    """MLP class probabilities for one input vector, through the package's
    batched layers."""
    from qkevolve.baseline import _forward_batch, _softmax

    x = np.asarray(x, dtype=float).ravel()
    if x.size != model.input_dim:
        raise ValueError(f"input dimension mismatch: expected {model.input_dim}, got {x.size}")
    _, _, logits = _forward_batch(model, x[None, :])
    return _softmax(logits)[0]


def mlp_numeric_grads(model, xs: np.ndarray, y: np.ndarray, h: float = 1e-5) -> dict:
    """Central-difference gradients of the mean cross-entropy loss."""
    from qkevolve.baseline import loss_and_grads

    grads = {}
    for name in ("w1", "b1", "w2", "b2"):
        param = getattr(model, name)
        grad = np.zeros_like(param)
        flat = param.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus, _ = loss_and_grads(model, xs, y)
            flat[i] = orig - h
            minus, _ = loss_and_grads(model, xs, y)
            flat[i] = orig
            grad.ravel()[i] = (plus - minus) / (2 * h)
        grads[name] = grad
    return grads


CODE_BY_KIND = {kind: code for code, kind in enumerate(KIND_BY_CODE)}
# The bits of every 7-bit field value, MSB first, indexed by value.
_GATE_BIT_TABLE = (
    (np.arange(1 << GATE_BITS)[:, None] >> np.arange(GATE_BITS - 1, -1, -1)) & 1
).astype(np.uint8)


def encode_genome(genome, mode: EncodingMode) -> np.ndarray:
    """Inverse of decode_genome; the spare header bit is emitted as 0."""
    cells = (gene for layer in zip(*genome.grid) for gene in layer)
    values = [CODE_BY_KIND[gene.kind] * 16 + gene.angle_step - 1 for gene in cells]
    if mode is EncodingMode.PCA_HEADER:
        if genome.pca_components is None:
            raise ValueError("PCA_HEADER mode requires pca_components")
        values.insert(0, (genome.pca_components - 1) << 1)
    elif genome.pca_components is not None:
        raise ValueError("FIXED_FEATURES mode forbids pca_components")
    return _GATE_BIT_TABLE[values].ravel()
