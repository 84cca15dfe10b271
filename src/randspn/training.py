"""Hybrid generative/discriminative training.

The objective is a convex combination of cross-entropy and the per-variable
normalized negative log-likelihood of the labeled class root, weighted by
``lam`` (1 = purely discriminative, 0 = maximum likelihood). The gradient is
reverse mode, derived by hand: sum blocks propagate softmax-weighted
responsibilities, product blocks route their gradient to both factors, and
leaves pick up the usual Gaussian/Bernoulli score terms. Masked-out inputs
and dropped product columns receive exactly zero gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GAUSSIAN, LEAF, PRODUCT, ParameterSet
from .data import batch_iterator
from .errors import InvalidInput, NumericFailure
from .inference import forward_log, logsumexp, sum_block_inputs, sum_block_kernel
from .leaves import VARIANCE_FLOOR, clamped_variances


@dataclass
class TrainConfig:
    lam: float = 1.0
    epochs: int = 10
    batch_size: int = 100
    input_keep: float = 1.0
    sum_keep: float = 1.0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.lam <= 1.0:
            raise InvalidInput(f"lambda must be in [0, 1], got {self.lam}")
        if self.epochs < 0:
            raise InvalidInput("epochs must be >= 0")
        if self.batch_size < 1:
            raise InvalidInput("batch_size must be >= 1")
        for name in ("input_keep", "sum_keep"):
            rate = getattr(self, name)
            if not 0.0 < rate <= 1.0:
                raise InvalidInput(f"{name} must be in (0, 1], got {rate}")


def _check_roots_labels(roots, labels):
    roots = np.asarray(roots, dtype=float)
    labels = np.asarray(labels)
    if roots.ndim != 2:
        raise InvalidInput("roots must be a (samples, classes) matrix")
    if labels.shape != (roots.shape[0],):
        raise InvalidInput("labels must be one integer per sample")
    if np.any(labels < 1) or np.any(labels > roots.shape[1]):
        raise InvalidInput(f"labels must lie in 1..{roots.shape[1]}")
    return roots, labels.astype(int)


def cross_entropy(roots, labels) -> float:
    """Mean negative log class posterior implied by the root log-values."""
    roots, labels = _check_roots_labels(roots, labels)
    picked = roots[np.arange(len(labels)), labels - 1]
    with np.errstate(invalid="ignore"):  # -inf roots surface as NaN downstream
        return float(-(picked - logsumexp(roots)).mean())


def neg_log_likelihood(roots, labels, num_vars: int) -> float:
    """Negative mean log-likelihood of the labeled root, per variable."""
    roots, labels = _check_roots_labels(roots, labels)
    if num_vars < 1:
        raise InvalidInput("num_vars must be >= 1")
    picked = roots[np.arange(len(labels)), labels - 1]
    return float(-picked.mean() / num_vars)


def hybrid_objective(roots, labels, num_vars: int, lam: float) -> float:
    if not 0.0 <= lam <= 1.0:
        raise InvalidInput(f"lambda must be in [0, 1], got {lam}")
    return lam * cross_entropy(roots, labels) + (1.0 - lam) * neg_log_likelihood(
        roots, labels, num_vars
    )


def _objective_root_gradient(roots, labels, num_vars, lam):
    n, c = roots.shape
    onehot = np.zeros((n, c))
    onehot[np.arange(n), labels - 1] = 1.0
    grad = np.zeros((n, c))
    if lam > 0.0:
        lse = logsumexp(roots)
        posterior = np.exp(roots - lse[:, None])
        grad += lam * (-(onehot - posterior) / n)
    if lam < 1.0:
        grad += (1.0 - lam) * (-onehot / (n * num_vars))
    return grad


def _table_diagnostics(circuit, tables):
    notes = []
    for block in circuit.blocks:
        t = tables.get(block.index)
        if t is None:
            continue
        if np.isnan(t).any():
            notes.append(f"{block}: table contains NaN")
        elif np.isneginf(t).all(axis=1).any():
            notes.append(f"{block}: some sample rows are entirely -inf")
    return notes


def sum_block_backward(values, logits, g):
    """Gradients of ``sum_block_forward`` w.r.t. its inputs and its logits.

    ``g`` is the gradient of the block's (N, S) outputs. With the kernel's
    ``e``, ``w`` and ``p`` and ``r = g / p``, the input gradient is
    ``e * (r @ w)`` and the logit gradient ``w * (r.T @ e - g.sum(0))``. An
    output that is -inf (``p == 0``, as in a dead row) passes no gradient,
    and a dropped column (``e == 0``) gets exactly zero input gradient.
    """
    _, e, w, p = sum_block_kernel(values, logits)
    live = p > 0.0
    g = np.where(live, g, 0.0)
    r = g / np.where(live, p, 1.0)
    return e * (r @ w), w * (r.T @ e - g.sum(axis=0)[:, None])


def backward_gradients(
    circuit: Circuit,
    params: ParameterSet,
    batch,
    labels,
    lam: float,
    missing=None,
    sum_dropout=None,
):
    """Exact objective gradient for every parameter. Returns (grads, objective)."""
    batch = np.asarray(batch, dtype=float)
    roots, tables = forward_log(
        circuit, params, batch, missing, sum_dropout, return_tables=True
    )
    _, labels = _check_roots_labels(roots, labels)
    objective = hybrid_objective(roots, labels, circuit.num_vars, lam)
    if not np.isfinite(objective):
        raise NumericFailure(
            f"objective is {objective!r}", _table_diagnostics(circuit, tables)
        )

    grads = params.zeros_like()
    acc = {b.index: None for b in circuit.blocks}
    acc[circuit.root_block.index] = _objective_root_gradient(
        roots, labels, circuit.num_vars, lam
    )

    def accumulate(block, value):
        if acc[block.index] is None:
            acc[block.index] = value.copy()
        else:
            acc[block.index] += value

    for layer in reversed(circuit.layer_order):
        for block in layer:
            g = acc[block.index]
            if g is None or block.kind == LEAF:
                continue
            if block.kind == PRODUCT:
                left, right = block.inputs
                g3 = g.reshape(g.shape[0], left.width, right.width)
                accumulate(left, g3.sum(axis=2))
                accumulate(right, g3.sum(axis=1))
                continue
            x = sum_block_inputs(tables, block, sum_dropout)
            d_x, d_logits = sum_block_backward(x, params.sum_logits[block.index], g)
            grads.sum_logits[block.index][...] = d_logits
            offset = 0
            for src in block.inputs:
                accumulate(src, d_x[:, offset : offset + src.width])
                offset += src.width

    for block in circuit.leaf_blocks():
        g = acc[block.index]
        if g is None:
            continue
        scope = list(block.scope)
        x = batch[:, scope]
        observed = (
            np.ones_like(x, dtype=bool)
            if missing is None
            else ~np.asarray(missing, bool)[:, scope]
        )
        if circuit.leaf_family == GAUSSIAN:
            means = params.leaf_means[block.index]
            if params.leaf_log_vars is None:
                var = np.ones_like(means)
            else:
                var = clamped_variances(params.leaf_log_vars[block.index])
            diff = x[:, None, :] - means[None, :, :]
            score = np.where(observed[:, None, :], diff / var[None, :, :], 0.0)
            grads.leaf_means[block.index][...] = np.einsum("ni,niv->iv", g, score)
            if params.leaf_log_vars is not None:
                active = np.exp(params.leaf_log_vars[block.index]) > VARIANCE_FLOOR
                term = -0.5 + diff * diff / (2.0 * var[None, :, :])
                term = np.where(observed[:, None, :], term, 0.0)
                d_lv = np.einsum("ni,niv->iv", g, term) * active
                grads.leaf_log_vars[block.index][...] = d_lv
        else:
            logits = params.leaf_logits[block.index]
            p = 1.0 / (1.0 + np.exp(-logits))
            score = np.where(observed[:, None, :], x[:, None, :] - p[None, :, :], 0.0)
            grads.leaf_logits[block.index][...] = np.einsum("ni,niv->iv", g, score)

    return grads, objective


def sample_input_dropout_mask(num_vars, batch_size, keep_rate, rng) -> np.ndarray:
    """Missing-variable mask: each entry kept with probability ``keep_rate``."""
    if not 0.0 < keep_rate <= 1.0:
        raise InvalidInput(f"keep rate must be in (0, 1], got {keep_rate}")
    return rng.random((batch_size, num_vars)) >= keep_rate


def sample_sum_dropout_mask(
    circuit: Circuit, keep_rate, batch_size, rng
) -> dict[int, np.ndarray]:
    """Per-region keep masks over product columns, at least one kept per row.

    One mask per sum block, shared by all sums of its region; a row that
    would drop every column is redrawn.
    """
    if not 0.0 < keep_rate <= 1.0:
        raise InvalidInput(f"keep rate must be in (0, 1], got {keep_rate}")
    masks = {}
    for block in circuit.sum_blocks():
        if any(b.kind != PRODUCT for b in block.inputs):
            continue  # single-variable corner mixes leaves, nothing to drop
        k = sum(b.width for b in block.inputs)
        keep = rng.random((batch_size, k)) < keep_rate
        while True:
            dead = ~keep.any(axis=1)
            if not dead.any():
                break
            keep[dead] = rng.random((int(dead.sum()), k)) < keep_rate
        masks[block.index] = keep
    return masks


@dataclass
class AdamState:
    """Step counter and moment vectors, aligned with ``ParameterSet.flat``."""

    step: int
    m: np.ndarray
    v: np.ndarray

    @classmethod
    def initial(cls, params: ParameterSet) -> "AdamState":
        return cls(0, np.zeros_like(params.flat), np.zeros_like(params.flat))


def adam_step(params: ParameterSet, grads: ParameterSet, state: AdamState, config):
    """One bias-corrected adaptive-moment update. Returns (params, state)."""
    g = grads.flat
    finite = np.isfinite(g)
    if not finite.all():
        first = int(np.argmin(finite))
        slot = next(s for s in grads.layout if first < s.offset + s.size)
        raise NumericFailure(
            f"non-finite gradient for parameter {(slot.group, slot.block)}"
        )
    t = state.step + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * g
    v = config.beta2 * state.v + (1.0 - config.beta2) * g * g
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    flat = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    return ParameterSet(params.layout, flat), AdamState(t, m, v)


def evaluate_metrics(circuit, params, features, labels, lam, eval_batch=1024):
    """Dropout-free objective / CE / nLL / accuracy over a whole dataset."""
    features = np.asarray(features, dtype=float)
    rows = []
    for start in range(0, len(features), eval_batch):
        rows.append(forward_log(circuit, params, features[start : start + eval_batch]))
    roots = np.concatenate(rows, axis=0)
    ce = cross_entropy(roots, labels)
    nll = neg_log_likelihood(roots, labels, circuit.num_vars)
    predicted = np.argmax(roots, axis=1) + 1
    return {
        "objective": lam * ce + (1.0 - lam) * nll,
        "ce": ce,
        "nll": nll,
        "accuracy": float((predicted == np.asarray(labels)).mean()),
    }


def train(circuit, params, train_data, valid_data, config: TrainConfig):
    """Mini-batch Adam loop with probabilistic dropout. Returns (params, metrics).

    ``train_data``/``valid_data`` are Dataset objects (valid may be None).
    Dropout masks are redrawn for every batch and disabled for the per-epoch
    metric rows. Warm starts are just calls with previously trained params.
    """
    rng = np.random.default_rng(config.seed)
    params = params.copy()
    state = AdamState.initial(params)
    metrics = []
    for epoch in range(1, config.epochs + 1):
        epoch_seed = int(rng.integers(2**63))
        for xb, yb in batch_iterator(train_data, config.batch_size, epoch_seed):
            missing = None
            if config.input_keep < 1.0:
                missing = sample_input_dropout_mask(
                    circuit.num_vars, len(xb), config.input_keep, rng
                )
            sum_dropout = None
            if config.sum_keep < 1.0:
                sum_dropout = sample_sum_dropout_mask(
                    circuit, config.sum_keep, len(xb), rng
                )
            grads, _ = backward_gradients(
                circuit, params, xb, yb, config.lam, missing, sum_dropout
            )
            params, state = adam_step(params, grads, state, config)

        row = {"epoch": epoch}
        row.update(
            evaluate_metrics(
                circuit, params, train_data.features, train_data.labels, config.lam
            )
        )
        row["train_accuracy"] = row.pop("accuracy")
        if valid_data is not None and valid_data.labels is not None:
            valid = evaluate_metrics(
                circuit, params, valid_data.features, valid_data.labels, config.lam
            )
            row["valid_accuracy"] = valid["accuracy"]
        else:
            row["valid_accuracy"] = None
        metrics.append(row)
    return params, metrics
