"""Hybrid generative/discriminative training.

The objective is a convex combination of cross-entropy and the per-variable
normalized negative log-likelihood of the labeled class root, weighted by
``lam`` (1 = purely discriminative, 0 = maximum likelihood). The gradient is
reverse mode, derived by hand: sum blocks propagate softmax-weighted
responsibilities to their product columns, each product column's gradient
is summed straight into both factors' table gradients (products are folded
into the sums, as in the forward pass), and leaves pick up the usual
Gaussian/Bernoulli score terms. The factor sums are contractions with a
ones vector over all rows, and every leaf gradient is one contraction of
the table gradient with the leaf statistics (x², x, observed) the forward
pass gathered, as in the einsum layer of Einsum Networks (Peharz et al.
2020). Masked-out inputs and dropped product columns receive exactly zero
gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, LEAF, ParameterSet
from .data import Dataset, batch_iterator, check_labels
from .errors import InvalidInput, NumericFailure, check_floats, check_int, check_real, too_large
from .inference import SumKernel, forward_log, logsumexp
from .leaves import VARIANCE_FLOOR


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
        check_real("lambda", self.lam, 0, 1)
        self.epochs = check_int("epochs", self.epochs, 0)
        self.batch_size = check_int("batch_size", self.batch_size, 1)
        self.seed = check_int("seed", self.seed, 0)
        for name, high, ends in (
            ("input_keep", 1, "(]"), ("sum_keep", 1, "(]"), ("beta1", 1, "[)"),
            ("beta2", 1, "[)"), ("learning_rate", np.inf, "()"), ("epsilon", np.inf, "()"),
        ):
            check_real(name, getattr(self, name), 0, high, ends)


def _check_roots_labels(roots, labels):
    roots = check_floats("roots", roots)
    labels = np.asarray(labels)
    if roots.ndim != 2:
        raise InvalidInput("roots must be a (samples, classes) matrix")
    if roots.shape[0] == 0:
        raise InvalidInput("roots must hold at least one sample")
    if labels.shape != (roots.shape[0],):
        raise InvalidInput("labels must be one integer per sample")
    return roots, check_labels(labels, roots.shape[1])


def cross_entropy(roots, labels) -> float:
    """Mean negative log class posterior implied by the root log-values."""
    roots, labels = _check_roots_labels(roots, labels)
    picked = roots[np.arange(len(labels)), labels - 1]
    with np.errstate(invalid="ignore"):  # -inf roots surface as NaN downstream
        return float(-(picked - logsumexp(roots)).mean())


def neg_log_likelihood(roots, labels, num_vars: int) -> float:
    """Negative mean log-likelihood of the labeled root, per variable."""
    roots, labels = _check_roots_labels(roots, labels)
    num_vars = check_int("num_vars", num_vars, 1)
    picked = roots[np.arange(len(labels)), labels - 1]
    return float(-picked.mean() / num_vars)


def hybrid_objective(roots, labels, num_vars: int, lam: float) -> float:
    check_real("lambda", lam, 0, 1)
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
    """A note per plan member whose table holds NaN or an all -inf row, in plan order."""
    notes = []
    for group, table in zip(circuit.plan, tables):
        nan = np.isnan(table).any(axis=(1, 2))
        dead = np.isneginf(table).all(axis=2).any(axis=1)
        for position in np.flatnonzero(nan | dead):
            fault = "table contains NaN" if nan[position] else "some sample rows are entirely -inf"
            notes.append(f"plan group {group.index}, member {position} "
                         f"({group.kind} on region {group.regions[position]}): {fault}")
    return notes


def sum_block_backward(g, kernel: SumKernel):
    """Gradients of ``sum_block_forward(kernel)`` w.r.t. its inputs and its logits.

    ``g`` is the gradient of a group's (G, N, S) outputs (shapes as in
    ``sum_group_kernel``). With the kernel's ``e``, ``w`` and ``p`` and
    ``r = g / p``, the input gradient is ``e * (r @ w)`` and the logit
    gradient ``w * (r.T @ e - g.sum(0))``; ``log q`` adds none, as
    softmax rows sum to 1. An output that is -inf (``p == 0``, as in a dead
    row) passes no gradient, and a dropped column (``e == 0``) gets exactly
    zero input gradient. For a plan group with products folded in, the input
    gradient is that of the product columns' log-values.
    """
    e, w, p = kernel.e, kernel.w, kernel.p
    live = p > 0.0
    g = np.where(live, g, 0.0)
    r = g / np.where(live, p, 1.0)
    d_logits = w * (r.swapaxes(-1, -2) @ e - g.sum(axis=-2)[..., None])
    d_e = r @ w
    d_e *= e
    return d_e, d_logits


def _accumulate(grad_tables, tables, source, value):
    """Add ``value`` into the gradient of the source group's table.

    ``source`` is a ``Group.reads`` entry, with the take index cut to the
    slots ``value`` covers. A position repeated in it (a child region
    shared by two partitions) must receive every term, so it goes through
    ``add.at``.
    """
    src, positions, unique = source
    if grad_tables[src] is None:
        grad_tables[src] = np.zeros_like(tables[src])
    if unique:
        grad_tables[src][positions] += value
    else:
        np.add.at(grad_tables[src], positions, value)


def _factor_gradients(grad_tables, tables, group, d_x):
    """Route a sum group's input gradient to the tables it read.

    ``d_x`` is the (G, N, K) gradient of the log-values of the group's
    product columns. A product column adds its gradient to both factors, so
    a left factor's gradient is the sum over the right width, and the other
    way round. Both sums are contractions with a ones vector over all rows
    at once, not reductions over a short last axis, which pay per row. A
    group without runs read its inputs directly.
    """
    if not group.runs:
        src, at, unique = group.reads[0]
        _accumulate(grad_tables, tables, (src, at[:, 0], unique), d_x)
        return
    size, n, _ = d_x.shape
    for run in group.runs:
        parts, wl, wr = run.shape
        # a view when the run spans every column, else a copy
        d = d_x[..., run.columns].reshape(-1, wl, wr)
        sums = (
            (run.left, d.reshape(-1, wr) @ np.ones(wr)),
            (run.right, np.ones(wl) @ d),
        )
        for (read, slots), value in sums:
            src, at, unique = group.reads[read]
            # (G, partitions, N, width)
            value = value.reshape(size, n, parts, -1).transpose(0, 2, 1, 3)
            _accumulate(grad_tables, tables, (src, at[:, slots], unique), value)


def _leaf_gradients(params, d_flat, group, g, stats):
    """Write a leaf group's parameter gradients into ``d_flat``.

    ``g`` is the group's (G, N, I) table gradient and ``stats`` the
    (V, 3, N) ``leaf_statistics`` of the forward pass, whose ``x`` is 0
    where masked; the group takes its scope's statistics again, as the
    forward pass did, rather than keep a copy for every leaf group through
    the backward pass. One contraction over the batch, the group's
    (G, 3d, N) statistics times ``g``, gives ``g.T @ x²``, ``g.T @ x`` and
    ``g.T @ observed`` per plan group member. With ``mu`` the
    ``terms.means``, centred as ``x`` is, a Gaussian mean's gradient
    ``sum_n g * observed * (x - mu) / var`` is ``(g.T @ x - mu * g.T @
    observed) / var``, and its log-variance gradient, of ``-0.5 (log var
    + (x - mu)² / var)``, is ``0.5 / var * (g.T @ x² - mu * (2 g.T @ x -
    mu * g.T @ observed)) - 0.5 g.T @ observed``. A Bernoulli logit's has
    the mean's form, ``mu`` its success probability and ``var`` 1. A
    masked entry adds exactly 0 to every contraction, and so to every
    gradient, whatever its parameter.
    """
    terms = params.terms(group)
    size, n, width = g.shape
    scope = group.columns
    # the group's (G, 3d, N) statistics times g
    sums = np.take(stats, group.scope, axis=0).reshape(size, 3 * scope, n) @ g
    # (G, I, d) each
    g_sq, g_x, g_observed = sums.reshape(size, scope, 3, width).transpose(2, 0, 3, 1)

    name = next(t.name for t in params.layout if t.group == group.index and t.scope is not None)
    centers, d_centers = terms.means, params.stacked(name, group, d_flat)
    np.subtract(g_x, centers * g_observed, out=d_centers)
    if not params.train_variance:
        return
    d_centers *= terms.inv_variances
    d_log_vars = params.stacked("leaf_log_vars", group, d_flat)
    # mu * (mu * g.T @ observed), not mu² g.T @ observed: a masked mean of
    # 1e200 has mu² = inf, and inf * 0 is NaN
    squares = g_sq - centers * (2.0 * g_x - centers * g_observed)
    np.multiply(0.5 * terms.inv_variances, squares, out=d_log_vars)
    d_log_vars -= 0.5 * g_observed
    d_log_vars *= terms.variances > VARIANCE_FLOOR


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
    roots, tables, kernels = forward_log(
        circuit, params, batch, missing, sum_dropout, return_tables=True
    )
    _, labels = _check_roots_labels(roots, labels)
    objective = hybrid_objective(roots, labels, circuit.num_vars, lam)
    if not np.isfinite(objective):
        raise NumericFailure(
            f"objective is {objective!r}", _table_diagnostics(circuit, tables)
        )

    d_flat = np.zeros_like(params.flat)
    grad_tables: list = [None] * len(circuit.plan)
    # the root is the one member of the last group
    grad_tables[-1] = _objective_root_gradient(roots, labels, circuit.num_vars, lam)[None]

    for group in reversed(circuit.plan):
        # each table gradient and kernel is read once: free it after
        g, grad_tables[group.index] = grad_tables[group.index], None
        if group.kind == LEAF:
            _leaf_gradients(params, d_flat, group, g, kernels.pop(group.index))
        else:
            d_x, d_logits = sum_block_backward(g, kernels.pop(group.index))
            params.stacked("sum_logits", group, d_flat)[...] = d_logits
            _factor_gradients(grad_tables, tables, group, d_x)
            del d_x

    return ParameterSet(params.layout, d_flat), objective


def sample_input_dropout_mask(num_vars, batch_size, keep_rate, rng) -> np.ndarray:
    """Missing-variable mask: each entry kept with probability ``keep_rate``."""
    check_real("keep rate", keep_rate, 0, 1, "(]")
    shape = (check_int("batch_size", batch_size, 0), check_int("num_vars", num_vars, 1))
    with too_large("dropout mask"):
        return rng.random(shape) >= keep_rate


def sample_sum_dropout_mask(
    circuit: Circuit, keep_rate, batch_size, rng
) -> dict[int, np.ndarray]:
    """Per-region keep masks over product columns, at least one kept per row.

    Returns ``{plan group index: (G, N, K) bool}`` for every sum group that
    reads products; each member's (N, K) mask is shared by all sums of its
    region. Groups are drawn in plan order, each in one draw, and then the
    group's rows that would drop every column are redrawn together until
    none does.
    """
    check_real("keep rate", keep_rate, 0, 1, "(]")
    batch_size = check_int("batch_size", batch_size, 0)
    masks = {}
    for group in circuit.plan:
        if not group.runs:  # a leaf group, or a single-variable root mixing leaves
            continue
        with too_large("dropout mask"):
            keep = rng.random((len(group.regions), batch_size, group.columns)) < keep_rate
            while (dead := ~keep.any(axis=2)).any():
                keep[dead] = rng.random((int(dead.sum()), group.columns)) < keep_rate
        masks[group.index] = keep
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


def _check_finite(layout, flat: np.ndarray, what: str):
    """NumericFailure naming the parameter, plan group and member of the first non-finite entry."""
    finite = np.isfinite(flat)
    if not finite.all():
        first = int(np.argmin(finite))
        tensor = next(t for t in layout if first < t.offset + t.size)
        member = (first - tensor.offset) // (tensor.size // tensor.shape[0])
        raise NumericFailure(
            f"non-finite {what} for parameter {tensor.name} of plan group "
            f"{tensor.group}, member {member}"
        )


def adam_step(params: ParameterSet, grads: ParameterSet, state: AdamState, config):
    """One bias-corrected adaptive-moment update. Returns (params, state).

    Raises NumericFailure if the gradient, its second moment or the updated
    parameters are not all finite: a finite gradient entry above about
    1e154 overflows ``g * g``, and an infinite second moment would freeze
    that parameter for the rest of the run.
    """
    _check_finite(grads.layout, grads.flat, "gradient")
    g = grads.flat
    t = state.step + 1
    m = config.beta1 * state.m + (1.0 - config.beta1) * g
    with np.errstate(over="ignore"):  # an overflowing square fails below
        v = config.beta2 * state.v + (1.0 - config.beta2) * g * g
    _check_finite(params.layout, v, "second moment")
    m_hat = m / (1.0 - config.beta1**t)
    v_hat = v / (1.0 - config.beta2**t)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite result fails below
        flat = params.flat - config.learning_rate * m_hat / (np.sqrt(v_hat) + config.epsilon)
    _check_finite(params.layout, flat, "updated value")
    return ParameterSet(params.layout, flat), AdamState(t, m, v)


def evaluate_metrics(circuit, params, features, labels, lam):
    """Dropout-free objective / CE / nLL / accuracy over a whole dataset."""
    check_real("lambda", lam, 0, 1)
    roots = forward_log(circuit, params, features)
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
    Raises NumericFailure when an epoch's metrics objective is not finite.
    """
    if not isinstance(train_data, Dataset) or not isinstance(valid_data, (Dataset, type(None))):
        raise InvalidInput("train_data must be a Dataset, and valid_data a Dataset or None")
    if not isinstance(config, TrainConfig):
        raise InvalidInput(f"config must be a TrainConfig, got {config!r:.80}")
    rng = np.random.default_rng(config.seed)
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
        if not np.isfinite(row["objective"]):
            raise NumericFailure(f"epoch {epoch}: metrics objective is {row['objective']!r}")
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
