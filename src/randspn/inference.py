"""Batched log-domain circuit evaluation and probabilistic queries.

Everything runs in the log domain: product blocks add the log-tables of
their two child blocks (an outer sum realized by broadcasting). Sum blocks
use the exp–matmul–log form of Einsum Networks (Peharz et al. 2020): with
``m`` each row's largest input, a block's outputs are
``log(exp(x - m) @ softmax(logits).T) + m``, so no (samples, sums, inputs)
table is ever built. Marginalization is a per-sample boolean mask of
missing variables, which zeroes the matching leaf terms; conditioning is a
difference of two marginal evaluations.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, LEAF, PRODUCT, GAUSSIAN, ParameterSet
from .errors import InvalidInput
from .leaves import (
    bernoulli_block_log_mass,
    clamped_variances,
    gaussian_block_log_density,
)

NEG_INF = -np.inf


def logsumexp(z: np.ndarray) -> np.ndarray:
    """Max-shifted log-sum-exp over the last axis: the one LSE kernel.

    A row with no finite maximum (all -inf) is dead: its result is -inf,
    never NaN.
    """
    m = z.max(axis=-1)
    alive = np.isfinite(m)
    safe_m = np.where(alive, m, 0.0)
    total = np.where(alive, np.exp(z - safe_m[..., None]).sum(axis=-1), 1.0)
    return np.where(alive, safe_m + np.log(total), NEG_INF)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise normalized log-weights of a logit matrix."""
    return logits - logsumexp(logits)[..., None]


def sum_block_kernel(values: np.ndarray, logits: np.ndarray):
    """The exp–matmul–log terms of a sum block, shared by forward and backward.

    Returns ``(m, e, w, p)``: ``m`` is each row's largest input as an (N, 1)
    column (-inf in a dead row, whose inputs are all -inf),
    ``e = exp(values - m)`` (all 0 in a dead row), ``w = softmax(logits)``
    and ``p = e @ w.T``, so the block's outputs are ``log p + m``.
    """
    m = values.max(axis=1, keepdims=True)
    e = np.exp(values - np.where(np.isfinite(m), m, 0.0))
    # softmax inline: through log_softmax a one-sample call costs a third more
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    return m, e, w, e @ w.T


def sum_block_forward(values: np.ndarray, logits: np.ndarray) -> np.ndarray:
    """Mixture outputs log sum_k softmax(logits)[s, k] exp(values[n, k]).

    Evaluated as ``log(exp(values - m) @ softmax(logits).T) + m`` with ``m``
    the row max. A row whose inputs are all equal returns that value
    exactly, since a mixture of equal components is that component: the
    softmax rows need not sum to exactly 1, and this rule keeps a fully
    marginalized input (all zeros) at exactly 0. A dead row (all inputs
    -inf, as under sum dropout) is such a row, so it gives -inf, never NaN.
    Precision limit: a live row underflows to -inf only when every term
    ``log w[s, k] + values[n, k] - m`` (logit gap plus input gap) is below
    about -700 nats; the largest input has no input gap, so that takes a
    logit spread of about 700 nats.
    """
    m, _, _, p = sum_block_kernel(values, logits)
    equal = values.min(axis=1, keepdims=True) == m
    with np.errstate(divide="ignore"):  # an underflowed p of 0 stands for -inf
        return np.log(np.where(equal, 1.0, p)) + m


def _leaf_table(circuit, params, block, batch, missing):
    scope = list(block.scope)
    x = batch[:, scope]
    mask = None if missing is None else missing[:, scope]
    if circuit.leaf_family == GAUSSIAN:
        means = params.leaf_means[block.index]
        variances = (
            None
            if params.leaf_log_vars is None
            else clamped_variances(params.leaf_log_vars[block.index])
        )
        return gaussian_block_log_density(x, means, variances, mask)
    return bernoulli_block_log_mass(x, params.leaf_logits[block.index], mask)


def sum_block_inputs(tables, block, sum_dropout=None):
    """Concatenated input table of a sum block, with dropout applied as -inf."""
    x = np.concatenate([tables[b.index] for b in block.inputs], axis=1)
    if sum_dropout is not None:
        keep = sum_dropout.get(block.index)
        if keep is not None:
            x = np.where(keep, x, NEG_INF)
    return x


def _check_batch(circuit, batch, missing):
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != circuit.num_vars:
        raise InvalidInput(
            f"batch of shape {batch.shape} does not match {circuit.num_vars} variables"
        )
    if missing is not None:
        missing = np.asarray(missing, dtype=bool)
        if missing.shape != batch.shape:
            raise InvalidInput(
                f"missing mask shape {missing.shape} != batch shape {batch.shape}"
            )
    return batch, missing


def forward_log(
    circuit: Circuit,
    params: ParameterSet,
    batch,
    missing=None,
    sum_dropout: dict[int, np.ndarray] | None = None,
    return_tables: bool = False,
):
    """Evaluate all class roots on a batch. Returns (N, C), or with tables.

    ``missing`` marks variables to marginalize per sample. ``sum_dropout``
    maps a sum block index to a boolean keep-mask over (sample, input
    column); dropped columns enter the mixtures as -inf. Intermediate block
    tables are discarded as soon as their consumers are done unless
    ``return_tables`` is set.
    """
    batch, missing = _check_batch(circuit, batch, missing)
    tables: dict[int, np.ndarray] = {}
    pending = {b.index: 0 for b in circuit.blocks}
    for block in circuit.blocks:
        for src in block.inputs:
            pending[src.index] += 1

    for layer in circuit.layer_order:
        for block in layer:
            if block.kind == LEAF:
                tables[block.index] = _leaf_table(circuit, params, block, batch, missing)
            elif block.kind == PRODUCT:
                left, right = block.inputs
                t = tables[left.index][:, :, None] + tables[right.index][:, None, :]
                tables[block.index] = t.reshape(batch.shape[0], block.width)
            else:
                x = sum_block_inputs(tables, block, sum_dropout)
                tables[block.index] = sum_block_forward(x, params.sum_logits[block.index])
            if not return_tables:
                for src in block.inputs:
                    pending[src.index] -= 1
                    if pending[src.index] == 0:
                        del tables[src.index]

    roots = tables[circuit.root_block.index]
    if return_tables:
        return roots, tables
    return roots


def uniform_log_prior(num_classes: int) -> np.ndarray:
    return np.full(num_classes, -np.log(num_classes))


def empirical_log_prior(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    counts = np.bincount(labels - 1, minlength=num_classes).astype(float)
    if counts.sum() == 0:
        raise InvalidInput("cannot build an empirical prior from zero labels")
    with np.errstate(divide="ignore"):
        return np.log(counts / counts.sum())


def _check_prior(log_prior, num_classes):
    log_prior = np.asarray(log_prior, dtype=float)
    if log_prior.shape != (num_classes,):
        raise InvalidInput(f"prior must have shape ({num_classes},)")
    mass = np.exp(log_prior[np.isfinite(log_prior)]).sum()
    if abs(mass - 1.0) > 1e-9:
        raise InvalidInput(f"prior is not normalized: total mass {mass!r}")
    return log_prior


def log_joint(circuit, params, batch, log_prior, missing=None) -> np.ndarray:
    """Per-sample, per-class log p(x, c) = root_c(x) + log prior_c."""
    log_prior = _check_prior(log_prior, circuit.classes_C)
    roots = forward_log(circuit, params, batch, missing)
    return roots + log_prior[None, :]


def classify(circuit, params, batch, log_prior=None, missing=None) -> np.ndarray:
    """Predicted class labels in 1..C; ties resolve to the lowest class."""
    if log_prior is None:
        log_prior = uniform_log_prior(circuit.classes_C)
    joint = log_joint(circuit, params, batch, log_prior, missing)
    return np.argmax(joint, axis=1) + 1


def log_marginal_input(circuit, params, batch, log_prior=None, missing=None) -> np.ndarray:
    """Per-sample log p(x) = logsumexp_c (root_c + log prior_c)."""
    if log_prior is None:
        log_prior = uniform_log_prior(circuit.classes_C)
    log_prior = _check_prior(log_prior, circuit.classes_C)
    roots = forward_log(circuit, params, batch, missing)
    return logsumexp(roots + log_prior[None, :])


def conditional_log(
    circuit, params, batch, query_mask, evidence_mask, log_prior=None
) -> np.ndarray:
    """log p(x_query | x_evidence), marginalizing everything else.

    ``query_mask`` and ``evidence_mask`` are per-sample boolean selections of
    disjoint variable sets; values outside both sets are ignored.
    """
    query_mask = np.asarray(query_mask, bool)
    evidence_mask = np.asarray(evidence_mask, bool)
    if query_mask.shape != evidence_mask.shape:
        raise InvalidInput("query and evidence masks must have the same shape")
    if np.any(query_mask & evidence_mask):
        raise InvalidInput("query and evidence masks overlap")
    joint = log_marginal_input(
        circuit, params, batch, log_prior, missing=~(query_mask | evidence_mask)
    )
    evidence = log_marginal_input(
        circuit, params, batch, log_prior, missing=~evidence_mask
    )
    return joint - evidence
