"""Batched log-domain circuit evaluation and probabilistic queries.

Evaluation follows the circuit's compiled layer plan (``Circuit.plan``):
every group of same-shape blocks is one (G, N, width) tensor, computed by
one stacked numpy call per step, so Python dispatch scales with the number
of groups, not of blocks. Everything runs in the log domain: product
blocks add the log-tables of their two child blocks (an outer sum realized
by broadcasting). Sum blocks use the exp–matmul–log form of Einsum Networks
(Peharz et al. 2020): with ``m`` each row's largest input, a block's outputs
are ``log(exp(x - m) @ softmax(logits).T) + m``, so no (samples, sums,
inputs) table is ever built. Marginalization is a per-sample boolean mask
of missing variables, which zeroes the matching leaf terms; conditioning is
a difference of two marginal evaluations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GAUSSIAN, LEAF, PRODUCT, Group, ParameterSet, softmax
from .errors import InvalidInput
from .leaves import bernoulli_block_log_mass, gaussian_block_log_density

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


# additive shift of a sum input column, indexed by its keep flag
_DROP_SHIFT = np.array([NEG_INF, 0.0])


class SumKernel(NamedTuple):
    """The exp–matmul–log terms of a sum block, shared by forward and backward.

    ``m`` is each row's largest kept input, kept as a trailing axis of
    length 1 (-inf in a dead row, whose kept inputs are all -inf);
    ``e = exp(values - m)`` on kept columns and 0 on dropped ones (all 0 in
    a dead row); ``w`` the softmax weights; ``p = e @ w.T``, so the block's
    outputs are ``log p + m``; ``equal`` marks rows whose inputs, a dropped
    column counted as -inf, are all equal (dead rows included).
    """

    m: np.ndarray
    e: np.ndarray
    w: np.ndarray
    p: np.ndarray
    equal: np.ndarray


def sum_block_kernel(values: np.ndarray, weights: np.ndarray, keep=None) -> SumKernel:
    """The ``SumKernel`` of a sum block, or of a group of sum blocks.

    ``values`` is a block's (N, K) input table and ``weights`` its (S, K)
    softmax weights, or (G, N, K) and (G, S, K) for a group of G blocks.
    ``keep``, shaped like ``values`` or None, marks the columns sum dropout
    keeps; a dropped column acts as an input of -inf. The -inf never enters
    ``np.exp``, whose slow path for it costs several times the fast one:
    dropped columns are clamped to ``exp(0)`` and then multiplied by 0.
    """
    masked = values if keep is None else values + _DROP_SHIFT.take(keep)
    m = masked.max(axis=-1, keepdims=True)
    equal = masked.min(axis=-1, keepdims=True) == m
    e = values - np.where(np.isfinite(m), m, 0.0)
    if keep is not None:
        np.minimum(e, 0.0, out=e)  # a dropped column may exceed the kept max
    np.exp(e, out=e)  # in place: for a group, e is the largest temporary
    if keep is not None:
        e *= keep
    return SumKernel(m, e, weights, e @ weights.swapaxes(-1, -2), equal)


def sum_block_forward(values: np.ndarray, logits: np.ndarray, kernel=None) -> np.ndarray:
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

    Shapes as in ``sum_block_kernel``; ``kernel`` takes that function's
    result when the caller already has it (then values and logits are not
    read).
    """
    if kernel is None:
        kernel = sum_block_kernel(values, softmax(logits))
    with np.errstate(divide="ignore"):  # an underflowed p of 0 stands for -inf
        return np.log(np.where(kernel.equal, 1.0, kernel.p)) + kernel.m


def sum_block_inputs(tables, group: Group, sum_dropout=None):
    """The (G, N, K) input tensor of a sum group and its keep-mask.

    ``tables`` holds one (G, N, width) tensor per plan group; each member's
    input columns are its source tables side by side. The keep-mask is None
    without sum dropout; otherwise a (G, N, K) boolean tensor, True for a
    member without a mask in ``sum_dropout`` (keyed by block index).
    """
    parts = [tables[src][positions] for src, positions, _ in group.sources]
    x = parts[0] if len(parts) == 1 else np.concatenate(parts, axis=-1)
    keep = None
    if sum_dropout and any(block.index in sum_dropout for block in group.blocks):
        keep = np.stack([
            np.broadcast_to(sum_dropout.get(block.index, True), x.shape[1:])
            for block in group.blocks
        ])
    return x, keep


def _leaf_group(circuit, params, group, batch, missing):
    """(G, N, I) log-densities of a leaf group."""
    x = np.take(batch, group.scope, axis=1)  # (N, G, d), contiguous along d
    mask = None if missing is None else np.take(missing, group.scope, axis=1)
    if circuit.leaf_family == GAUSSIAN:
        out = gaussian_block_log_density(x, None, None, mask, params.terms(group))
    else:
        out = bernoulli_block_log_mass(x, None, mask, params.terms(group))
    return out.transpose(1, 0, 2)


class Tables(dict):
    """Every block's (N, width) table from one forward pass, by block index.

    Each table is a view into ``groups[g]``, the (G, N, width) tensor of plan
    group ``g``; ``kernels`` maps each sum group's index to its
    ``sum_block_kernel`` terms, which the backward pass reuses.
    """

    def __init__(self, circuit: Circuit, groups: list, kernels: dict):
        super().__init__((b.index, groups[b.group][b.position]) for b in circuit.blocks)
        self.groups = groups
        self.kernels = kernels


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
    column); dropped columns enter the mixtures as -inf. The circuit's plan
    runs one group at a time, and a group's tensor is dropped after its last
    reader unless ``return_tables`` is set; then the result is
    ``(roots, tables)`` with ``tables`` a ``Tables``.
    """
    batch, missing = _check_batch(circuit, batch, missing)
    n = batch.shape[0]
    tables: list = []
    kernels = {}
    for group in circuit.plan:
        if group.kind == LEAF:
            out = _leaf_group(circuit, params, group, batch, missing)
        elif group.kind == PRODUCT:
            (left, left_at, _), (right, right_at, _) = group.sources
            t = tables[left][left_at][..., :, None] + tables[right][right_at][..., None, :]
            out = t.reshape(len(group.blocks), n, group.width)
        else:
            x, keep = sum_block_inputs(tables, group, sum_dropout)
            kernel = sum_block_kernel(x, params.terms(group), keep)
            out = sum_block_forward(None, None, kernel)
            if return_tables:
                kernels[group.index] = kernel
            del x, keep, kernel  # the largest temporaries: free them before the next group
        tables.append(out)
        if not return_tables:
            for src in group.release:
                tables[src] = None

    root = circuit.root_block
    roots = tables[root.group][root.position]
    if return_tables:
        return roots, Tables(circuit, tables, kernels)
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


def check_log_prior(log_prior, num_classes: int) -> np.ndarray:
    """The prior as a float array; InvalidInput unless it is a normalized (C,) vector."""
    log_prior = np.asarray(log_prior, dtype=float)
    if log_prior.shape != (num_classes,):
        raise InvalidInput(f"prior must have shape ({num_classes},)")
    mass = np.exp(log_prior[np.isfinite(log_prior)]).sum()
    if abs(mass - 1.0) > 1e-9:
        raise InvalidInput(f"prior is not normalized: total mass {mass!r}")
    return log_prior


def log_joint(circuit, params, batch, log_prior, missing=None) -> np.ndarray:
    """Per-sample, per-class log p(x, c) = root_c(x) + log prior_c."""
    log_prior = check_log_prior(log_prior, circuit.classes_C)
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
    log_prior = check_log_prior(log_prior, circuit.classes_C)
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
    # joint and evidence marginals in one pass over the rows stacked twice
    batch, _ = _check_batch(circuit, batch, None)
    both = log_marginal_input(
        circuit, params, np.concatenate([batch, batch]), log_prior,
        missing=np.concatenate([~(query_mask | evidence_mask), ~evidence_mask]),
    )
    return both[: len(batch)] - both[len(batch) :]
