"""Batched log-domain circuit evaluation and probabilistic queries.

Evaluation follows the circuit's compiled layer plan (``Circuit.plan``):
every group of same-shape blocks is one (G, N, width) tensor, computed by
one stacked numpy call per step, so Python dispatch scales with the number
of groups, not of blocks. Tables hold log-values. Sum blocks use the
exp–dot–log form of Einsum Networks (Peharz et al. 2020): with ``m`` a
per-row shift and ``w = softmax(logits)``, a block's outputs are
``log(x · w) - log(1 · w) + m``, one dot per row, where ``x`` holds its
inputs in the linear domain, divided by ``exp(m)``.
Product blocks are folded into the sums that read them (the einsum layer):
a sum group exps each factor table once, shifted by its row max, and its
inputs are the outer products of the factors: the only product table is
the sum group's own linear-domain input ``x``. Marginalization
is a per-sample boolean mask of missing variables, which zeroes the
matching leaf terms; conditioning is a difference of two marginal
evaluations.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import Circuit, GAUSSIAN, LEAF, SUM, Group, ParameterSet
from .errors import InvalidInput
from .leaves import bernoulli_block_log_mass, gaussian_block_log_density, mask_batch

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


# additive shift of a sum input column, indexed by its keep flag
_DROP_SHIFT = np.array([NEG_INF, 0.0])
# a folded sum row whose outputs all lie below this is recomputed (sum_group_kernel)
_FAINT = 2.0**-900
_LOWEST = np.finfo(float).min


class SumKernel(NamedTuple):
    """The exp–dot–log terms of a sum group, shared by forward and backward.

    ``m`` is each row's shift, kept as a trailing axis of length 1 (-inf in
    a dead row, whose kept inputs are all -inf); ``e`` the inputs in the
    linear domain divided by ``exp(m)``, 0 on dropped columns (all 0 in a
    dead row), in C order; ``w`` the softmax weights; ``p`` each row's dot
    with each weight row. The outputs are ``log p - log q + m`` (``sum_block_forward``).
    """

    m: np.ndarray
    e: np.ndarray
    w: np.ndarray
    p: np.ndarray


def _mix(m, e, weights) -> SumKernel:
    """The one mixing core: one BLAS ``ddot`` per (row, weight row).

    So a row's bits depend on no other row, and a ones row of the C-ordered
    ``e`` gives ``p == q`` (``sum_block_forward``) bit for bit, for a BLAS
    whose ``ddot`` order depends on length and strides only, not alignment
    (numpy's bundled OpenBLAS; MKL only in its reproducibility mode). The
    row-stability and all-missing tests check this on the installed BLAS.
    """
    p = np.vecdot(e[..., :, None, :], weights[..., None, :, :])
    return SumKernel(m, e, weights, p)


def _log_inputs(values, keep):
    """(m, e) of log-domain inputs: shift by the largest kept value, exp."""
    masked = values if keep is None else values + _DROP_SHIFT.take(keep)
    m = masked.max(axis=-1, keepdims=True)
    # C order whatever the layout of values: _mix's dots need unit stride
    e = np.subtract(values, np.where(np.isfinite(m), m, 0.0), order="C")
    if keep is not None:
        np.minimum(e, 0.0, out=e)  # a dropped column may exceed the kept max
    np.exp(e, out=e)  # in place: for a group, e is the largest temporary
    if keep is not None:
        e *= keep
    return m, e


def sum_block_kernel(values: np.ndarray, weights: np.ndarray, keep=None) -> SumKernel:
    """The ``SumKernel`` of a sum block, or a group of them, on log-domain inputs.

    ``values`` is a block's (N, K) input table and ``weights`` its (S, K)
    softmax weights, or (G, N, K) and (G, S, K) for a group of G blocks.
    ``keep``, shaped like ``values`` or None, marks the columns sum dropout
    keeps; a dropped column acts as an input of -inf. The shift ``m`` is the
    largest kept input. The -inf never enters ``np.exp``, whose slow path
    for it costs several times the fast one: dropped columns are clamped to
    ``exp(0)`` and then multiplied by 0.
    """
    return _mix(*_log_inputs(values, keep), weights)


def sum_block_forward(kernel: SumKernel) -> np.ndarray:
    """Mixture outputs log sum_k w[s, k] exp(values[n, k]) from a ``SumKernel``.

    ``kernel`` is ``sum_block_kernel(values, w)`` of a block or a group, or
    ``sum_group_kernel`` of a plan group; the outputs are ``log p - log q + m``,
    ``q`` each weight row's sum by the dot that gave ``p`` (see ``_mix``).
    The softmax rows need not sum to exactly 1, but a row whose inputs all
    equal ``v`` has ``e`` all ones, so ``p == q`` and it returns ``v`` exactly:
    a fully marginalized input (all zeros) stays exactly 0. A dead row (all
    inputs -inf, as under sum dropout) has ``p == 0`` and gives -inf, never NaN.
    Precision limit: a live row underflows to -inf only when every term
    ``log w[s, k] + values[n, k] - m`` (logit gap plus input gap) is below
    about -700 nats; the largest input has no input gap, so that takes a
    logit spread of about 700 nats.
    """
    # a real row of ones, not a stride-0 broadcast: it must sum like e's rows
    q = np.vecdot(np.ones(kernel.w.shape[-1]), kernel.w)[..., None, :]
    with np.errstate(divide="ignore"):  # an underflowed p of 0 stands for -inf
        return np.log(kernel.p) - np.log(q) + kernel.m


def sum_block_inputs(tables, group: Group, keep=None):
    """(m, e) of a sum group, its products folded in.

    ``tables`` holds one (G, N, width) log-value tensor per plan group. The
    group takes the rows of its factor tables (``group.reads``), subtracts
    each row's max and exps them in place. A member's input columns for the
    partitions of a run (``group.runs``) are then the outer products
    ``e_l ⊗ e_r`` of its factors, with shift ``m_l + m_r``; a sum over
    several partitions shifts each row by the largest of these, ``m``, and
    scales partition j by ``exp(m_j - m)``, its log added to the left factor
    before the exp. The (G, N, K) keep-mask ``keep``, None without sum
    dropout, multiplies the columns. A group with no runs mixes a leaf
    table directly, as ``sum_block_kernel`` does.
    """
    if not group.runs:
        (src, at, _), = group.reads
        return _log_inputs(tables[src].take(at[:, 0], axis=0), keep)
    factors = []
    for src, at, _ in group.reads:
        f = tables[src].take(at, axis=0)  # (G, k, N, width)
        # the row max of a (width, rows) copy runs along the rows, where a
        # reduction over the short last axis pays per row
        cols = np.ascontiguousarray(f.reshape(-1, f.shape[-1]).T)
        fm = cols.max(axis=0).reshape(f.shape[:-1])
        f -= np.maximum(fm, _LOWEST)[..., None]  # a dead row (max -inf) stays -inf
        factors.append((f, fm.swapaxes(1, 2)))
    shifts = []
    for run in group.runs:
        (left, left_slots), (right, right_slots) = run.left, run.right
        shifts.append(factors[left][1][..., left_slots] + factors[right][1][..., right_slots])
    shifts = shifts[0] if len(shifts) == 1 else np.concatenate(shifts, axis=-1)  # (G, N, J)
    m = shifts
    if shifts.shape[-1] > 1:
        m = shifts.max(axis=-1, keepdims=True)
        gaps = (shifts - np.maximum(m, _LOWEST)).swapaxes(1, 2)[..., None]  # (G, J, N, 1)
        for run in group.runs:
            left, left_slots = run.left
            factors[left][0][:, left_slots] += gaps[:, run.parts]
    for f, _ in factors:
        np.exp(f, out=f)
    size, n, _ = m.shape
    x = np.empty((size, n, group.columns))
    for run in group.runs:
        (left, left_slots), (right, right_slots) = run.left, run.right
        np.multiply(
            factors[left][0][:, left_slots].transpose(0, 2, 1, 3)[..., :, None],
            factors[right][0][:, right_slots].transpose(0, 2, 1, 3)[..., None, :],
            out=x[..., run.columns].reshape((size, n) + run.shape, copy=False),
        )
    if keep is not None:
        x *= keep
    return m, x


def sum_group_kernel(tables, group: Group, weights, keep=None) -> SumKernel:
    """The ``SumKernel`` of a plan sum group, from its inputs' tables.

    ``keep`` is the group's (G, N, K) sum-dropout keep-mask, or None.

    Under sum dropout the shift ``m_l + m_r`` may belong to a dropped
    column, and every kept column may then lie so far below it that all
    of a row's outputs underflow to 0, or to subnormals that keep only a
    few bits, while ``m`` is finite. Such a row, one whose outputs ``p``
    are all below ``2**-900`` (about 624 nats below the shift), is
    recomputed from its log-domain product values with its largest kept
    value as the shift, as ``sum_block_kernel`` would.
    """
    kernel = _mix(*sum_block_inputs(tables, group, keep), weights)
    if keep is not None and group.runs:
        lost = (kernel.p.max(axis=-1) < _FAINT) & (kernel.m[..., 0] > NEG_INF)
        if lost.any():
            _rescue(tables, group, kernel, keep, np.nonzero(lost))
    return kernel


def _rescue(tables, group, kernel, keep, rows):
    """Recompute the kernel terms of the (member, sample) ``rows`` in the log domain."""
    members, samples = rows
    values = []
    for run in group.runs:
        factors = []
        for read, slots in (run.left, run.right):
            src, at, _ = group.reads[read]
            factors.append(tables[src][at[members][:, slots], samples[:, None]])
        left, right = factors  # (R, partitions, width)
        values.append((left[..., :, None] + right[..., None, :]).reshape(len(members), -1))
    again = sum_block_kernel(
        np.concatenate(values, axis=-1)[:, None, :],
        kernel.w[members],
        keep[members, samples][:, None, :],
    )
    for name in ("m", "e", "p"):
        getattr(kernel, name)[members, samples] = getattr(again, name)[:, 0]


def _leaf_group(circuit, params, group, x, observed):
    """(G, N, I) log-densities of a leaf group, from a ``leaf_input``."""
    x = np.take(x, group.scope, axis=1)  # (N, G, d), contiguous along d
    observed = None if observed is None else np.take(observed, group.scope, axis=1)
    if circuit.leaf_family == GAUSSIAN:
        out = gaussian_block_log_density(x, params.terms(group), observed)
    else:
        out = bernoulli_block_log_mass(x, params.terms(group), observed)
    return out.transpose(1, 0, 2)


def _check_batch(circuit, batch):
    batch = np.asarray(batch, dtype=float)
    if batch.ndim != 2 or batch.shape[1] != circuit.num_vars:
        raise InvalidInput(
            f"batch of shape {batch.shape} does not match {circuit.num_vars} variables"
        )
    return batch


def leaf_input(circuit, batch, missing=None):
    """The batch, checked and masked once: the ``(x, observed)`` leaves read."""
    return mask_batch(_check_batch(circuit, batch), missing)


def _check_dropout(circuit, sum_dropout, rows):
    """InvalidInput unless every mask is a (G, N, K) bool array keyed by a sum group."""
    sums = {group.index: group for group in circuit.plan if group.kind == SUM}
    for key, keep in sum_dropout.items():
        group = sums.get(key)
        if group is None:
            raise InvalidInput(f"sum_dropout key {key!r} is not a sum group of the plan")
        shape = (len(group.blocks), rows, group.columns)
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool and keep.shape == shape):
            raise InvalidInput(f"sum_dropout[{key}] must be a bool array of shape {shape}")


# rows per pass of a forward_log call that returns no tables: a pass's
# temporaries grow with its rows, so this bounds them on a large dataset
_FORWARD_BATCH = 1024


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
    maps a sum group's plan index to its (G, N, K) bool keep-mask over
    (member, sample, input column), as ``sample_sum_dropout_mask`` draws
    it; dropped columns enter the mixtures as -inf. The circuit's plan
    runs one group at a time, and a group's tensor is dropped after its last
    reader, in passes over at most 1,024 rows, unless ``return_tables`` is
    set; then one pass over all rows gives ``(roots, tables, kernels)``:
    ``tables[g]`` is the (G, N, width) log-value tensor of plan group ``g``
    and ``kernels`` maps each sum group's index to its ``SumKernel``, which
    the backward pass reuses.
    """
    x, observed = leaf_input(circuit, batch, missing)
    sum_dropout = sum_dropout or {}
    _check_dropout(circuit, sum_dropout, len(x))
    if return_tables or len(x) <= _FORWARD_BATCH:
        return _forward_pass(circuit, params, x, observed, sum_dropout, return_tables)
    starts = range(0, len(x), _FORWARD_BATCH)
    return np.concatenate([
        _forward_pass(
            circuit, params, x[rows], None if observed is None else observed[rows],
            {key: keep[:, rows] for key, keep in sum_dropout.items()}, False,
        )
        for rows in (slice(start, start + _FORWARD_BATCH) for start in starts)
    ])


def _forward_pass(circuit, params, x, observed, sum_dropout, return_tables):
    """``forward_log`` of a ``leaf_input`` in one pass over all its rows."""
    tables: list = []
    kernels = {}
    for group in circuit.plan:
        if group.kind == LEAF:
            out = _leaf_group(circuit, params, group, x, observed)
        else:
            keep = sum_dropout.get(group.index)
            kernel = sum_group_kernel(tables, group, params.terms(group), keep)
            out = sum_block_forward(kernel)
            if return_tables:
                kernels[group.index] = kernel
            del kernel  # the largest temporary: free it before the next group
        tables.append(out)
        if not return_tables:
            for src in group.release:
                tables[src] = None

    root = circuit.root_block
    roots = tables[root.group][root.position]
    if return_tables:
        return roots, tables, kernels
    return roots


def uniform_log_prior(num_classes: int) -> np.ndarray:
    return np.full(num_classes, -np.log(num_classes))


def empirical_log_prior(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels)
    if np.any(labels < 1) or np.any(labels > num_classes):
        raise InvalidInput(f"labels must lie in 1..{num_classes}")
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
    batch = _check_batch(circuit, batch)
    both = log_marginal_input(
        circuit, params, np.concatenate([batch, batch]), log_prior,
        missing=np.concatenate([~(query_mask | evidence_mask), ~evidence_mask]),
    )
    return both[: len(batch)] - both[len(batch) :]
