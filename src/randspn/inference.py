"""Batched log-domain circuit evaluation and probabilistic queries.

Evaluation follows the circuit's compiled layer plan (``Circuit.plan``):
every group of same-shape blocks is one (G, N, width) log-value tensor,
computed by one stacked numpy call per step, so Python dispatch scales with
the number of groups, not of blocks. Both contractions of a pass are one
row-stable GEMM over tiles (``tiles.tile_matmul``), on exactly the pass's
rows. A leaf group of either family contracts the statistics (x², x,
observed) of its scope with its leaves' natural coefficients
(``leaves.gaussian_block_log_density``). Sum blocks use the exp–dot–log form
of Einsum Networks (Peharz et al. 2020): with ``m`` a per-row shift and
``w = softmax(logits)``, a block's outputs are ``log(x · w) - log(1 · w) +
m``, where ``x`` holds its inputs in the linear domain, divided by
``exp(m)``. Products are folded into the sums that read them (the einsum
layer): a sum group's input ``x`` is the outer products of its factor
tables, so no product table is built. Marginalization is a per-sample mask
of missing variables, applied once per pass by ``leaves.leaf_statistics``;
conditioning is a difference of two marginals. Every public query checks its
inputs once and hands them to one pass runner (``_run_passes``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import Circuit, LEAF, SUM, Group, ParameterSet, SumTerms
from .data import check_labels
from .errors import InvalidInput, check_floats, check_int, too_large
from .leaves import check_support, gaussian_block_log_density, leaf_statistics
from .tiles import TILE, tile_matmul

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

    ``m`` is each row's shift, a trailing axis of length 1 (-inf in a dead
    row, whose kept inputs are all -inf); ``e`` the row-major (G, N, K)
    inputs in the linear domain divided by ``exp(m)``, 0 on dropped columns
    (all 0 in a dead row); ``w`` the softmax weights; ``p`` each row's
    products with the weight rows and ``log_q`` the log of the weight rows'
    sums (``SumTerms``). The outputs are ``log p - log q + m``.
    """

    m: np.ndarray
    e: np.ndarray
    w: np.ndarray
    p: np.ndarray
    log_q: np.ndarray


def _mix(m, e, terms: SumTerms) -> SumKernel:
    """The one mixing core: the row-major ``e`` times the weights, by ``tile_matmul``.

    A ones row of ``e`` gives ``p == q`` bit for bit: ``q`` is the same GEMM
    on a row-major row of ones.
    """
    return SumKernel(m, e, terms.w, tile_matmul(e, terms.w.swapaxes(-1, -2)), terms.log_q)


def _log_inputs(values, keep):
    """(m, e) of log-domain inputs: shift by the largest kept value, exp.

    ``keep``, shaped like ``values`` or None, marks the columns sum dropout
    keeps. A dropped column acts as -inf, but never enters ``np.exp`` as
    one, whose slow path costs several times the fast one: it is clamped
    to ``exp(0)`` and then multiplied by 0.
    """
    masked = values if keep is None else values + _DROP_SHIFT.take(keep)
    m = masked.max(axis=-1, keepdims=True)
    # row-major whatever the layout of ``values``: the layout picks the GEMM
    e = np.empty(values.shape)
    np.subtract(values, np.where(np.isfinite(m), m, 0.0), out=e)
    if keep is not None:
        np.minimum(e, 0.0, out=e)  # a dropped column may exceed the kept max
    np.exp(e, out=e)  # in place: for a group, e is the largest temporary
    if keep is not None:
        e *= keep
    return m, e


def sum_block_forward(kernel: SumKernel) -> np.ndarray:
    """Mixture outputs log sum_k w[s, k] exp(values[n, k]) from a ``SumKernel``.

    The outputs are ``log p - log q + m`` (see ``SumKernel``). The softmax
    rows need not sum to exactly 1, but a row whose inputs all equal ``v``
    has ``e`` all ones, so ``p == q`` and it returns ``v`` exactly: a fully
    marginalized input (all zeros) stays exactly 0. A dead row (all inputs -inf, as under sum dropout) has
    ``p == 0`` and gives -inf, never NaN.
    Precision limit: a live row underflows to -inf only when every term
    ``log w[s, k] + values[n, k] - m`` (logit gap plus input gap) is below
    about -700 nats; the largest input has no input gap, so that takes a
    logit spread of about 700 nats.
    """
    with np.errstate(divide="ignore"):  # an underflowed p of 0 stands for -inf
        out = np.log(kernel.p)
    out -= kernel.log_q
    out += kernel.m
    return out


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
    dropout, multiplies the columns. ``e`` is a row-major (G, N, K), as
    ``_mix`` needs. A group with no runs mixes a leaf table directly,
    through ``_log_inputs``.
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


def sum_group_kernel(tables, group: Group, terms: SumTerms, keep=None) -> SumKernel:
    """The ``SumKernel`` of a plan sum group, from its inputs' tables.

    ``keep`` is the group's (G, N, K) sum-dropout keep-mask, or None.

    Under sum dropout the shift ``m_l + m_r`` may belong to a dropped
    column, and every kept column may then lie so far below it that all
    of a row's outputs underflow to 0, or to subnormals that keep only a
    few bits, while ``m`` is finite. Such a row, one whose outputs ``p``
    are all below ``2**-900`` (about 624 nats below the shift), is
    recomputed from its log-domain product values with its largest kept
    value as the shift (``_log_inputs``).
    """
    kernel = _mix(*sum_block_inputs(tables, group, keep), terms)
    # a lost row has every p below _FAINT, so one test over all of p comes first
    if keep is not None and group.runs and (kernel.p < _FAINT).any():
        lost = (kernel.p.max(axis=-1) < _FAINT) & (kernel.m[..., 0] > NEG_INF)
        if lost.any():
            _rescue(tables, group, kernel, terms, keep, np.nonzero(lost))
    return kernel


def _rescue(tables, group, kernel, terms, keep, rows):
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
    m, e = _log_inputs(
        np.concatenate(values, axis=-1)[:, None, :], keep[members, samples][:, None, :]
    )
    again = _mix(m, e, SumTerms(*(array[members] for array in terms)))
    for name in ("m", "e", "p"):
        getattr(kernel, name)[members, samples] = getattr(again, name)[:, 0]


def _check_batch(circuit, batch, missing=None):
    """The batch as floats and ``missing`` as bools; InvalidInput unless both fit the circuit."""
    batch = check_floats("batch", batch)
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
    check_support(circuit.leaf_family, batch, missing)
    return batch, missing


def _check_dropout(circuit, sum_dropout, rows):
    """InvalidInput unless every mask is a (G, N, K) bool array keyed by a sum group."""
    if not isinstance(sum_dropout, dict):
        raise InvalidInput(f"sum_dropout must be a dict, got {type(sum_dropout).__name__}")
    sums = {group.index: group for group in circuit.plan if group.kind == SUM}
    for key, keep in sum_dropout.items():
        group = sums.get(key)
        if group is None:
            raise InvalidInput(f"sum_dropout key {key!r} is not a sum group of the plan")
        shape = (len(group.regions), rows, group.columns)
        if not (isinstance(keep, np.ndarray) and keep.dtype == bool and keep.shape == shape):
            raise InvalidInput(f"sum_dropout[{key}] must be a bool array of shape {shape}")


# bytes of a pass's largest temporary: half a 2 MiB L2 cache. Budgets of
# 1 to 16 MiB time within noise of each other on the desk metrics pass and
# the 784-variable forward pass (BENCH_tiled_contractions.json); this one
# keeps a pass's transients below those of a desk training step.
_PASS_BYTES = 2**20


def rows_per_pass(circuit: Circuit) -> int:
    """Rows per pass of a ``forward_log`` call that returns no tables.

    A pass's largest per-row temporary is a leaf group's statistics (three
    floats per member and scope variable) or a sum group's input ``x``
    (one float per member and input column). A pass holds as many whole
    tiles of rows as keep it within ``_PASS_BYTES``, at least one tile, so
    a pass's memory does not grow with the dataset.
    """
    widest = max(
        8 * len(group.regions) * group.columns * (3 if group.kind == LEAF else 1)
        for group in circuit.plan
    )
    return TILE * max(1, _PASS_BYTES // (TILE * widest))


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
    runs one group at a time, in passes of ``rows_per_pass(circuit)``
    rows, unless ``return_tables`` is set; then one pass over all rows gives
    ``(roots, tables, kernels)``: ``tables[g]`` is the (G, N, width)
    log-value tensor of plan group ``g``, and ``kernels`` maps each sum
    group's index to its ``SumKernel`` and each leaf group's index to the
    pass's (V, 3, N) ``leaf_statistics``, which the backward pass reuses.
    """
    x, missing = _check_batch(circuit, batch, missing)
    if sum_dropout:
        _check_dropout(circuit, sum_dropout, len(x))
    else:
        sum_dropout = {}
    if return_tables:
        return _forward_pass(circuit, params, x, missing, sum_dropout, True)
    return _run_passes(circuit, params, x, missing, sum_dropout)


def _run_passes(circuit, params, x, missing, sum_dropout):
    """The roots of a checked batch, mask and dropout, in passes of ``rows_per_pass``."""
    rows = rows_per_pass(circuit)
    if len(x) <= rows:
        return _forward_pass(circuit, params, x, missing, sum_dropout, False)
    return np.concatenate([
        _forward_pass(
            circuit, params, x[part], None if missing is None else missing[part],
            {key: keep[:, part] for key, keep in sum_dropout.items()}, False,
        )
        for part in (slice(start, start + rows) for start in range(0, len(x), rows))
    ])


def _forward_pass(circuit, params, x, missing, sum_dropout, return_tables):
    """``forward_log`` of a checked batch and mask in one pass over all its rows."""
    stats = leaf_statistics(x, missing, params.centre)
    tables: list = []
    kernels = {}
    for group in circuit.plan:
        if group.kind == LEAF:  # one take of whole rows: the group's (G, d, 3, N) statistics
            kernel = np.take(stats, group.scope, axis=0)
            out, kernel = gaussian_block_log_density(kernel, params.terms(group)), stats
        else:
            keep = sum_dropout.get(group.index)
            kernel = sum_group_kernel(tables, group, params.terms(group), keep)
            out = sum_block_forward(kernel)
        if return_tables:
            kernels[group.index] = kernel
        del kernel  # the largest temporary: free it before the next group
        tables.append(out)

    roots = tables[-1][0]  # the root: the one member of the last group
    if return_tables:
        return roots, tables, kernels
    return roots


def uniform_log_prior(num_classes: int) -> np.ndarray:
    num_classes = check_int("num_classes", num_classes, 1)
    with too_large("prior"):
        return np.full(num_classes, -np.log(num_classes))


def empirical_log_prior(labels, num_classes: int) -> np.ndarray:
    num_classes = check_int("num_classes", num_classes, 1)
    labels = check_labels(labels, num_classes)
    with too_large("prior"):
        counts = np.bincount(labels - 1, minlength=num_classes).astype(float)
    if counts.sum() == 0:
        raise InvalidInput("cannot build an empirical prior from zero labels")
    with np.errstate(divide="ignore"):
        return np.log(counts / counts.sum())


def check_log_prior(log_prior, num_classes: int) -> np.ndarray:
    """The prior as a float array; InvalidInput unless it is a normalized (C,) vector.

    Entries are log-probabilities: -inf for a class of prior 0, never NaN or +inf.
    """
    log_prior = check_floats("prior", log_prior)
    if log_prior.shape != (num_classes,):
        raise InvalidInput(f"prior must have shape ({num_classes},)")
    if not (log_prior < np.inf).all():  # NaN compares False too
        raise InvalidInput(f"prior holds NaN or +inf: {log_prior.tolist()}")
    mass = np.exp(log_prior[np.isfinite(log_prior)]).sum()
    if abs(mass - 1.0) > 1e-9:
        raise InvalidInput(f"prior is not normalized: total mass {mass!r}")
    return log_prior


def _log_joint(circuit, params, x, missing, log_prior) -> np.ndarray:
    """``log_joint`` of a checked batch and mask under a checked prior.

    A ``log_prior`` of None is the uniform prior, added as the scalar
    ``-log C``: the same bits as adding ``uniform_log_prior(C)``.
    """
    roots = _run_passes(circuit, params, x, missing, {})
    if log_prior is None:
        return roots - np.log(circuit.classes_C)
    return roots + log_prior[None, :]


def log_joint(circuit, params, batch, log_prior=None, missing=None) -> np.ndarray:
    """Per-sample, per-class log p(x, c) = root_c(x) + log prior_c; uniform prior by default."""
    if log_prior is not None:
        log_prior = check_log_prior(log_prior, circuit.classes_C)
    x, missing = _check_batch(circuit, batch, missing)
    return _log_joint(circuit, params, x, missing, log_prior)


def classify(circuit, params, batch, log_prior=None, missing=None) -> np.ndarray:
    """Predicted class labels in 1..C; ties resolve to the lowest class."""
    return np.argmax(log_joint(circuit, params, batch, log_prior, missing), axis=1) + 1


def log_marginal_input(circuit, params, batch, log_prior=None, missing=None) -> np.ndarray:
    """Per-sample log p(x) = logsumexp_c (root_c + log prior_c)."""
    return logsumexp(log_joint(circuit, params, batch, log_prior, missing))


def conditional_log(
    circuit, params, batch, query_mask, evidence_mask, log_prior=None
) -> np.ndarray:
    """log p(x_query | x_evidence), marginalizing everything else.

    ``query_mask`` and ``evidence_mask`` are per-sample boolean selections of
    disjoint variable sets, each shaped like ``batch``; values outside both
    sets are ignored.
    """
    query_mask = np.asarray(query_mask, bool)
    evidence_mask = np.asarray(evidence_mask, bool)
    if query_mask.shape != evidence_mask.shape:
        raise InvalidInput("query and evidence masks must have the same shape")
    if np.any(query_mask & evidence_mask):
        raise InvalidInput("query and evidence masks overlap")
    batch, outside = _check_batch(circuit, batch, ~(query_mask | evidence_mask))
    if log_prior is not None:
        log_prior = check_log_prior(log_prior, circuit.classes_C)
    # joint and evidence marginals in one run of passes over the rows stacked twice
    both = logsumexp(_log_joint(
        circuit, params, np.concatenate([batch, batch]),
        np.concatenate([outside, ~evidence_mask]), log_prior,
    ))
    return both[: len(batch)] - both[len(batch) :]
