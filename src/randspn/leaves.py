"""Leaf distribution log-densities with exact marginalization by masking.

Leaves factorize over their scope, so marginalizing a variable out is the
same as dropping its univariate term: masked entries contribute exactly 0 in
the log domain. Gaussian leaves are the working default; Bernoulli leaves
exist so that discrete circuits can be checked against exhaustive
enumeration.

A batch is masked once, where it enters (``mask_batch``): masked entries
become 0, and the kernels multiply every per-variable term by a 0/1
observed factor, so a masked term is exactly 0 whatever the parameters.
The parameter terms they read (node-major means, log-variances, log-masses)
come from ``gaussian_terms`` and ``bernoulli_terms``, which
``ParameterSet`` computes once per parameter set.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR = 1e-4
# observed factor, indexed by the missing mask: 1 observed, 0 marginalized
_OBSERVED = np.array([1.0, 0.0])


class GaussianTerms(NamedTuple):
    """Node-major Gaussian parameters: (I, d) for a block, (I, G, d) for a group.

    The variance fields are None for unit variances.
    """

    means: np.ndarray
    variances: np.ndarray | None
    log_variances: np.ndarray | None
    inv_variances: np.ndarray | None


class BernoulliTerms(NamedTuple):
    """Node-major log success and failure probabilities, shaped as ``GaussianTerms``."""

    log_p: np.ndarray
    log_q: np.ndarray


def node_major(params):
    """(I, d) or (I, G, d) contiguous copy, so each node's row is contiguous."""
    if params.ndim not in (2, 3):
        raise InvalidInput(f"leaf parameters must be (I, d) or (G, I, d), got {params.shape}")
    return np.ascontiguousarray(np.moveaxis(params, -2, 0))


def gaussian_terms(means, variances=None) -> GaussianTerms:
    """The terms ``gaussian_block_log_density`` reads, from (I, d) or (G, I, d) parameters."""
    mu = node_major(np.asarray(means, dtype=float))
    if variances is None:
        return GaussianTerms(mu, None, None, None)
    var = node_major(np.asarray(variances, dtype=float))
    return GaussianTerms(mu, var, np.log(var), 1.0 / var)


def bernoulli_terms(success_logits) -> BernoulliTerms:
    """The terms ``bernoulli_block_log_mass`` reads, from success log-odds."""
    logits = np.asarray(success_logits, dtype=float)
    # log sigmoid(l) = -log1p(exp(-l)), computed stably on both branches
    return BernoulliTerms(
        node_major(-np.logaddexp(0.0, -logits)), node_major(-np.logaddexp(0.0, logits))
    )


def mask_batch(x, missing=None):
    """``x`` as floats with masked entries 0, and the 0/1 observed factor.

    ``missing``, shaped like ``x``, marks the entries to marginalize out;
    without it the factor is None. Raises InvalidInput unless every
    observed value is finite.
    """
    x = np.asarray(x, dtype=float)
    observed = None
    if missing is not None:
        missing = np.asarray(missing, dtype=bool)
        if missing.shape != x.shape:
            raise InvalidInput(f"missing mask shape {missing.shape} != batch shape {x.shape}")
        x = np.where(missing, 0.0, x)
        observed = _OBSERVED.take(missing)
    if not np.isfinite(x).all():
        raise InvalidInput("observed values must be finite")
    return x, observed


def _check_shapes(x, node_terms, observed):
    # node-major terms are 2- or 3-D, so equal trailing shapes fix x's rank too
    if x.shape[1:] != node_terms.shape[1:] or (
        observed is not None and observed.shape != x.shape
    ):
        raise InvalidInput(
            f"shape mismatch: batch {x.shape} vs node-major parameters {node_terms.shape}"
        )


def node_differences(x, centers, observed=None, inv_var=None):
    """Yield ``(diff, scaled)`` for each node i of the node-major ``centers``.

    ``diff = (x - centers[i]) * observed`` (no product without a factor) and
    ``scaled = diff * inv_var[i]``, or ``diff`` itself for unit variances.
    The one per-node leaf loop: the Gaussian density and the log-variance
    gradient read it. Both are buffers reused for every node.
    """
    diff = np.empty_like(x)  # one for all nodes: fresh pages cost more than the math
    scaled = diff if inv_var is None else np.empty_like(x)
    for i in range(len(centers)):
        np.subtract(x, centers[i], out=diff)
        if observed is not None:
            diff *= observed  # before squaring: a masked term is exactly 0
        if inv_var is not None:
            np.multiply(diff, inv_var[i], out=scaled)
        yield diff, scaled


def _scope_dot(a, node_terms):
    """sum_d a[..., d] * node_terms[i, ..., d] for every node i: shape a.shape[:-1] + (I,)."""
    return np.einsum("...d,i...d->...i", a, node_terms)


def gaussian_block_log_density(x, terms: GaussianTerms, observed=None):
    """Log-densities of a block, or a group of blocks, of factorized Gaussians.

    One block: ``x, observed = mask_batch(values, missing)`` are (N, d), its
    scope variables' values; ``terms`` is ``gaussian_terms(means, variances)``
    of (I, d) means and variances (None for unit variance). Returns (N, I).
    A group of G blocks adds a group axis: x and observed are (N, G, d),
    the parameters (G, I, d), and the result is (N, G, I). An observed value
    whose squared distance to a mean overflows has log-density -inf,
    without a warning.
    """
    mu, _, log_var, inv_var = terms
    _check_shapes(x, mu, observed)
    # one node per step keeps every temporary the size of x
    quad = np.empty(x.shape[:-1] + (len(mu),))
    with np.errstate(over="ignore"):
        for i, (diff, scaled) in enumerate(node_differences(x, mu, observed, inv_var)):
            np.vecdot(diff, scaled, out=quad[..., i])
    # -0.5 * (log 2 pi * #observed + sum of observed log variances + quad)
    if observed is None:
        count = x.shape[-1]
        if log_var is not None:
            quad += log_var.sum(axis=-1).T
    else:
        count = observed.sum(axis=-1)[..., None]
        if log_var is not None:
            quad += _scope_dot(observed, log_var)
    quad += LOG_2PI * count
    quad *= -0.5
    return quad


def bernoulli_block_log_mass(x, terms: BernoulliTerms, observed=None):
    """Log-masses of a block, or a group of blocks, of factorized Bernoullis.

    Shapes as in ``gaussian_block_log_density``, with ``terms`` the
    ``bernoulli_terms`` of success log-odds; x entries are in {0, 1}.
    """
    _check_shapes(x, terms.log_p, observed)
    failures = (1.0 if observed is None else observed) - x  # 0 where masked
    return _scope_dot(x, terms.log_p) + _scope_dot(failures, terms.log_q)


def clamped_variances(log_vars):
    """Trainable variances with the degenerate-Gaussian floor applied."""
    return np.maximum(np.exp(np.asarray(log_vars, dtype=float)), VARIANCE_FLOOR)
