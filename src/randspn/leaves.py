"""Leaf distribution log-densities with exact marginalization by masking.

Leaves factorize over their scope, so marginalizing a variable out is the
same as dropping its univariate term: masked entries contribute exactly 0 in
the log domain. Gaussian leaves are the working default; Bernoulli leaves
exist so that discrete circuits can be checked against exhaustive
enumeration.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidInput

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR = 1e-4


def _check_observed_finite(x, missing):
    observed = x if missing is None else np.where(missing, 0.0, x)
    if not np.all(np.isfinite(observed)):
        raise InvalidInput("observed values must be finite")


def _summed_over_scope(x, missing, num_nodes, node_terms):
    """Sum each leaf node's per-variable log-terms over the scope.

    ``node_terms(i)`` returns a fresh array of node ``i``'s terms, shaped
    like ``x``; masked entries count as exactly 0. Returns
    ``x.shape[:-1] + (num_nodes,)``. Looping over the nodes keeps every
    temporary the size of ``x``.
    """
    masked = None if missing is None else np.flatnonzero(missing)
    out = np.empty(x.shape[:-1] + (num_nodes,))
    for i in range(num_nodes):
        terms = node_terms(i)
        if masked is not None:
            np.put(terms, masked, 0.0)
        out[..., i] = terms.sum(axis=-1)
    return out


def _check_shapes(x, params, missing):
    if (
        x.ndim not in (2, 3)
        or params.ndim != x.ndim
        or x.shape[1:-1] != params.shape[:-2]
        or x.shape[-1] != params.shape[-1]
    ):
        raise InvalidInput(f"shape mismatch: batch {x.shape} vs parameters {params.shape}")
    if missing is not None and np.shape(missing) != x.shape:
        raise InvalidInput(f"shape mismatch: batch {x.shape} vs mask {np.shape(missing)}")


def node_major(params):
    """(I, d) or (I, G, d) contiguous copy, so each node's row is contiguous."""
    return np.ascontiguousarray(np.moveaxis(params, -2, 0))


def gaussian_block_log_density(x, means, variances=None, missing=None):
    """Log-densities of a block, or a group of blocks, of factorized Gaussians.

    One block: x is (N, d), the values of its scope variables; means is
    (I, d); variances is (I, d), or None for unit variance; missing is an
    (N, d) boolean mask whose True entries are marginalized out. Returns
    (N, I). A group of G blocks adds a group axis: x and missing are
    (N, G, d), means and variances (G, I, d), and the result is (N, G, I).
    An observed value whose squared distance to a mean overflows has
    log-density -inf, without a warning.
    """
    x = np.asarray(x, dtype=float)
    means = np.asarray(means, dtype=float)
    _check_shapes(x, means, missing)
    _check_observed_finite(x, missing)
    mu = node_major(means)
    # in place and without a variance array when there is none: the leaf
    # kernel is a large share of a single-sample query
    if variances is None:

        def node_terms(i):  # -0.5 * (log 2 pi + (x - mu)^2)
            t = x - mu[i]
            t *= t
            t += LOG_2PI
            t *= -0.5
            return t

    else:
        var = node_major(np.asarray(variances, dtype=float))
        const = LOG_2PI + np.log(var)

        def node_terms(i):  # -0.5 * (log 2 pi + log var + (x - mu)^2 / var)
            t = x - mu[i]
            t *= t
            t /= var[i]
            t += const[i]
            t *= -0.5
            return t

    with np.errstate(over="ignore"):
        return _summed_over_scope(x, missing, means.shape[-2], node_terms)


def bernoulli_block_log_mass(x, success_logits, missing=None):
    """Log-masses of a block, or a group of blocks, of factorized Bernoullis.

    Shapes as in ``gaussian_block_log_density``, with success log-odds in
    place of means; x entries are in {0, 1}.
    """
    x = np.asarray(x, dtype=float)
    logits = np.asarray(success_logits, dtype=float)
    _check_shapes(x, logits, missing)
    _check_observed_finite(x, missing)
    # log sigmoid(l) = -log1p(exp(-l)), computed stably on both branches
    log_p = node_major(-np.logaddexp(0.0, -logits))
    log_q = node_major(-np.logaddexp(0.0, logits))
    x_q = 1.0 - x

    def node_terms(i):
        return x * log_p[i] + x_q * log_q[i]

    return _summed_over_scope(x, missing, logits.shape[-2], node_terms)


def clamped_variances(log_vars):
    """Trainable variances with the degenerate-Gaussian floor applied."""
    return np.maximum(np.exp(np.asarray(log_vars, dtype=float)), VARIANCE_FLOOR)
