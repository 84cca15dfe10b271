"""Leaf distribution log-values with exact marginalization by masking.

Leaves factorize over their scope, so marginalizing a variable out is the
same as dropping its univariate term: masked entries contribute exactly 0 in
the log domain. Gaussian leaves are the working default; Bernoulli leaves
exist so that discrete circuits can be checked against exhaustive
enumeration. Both are the exponential-family form of Einsum Networks, with
one kernel (``gaussian_block_log_density``): for x in {0, 1}, x² = x. A
batch is masked once per forward pass, by ``leaf_statistics``, whose
(V, 3, N) statistics each leaf group takes its scope's rows of.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .tiles import tile_matmul

GAUSSIAN, BERNOULLI = "gaussian", "bernoulli"
LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR = 1e-4
_LOWEST = np.finfo(float).min
# a log-density not above this is recomputed from squared differences
_OVERFLOWED = -1e300


class GaussianTerms(NamedTuple):
    """Parameters of a group of G leaf blocks of I nodes, each (G, I, d), of either family.

    Unit variances are ones, with log-variances 0 and inverses 1: ``×1.0``
    and ``+0.0`` are exact. ``natural``, a contiguous (G, 3d, I), holds per
    scope variable the coefficients of (x², x, observed): ``-1/(2 var)``,
    ``mean/var`` and ``-mean²/(2 var) - log(2 pi var)/2``, clipped to
    finite values. A Bernoulli leaf's mean is its success probability, its
    variance 1 and its coefficients (0, logit, log(1 - p)).
    """

    means: np.ndarray
    variances: np.ndarray
    log_variances: np.ndarray
    inv_variances: np.ndarray
    natural: np.ndarray


def _coefficients(size, nodes, scope):
    """An empty (G, 3d, I) ``natural`` and its (a, b, c) rows as (G, I, d) views."""
    natural = np.empty((size, scope, 3, nodes))
    return natural.reshape(size, 3 * scope, nodes), natural.transpose(2, 0, 3, 1)


def gaussian_terms(means, variances) -> GaussianTerms:
    """The terms of (G, I, d) means and variances, the means less their variables' centre."""
    mu = np.asarray(means, dtype=float)
    var = np.asarray(variances, dtype=float)
    log_var, inv_var = np.log(var), 1.0 / var
    natural, (a, b, c) = _coefficients(*mu.shape)
    with np.errstate(over="ignore"):  # a coefficient that overflows is clipped below
        np.multiply(inv_var, -0.5, out=a)
        np.multiply(mu, inv_var, out=b)
        np.multiply(mu, b, out=c)
        c += LOG_2PI
        c += log_var
        c *= -0.5
    if not np.isfinite(natural).all():
        np.clip(natural, _LOWEST, -_LOWEST, out=natural)
    return GaussianTerms(mu, var, log_var, inv_var, natural)


def bernoulli_terms(success_logits) -> GaussianTerms:
    """The terms of (G, I, d) success log-odds; finite logits give finite coefficients."""
    logits = np.asarray(success_logits, dtype=float)
    natural, (a, b, c) = _coefficients(*logits.shape)
    a[...], b[...] = 0.0, logits
    # log p and log(1 - p) = -log1p(exp(-+l)), computed stably on both branches
    np.negative(np.logaddexp(0.0, logits), out=c)
    ones = np.ones_like(logits)
    return GaussianTerms(np.exp(-np.logaddexp(0.0, -logits)), ones, 0.0 * ones, ones, natural)


def leaf_statistics(x, missing, centre) -> np.ndarray:
    """The (..., 3, N) statistics of an (N, ...) float batch ``x``: the one masking step.

    Per entry, rows last: (x², x, observed) of x less its ``centre`` (a row
    of ``x``). ``missing``, a bool array like ``x`` or None, marks the
    entries to marginalize out: they take the value ``centre``, so their
    statistics are 0. InvalidInput unless every observed value is finite.
    """
    if missing is not None:
        x = np.where(missing, centre, x)
    if not np.isfinite(x).all():
        raise InvalidInput("observed values must be finite")
    features = np.empty(x.shape[1:] + (3, len(x)))
    # the writes go through one (N, ..., 3) view, a single transpose: two
    # np.moveaxis calls tripled the cost of a 2-row build
    by_row = features.transpose(-1, *range(x.ndim))
    with np.errstate(over="ignore"):
        np.square(np.subtract(x, centre, out=by_row[..., 1]), out=by_row[..., 0])
    by_row[..., 2] = 1.0 if missing is None else ~missing
    return features


def check_support(family, x, missing) -> None:
    """For Bernoulli leaves, which read x² as x, InvalidInput unless every entry
    of ``x`` that ``missing`` (as in ``leaf_statistics``) keeps is 0 or 1."""
    if family == BERNOULLI:
        observed = x if missing is None else x[~missing]
        if not ((observed == 0.0) | (observed == 1.0)).all():
            raise InvalidInput("Bernoulli observations must be 0 or 1")


def gaussian_block_log_density(features, terms: GaussianTerms):
    """(G, N, I) log-values of a group of G leaf blocks, of either family: the one leaf kernel.

    ``features`` is the group's (G, d, 3, N) statistics, the take of its
    scope from the pass's ``leaf_statistics``, and ``terms`` the
    ``gaussian_terms`` or ``bernoulli_terms`` of its (G, I, d) parameters.

    The log-value is θ·T(x) - A(θ): the statistics of each variable times
    the ``natural`` coefficients, summed over the scope by ``tile_matmul``,
    so a masked entry adds exactly 0 whatever its parameters. In a Gaussian
    group, a row whose output is not above -1e300 (a square that
    overflowed, or a clipped coefficient) is recomputed from the squared
    differences; an observed value whose squared distance to a mean
    overflows there too has log-density -inf, without a warning. A
    Bernoulli group's x² coefficients are 0: its GEMM output is its value.
    """
    size, scope, _, rows = features.shape
    flat = features.reshape(size, 3 * scope, rows).swapaxes(1, 2)  # rows of unit stride
    with np.errstate(over="ignore", invalid="ignore"):  # recomputed below
        out = tile_matmul(flat, terms.natural)
    fine = out > _OVERFLOWED
    if not fine.all() and terms.natural[:, ::3].any():
        _difference_form(out, features, terms, np.nonzero(~fine.all(axis=-1)))
    return out


def _difference_form(out, features, terms, rows):
    """Recompute the (member, row) ``rows`` of ``out`` from squared differences."""
    member, row = rows
    mu, _, log_var, inv_var, _ = terms
    chosen = features[member, ..., row][:, None]  # (M, 1, d, 3)
    x, observed = chosen[..., 1], chosen[..., 2]
    with np.errstate(over="ignore"):
        diff = (x - mu[member]) * observed  # before squaring: a masked term is exactly 0
        quad = (diff * diff * inv_var[member]).sum(axis=-1)  # (M, I)
    quad += (observed * log_var[member]).sum(axis=-1)
    quad += LOG_2PI * observed.sum(axis=-1)
    out[member, row] = -0.5 * quad


def clamped_variances(log_vars):
    """Trainable variances with the degenerate-Gaussian floor applied."""
    return np.maximum(np.exp(np.asarray(log_vars, dtype=float)), VARIANCE_FLOOR)
