"""Leaf distribution log-densities with exact marginalization by masking.

Leaves factorize over their scope, so marginalizing a variable out is the
same as dropping its univariate term: masked entries contribute exactly 0 in
the log domain. Gaussian leaves are the working default; Bernoulli leaves
exist so that discrete circuits can be checked against exhaustive
enumeration.

A batch is masked in one place, ``leaf_statistics``, once per forward
pass: it builds the sufficient statistics (x², x and the observed factor)
of every entry, with masked entries 0 and an observed factor of 0, and
checks that every observed value is finite. They are laid out by
variable, rows last, so a plan group's take of its scope copies whole
rows of statistics. A Gaussian leaf is the exponential-family form of
Einsum Networks, the statistics contracted with natural coefficients (one
GEMM per pass, see ``tiles``), so a masked term is exactly 0 whatever the
parameters. A kernel takes a plan group's (G, d, 3, R) statistics and its
group-major terms (``gaussian_terms`` or ``bernoulli_terms`` of (G, I, d)
parameters, which ``ParameterSet`` computes once per parameter set) and
returns the group's (G, N, I) table.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import InvalidInput
from .tiles import padded, tile_matmul

LOG_2PI = float(np.log(2.0 * np.pi))
VARIANCE_FLOOR = 1e-4
_LOWEST = np.finfo(float).min
# a log-density not above this is recomputed from squared differences
_OVERFLOWED = -1e300


class GaussianTerms(NamedTuple):
    """Gaussian parameters of a group of G leaf blocks of I nodes, each (G, I, d).

    Unit variances are ones, with log-variances 0 and inverses 1, which
    change no bit of a term: ``×1.0`` and ``+0.0`` are exact. ``natural``, a
    contiguous (G, 3d, I), holds the coefficients the density contracts
    the leaf statistics with: per scope variable, in the order (x², x,
    observed), ``a = -1/(2 var)``, ``b = mean/var`` and
    ``c = -mean²/(2 var) - log(2 pi var)/2``, clipped to finite values.
    """

    means: np.ndarray
    variances: np.ndarray
    log_variances: np.ndarray
    inv_variances: np.ndarray
    natural: np.ndarray


class BernoulliTerms(NamedTuple):
    """Log success and failure probabilities, shaped as ``GaussianTerms.means``."""

    log_p: np.ndarray
    log_q: np.ndarray


def gaussian_terms(means, variances) -> GaussianTerms:
    """The terms ``gaussian_block_log_density`` reads, from (G, I, d) parameters."""
    mu = np.asarray(means, dtype=float)
    size, nodes, scope = mu.shape
    var = np.asarray(variances, dtype=float)
    log_var, inv_var = np.log(var), 1.0 / var
    with np.errstate(over="ignore"):  # a coefficient that overflows is clipped below
        a, b = -0.5 * inv_var, mu * inv_var
        c = -0.5 * (mu * b + LOG_2PI + log_var)
    natural = np.moveaxis(np.stack((a, b, c), axis=-1), 1, -1)  # (G, d, 3, I)
    natural = np.clip(natural, _LOWEST, -_LOWEST).reshape(size, 3 * scope, nodes)
    return GaussianTerms(mu, var, log_var, inv_var, np.ascontiguousarray(natural))


def bernoulli_terms(success_logits) -> BernoulliTerms:
    """The terms ``bernoulli_block_log_mass`` reads, from (G, I, d) success log-odds."""
    logits = np.asarray(success_logits, dtype=float)
    # log sigmoid(l) = -log1p(exp(-l)), computed stably on both branches
    return BernoulliTerms(-np.logaddexp(0.0, -logits), -np.logaddexp(0.0, logits))


class LeafStatistics(NamedTuple):
    """The sufficient statistics of a batch, padded to whole tiles.

    ``features`` is (..., 3, R) for an (N, ...) batch, rows last: per
    entry, in the order (x², x, observed); along the last axis, rows
    ``rows`` and after are zero, as a fully masked row is, up to
    ``R = tiles.padded(rows)``.
    """

    features: np.ndarray
    rows: int


def leaf_statistics(x, missing=None) -> LeafStatistics:
    """The ``LeafStatistics`` of an (N, ...) float batch ``x``: the one masking step.

    ``missing``, a bool array shaped like ``x`` or None, marks the entries
    to marginalize out: their x², x and observed factor are all 0. Raises
    InvalidInput unless every observed value is finite. A square that
    overflows is inf; the kernel that reads it recomputes its row (see
    ``gaussian_block_log_density``).
    """
    if missing is not None:
        x = np.where(missing, 0.0, x)
    if not np.isfinite(x).all():
        raise InvalidInput("observed values must be finite")
    rows = len(x)
    features = np.empty(x.shape[1:] + (3, padded(rows)))
    features[..., rows:] = 0.0
    # the writes go through one (N, ..., 3) view of the real rows, a single
    # transpose: two np.moveaxis calls tripled the cost of a 2-row build
    by_row = features.transpose(-1, *range(x.ndim))[:rows]
    with np.errstate(over="ignore"):
        np.square(x, out=by_row[..., 0])
    by_row[..., 1] = x
    by_row[..., 2] = 1.0 if missing is None else ~missing
    return LeafStatistics(features, rows)


def gaussian_block_log_density(stats: LeafStatistics, terms: GaussianTerms):
    """(G, N, I) log-densities of a group of G blocks of factorized Gaussians.

    ``stats`` is the group's (G, d, 3, R) ``LeafStatistics``, the take of
    its scope from the pass's ``leaf_statistics``, and ``terms`` the
    ``gaussian_terms`` of its (G, I, d) means and variances.

    The density is the exponential-family form θ·T(x) - A(θ) of Einsum
    Networks: the statistics (x², x, observed) of each variable times the
    ``natural`` coefficients, summed over the scope by ``tile_matmul``. A
    masked entry's statistics are all 0, so it adds exactly 0 whatever its
    mean. A row whose output is not above -1e300 (a square that
    overflowed, or a clipped coefficient) is recomputed from the squared
    differences; an observed value whose squared distance to a mean
    overflows there too has log-density -inf, without a warning.
    """
    features = stats.features
    size, scope, _, rows = features.shape
    # a (G, R, 3d) view whose rows have unit stride
    flat = features.reshape(size, 3 * scope, rows).swapaxes(1, 2)
    with np.errstate(over="ignore", invalid="ignore"):  # recomputed below
        out = tile_matmul(flat, terms.natural)
    lost = ~(out > _OVERFLOWED)
    if lost.any():
        _difference_form(out, features, terms, np.nonzero(lost.any(axis=-1)))
    return out[:, : stats.rows]


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


def bernoulli_block_log_mass(stats: LeafStatistics, terms: BernoulliTerms):
    """(G, N, I) log-masses of a group of G blocks of factorized Bernoullis.

    Shapes as in ``gaussian_block_log_density``, with ``terms`` the
    ``bernoulli_terms`` of success log-odds; x entries are in {0, 1}.
    """
    features = stats.features[..., : stats.rows]
    x, observed = features[:, :, 1], features[:, :, 2]  # (G, d, N) each
    successes = np.einsum("gdn,gid->gni", x, terms.log_p)
    return successes + np.einsum("gdn,gid->gni", observed - x, terms.log_q)  # 0 where masked


def clamped_variances(log_vars):
    """Trainable variances with the degenerate-Gaussian floor applied."""
    return np.maximum(np.exp(np.asarray(log_vars, dtype=float)), VARIANCE_FLOOR)
