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


def gaussian_block_log_density(x, means, variances=None, missing=None):
    """Log-densities of a block of factorized Gaussians.

    x: (N, d) values for the block's scope variables; means: (I, d);
    variances: (I, d) or None for unit variance; missing: (N, d) boolean,
    True entries are marginalized out. Returns (N, I).
    """
    x = np.asarray(x, dtype=float)
    means = np.asarray(means, dtype=float)
    if x.ndim != 2 or means.ndim != 2 or x.shape[1] != means.shape[1]:
        raise InvalidInput(
            f"shape mismatch: batch {x.shape} vs means {means.shape}"
        )
    _check_observed_finite(x, missing)
    if variances is None:
        var = np.ones_like(means)
        log_var = np.zeros_like(means)
    else:
        var = np.asarray(variances, dtype=float)
        log_var = np.log(var)
    diff = x[:, None, :] - means[None, :, :]                      # (N, I, d)
    terms = -0.5 * (LOG_2PI + log_var[None, :, :] + diff * diff / var[None, :, :])
    if missing is not None:
        terms = np.where(np.asarray(missing, bool)[:, None, :], 0.0, terms)
    return terms.sum(axis=2)


def bernoulli_block_log_mass(x, success_logits, missing=None):
    """Log-masses of a block of factorized Bernoullis; x entries in {0, 1}."""
    x = np.asarray(x, dtype=float)
    logits = np.asarray(success_logits, dtype=float)
    if x.ndim != 2 or logits.ndim != 2 or x.shape[1] != logits.shape[1]:
        raise InvalidInput(
            f"shape mismatch: batch {x.shape} vs logits {logits.shape}"
        )
    _check_observed_finite(x, missing)
    # log sigmoid(l) = -log1p(exp(-l)), computed stably on both branches
    log_p = -np.logaddexp(0.0, -logits)
    log_q = -np.logaddexp(0.0, logits)
    terms = x[:, None, :] * log_p[None, :, :] + (1.0 - x[:, None, :]) * log_q[None, :, :]
    if missing is not None:
        terms = np.where(np.asarray(missing, bool)[:, None, :], 0.0, terms)
    return terms.sum(axis=2)


def clamped_variances(log_vars):
    """Trainable variances with the degenerate-Gaussian floor applied."""
    return np.maximum(np.exp(np.asarray(log_vars, dtype=float)), VARIANCE_FLOOR)
