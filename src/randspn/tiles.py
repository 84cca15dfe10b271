"""The one row-stable contraction: a GEMM over tiles of a fixed number of rows.

A BLAS may sum a product's elements in an order that depends on the call's
shape, so a row gets different bits in different calls. ``tile_matmul``
evaluates rows as ``(TILE, K) @ (K, S)`` GEMMs whatever the batch, so a
row's bits depend neither on the other rows nor on its position in its tile,
for a BLAS whose GEMM order depends only on the call's shape (numpy's bundled
OpenBLAS; the row-stability tests check the installed one). Only this module
knows about tiles: callers pass exactly their rows, row-major (the sum mix)
or with rows of unit stride (the leaf); the two layouts may differ in the
last bit.
"""

from __future__ import annotations

import numpy as np

# rows per GEMM call. A desk query's 2 rows take one tile: 16 rows made it
# x1.19 slower and 32 rows x1.58 (BENCH_tiled_contractions.json)
TILE = 8


def tile_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over tiles of ``TILE`` rows: (..., N, K) @ (..., K, S) -> (..., N, S).

    Whole tiles are views of ``a``, and the rows after them come from the
    product of the last ``TILE`` rows. Only ``N < TILE`` rows are copied, into
    a zero tile of ``a``'s layout: rows of unit stride when ``a.strides[-2] <=
    a.strides[-1]``, else row-major. One row's strides do not say which; the
    rule reads the leaf's one-row view, strides (8, 8), and a row-major row
    of K > 1 columns, (8K, 8), as the engine means them.
    """
    *lead, rows, k = a.shape
    if rows < TILE:
        if a.strides[-2] <= a.strides[-1]:
            tile = np.zeros((*lead, k, TILE)).swapaxes(-1, -2)
        else:
            tile = np.zeros((*lead, TILE, k))
        tile[..., :rows, :] = a
        return (tile @ b)[..., :rows, :]
    out = np.empty((*lead, rows, b.shape[-1]))
    whole = rows - rows % TILE
    if whole < rows:
        np.matmul(a[..., -TILE:, :], b, out=out[..., -TILE:, :])
    tiles = (*lead, whole // TILE, TILE, -1)
    np.matmul(a[..., :whole, :].reshape(tiles, copy=False), b[..., None, :, :],
              out=out[..., :whole, :].reshape(tiles, copy=False))
    return out
