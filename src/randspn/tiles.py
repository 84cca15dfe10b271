"""The one row-stable contraction: a GEMM over tiles of a fixed number of rows.

A BLAS may sum a matrix product's elements in an order that depends on the
call's shape: a one-row product goes to a matrix-vector kernel, and larger
ones to other blockings, so the same row gets different bits in different
calls. ``tile_matmul`` cuts the rows into tiles of exactly ``TILE`` rows and
evaluates them as one batched product of ``(TILE, K) @ (K, S)`` GEMMs: every
call has that shape whatever the batch, so a row's bits depend neither on
the other rows nor on its position in its tile, for a BLAS whose GEMM order
per element depends only on the call's shape, not on the row's position in
the tile (numpy's bundled OpenBLAS; the row-stability and tile-position tests
check this on the installed BLAS). The caller allocates its rows padded to
``padded(rows)``, the padding rows zero, so no copy is made here. The sum
mix and the Gaussian leaf both go through it: the sum mix with row-major
rows, the leaf with a view of its statistics whose rows have unit stride
(a transposed GEMM operand). Each layout is row-stable on its own; the
two may differ in the last bit.
"""

from __future__ import annotations

import numpy as np

# rows per GEMM call. A desk query pads its 2 rows to one tile: 16 rows
# made it x1.19 slower and 32 rows x1.58 (BENCH_tiled_contractions.json)
TILE = 8


def padded(rows: int) -> int:
    """``rows`` rounded up to whole tiles."""
    return -(-rows // TILE) * TILE


def tile_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` over tiles of ``TILE`` rows: (..., R, K) @ (..., K, S) -> (..., R, S).

    ``R`` is a multiple of ``TILE`` (see ``padded``), and the rows of ``a``
    split into tiles without a copy: its last axis or its rows have unit
    stride.
    """
    *lead, rows, k = a.shape
    tiles = a.reshape((*lead, rows // TILE, TILE, k), copy=False)
    return (tiles @ b[..., None, :, :]).reshape((*lead, rows, b.shape[-1]))
