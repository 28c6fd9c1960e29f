"""Vector norms, dual norms, and the steepest-descent direction operator.

The operator P maps a gradient z to argmax_x (<z, x> - ||x||^2 / 2).  Its
closed form per norm turns one descent template into gradient descent
(Euclidean), sign descent (max norm), greedy coordinate descent (one norm),
per-coordinate scaling (weighted norm), and block-normalized descent
(block-max norm).
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from ._json import json_int, json_number
from ._record import record

__all__ = [
    "BlockPartition",
    "Euclidean",
    "Max",
    "One",
    "WeightedDiag",
    "BlockMax",
    "NormKind",
    "sign_unit",
    "norm",
    "dual_norm",
    "steepest_op",
    "gradient_density",
    "kind_from_json",
]


@record
class BlockPartition:
    """Disjoint, covering, non-empty index blocks over {0, ..., d-1}.

    ``index`` holds, per block, what selects it from a vector: a slice for
    a run of consecutive ascending indices, otherwise a read-only integer
    array in the block's order.  It is built once, with the partition, and
    is no field: not an argument, not compared, not shown.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(int(i) for i in b) for b in self.blocks)
        if not blocks or any(len(b) == 0 for b in blocks):
            raise ValueError("partition blocks must be non-empty")
        flat = sorted(i for b in blocks for i in b)
        if flat != list(range(len(flat))):
            raise ValueError("partition blocks must disjointly cover 0..d-1")
        object.__setattr__(self, "blocks", blocks)
        object.__setattr__(self, "index", tuple(map(_block_index, blocks)))

    @property
    def dim(self) -> int:
        return sum(len(b) for b in self.blocks)


@record
class Euclidean:
    pass


@record
class Max:
    pass


@record
class One:
    pass


@record
class WeightedDiag:
    """sqrt(sum_i w_i x_i^2) with strictly positive weights."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w or any(not np.isfinite(x) or x <= 0.0 for x in w):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)


@record
class BlockMax:
    partition: BlockPartition


NormKind = Union[Euclidean, Max, One, WeightedDiag, BlockMax]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _block_index(block: tuple[int, ...]):
    start = block[0]
    if block == tuple(range(start, start + len(block))):
        return slice(start, start + len(block))
    return _frozen(np.array(block, dtype=np.intp))


# A 0-d operand is cheaper in a numpy call than a Python float, and rounds
# the same.
_ZERO = _frozen(np.array(0.0))
_SIGNS = _frozen(np.array([-1.0, 1.0]))  # indexed by z >= 0
_L2_TINY = 1.5e-154  # about sqrt of the smallest normal double: below it the squares lose bits


def sign_unit(z: np.ndarray) -> np.ndarray:
    """Elementwise sign with sign(0) = +1, fixed for determinism (NaN gives -1)."""
    return _SIGNS.take(np.asarray(z, dtype=float) >= _ZERO)


def _check_dim(kind: NormKind, d: int) -> None:
    if isinstance(kind, WeightedDiag) and len(kind.weights) != d:
        raise ValueError(f"weight vector has length {len(kind.weights)}, expected {d}")
    if isinstance(kind, BlockMax) and kind.partition.dim != d:
        raise ValueError(f"partition covers {kind.partition.dim} indices, expected {d}")


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b.

    Computed as a stack of (1, d) @ (d, 1) products, which round like np.dot
    on each row (a row sum of elementwise products does not).
    """
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _scaled_l2_rows(X: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of X, each computed on the row divided by
    its largest magnitude, so that no square overflows or underflows."""
    m = np.abs(X).max(axis=1)
    U = X / m[:, None]
    return m * np.sqrt(_row_dots(U, U))


def _l2(x: np.ndarray) -> float:
    """sqrt(x'x).  A finite nonzero x whose squares overflow (entries above
    ~1e154) or whose norm is below _L2_TINY is rescaled; any other x keeps
    the bits of the plain formula.  numpy's overflow warning from the plain
    product is not suppressed."""
    r = math.sqrt(x.dot(x))
    if not _L2_TINY <= r < math.inf and np.isfinite(x).all() and x.any():
        r = float(_scaled_l2_rows(x.reshape(1, -1))[0])
    return r


def _l2_rows(X: np.ndarray) -> np.ndarray:
    """_l2 of every row of the (n, d) array X."""
    r = np.sqrt(_row_dots(X, X))
    rescale = (r < _L2_TINY) | (r == math.inf)
    if rescale.any():
        rescale &= np.isfinite(X).all(axis=1) & X.any(axis=1)
        r[rescale] = _scaled_l2_rows(X[rescale])
    return r


def _block_norms(x: np.ndarray, index) -> list[float]:
    """The Euclidean norm (_l2) of each block of x, for a partition's index."""
    return [_l2(x[i]) for i in index]


def norm(x, kind: NormKind) -> float:
    x = np.asarray(x, dtype=float)
    _check_dim(kind, x.size)
    if isinstance(kind, Euclidean):
        return _l2(x)
    if isinstance(kind, Max):
        return float(np.abs(x).max())
    if isinstance(kind, One):
        return float(np.abs(x).sum())
    if isinstance(kind, WeightedDiag):
        w = np.asarray(kind.weights)
        r = math.sqrt(np.dot(w * x, x))
        # rescaled only when the squares overflow or lose bits
        return _l2(np.sqrt(w) * x) if not _L2_TINY <= r < math.inf else r
    if isinstance(kind, BlockMax):
        return max(_block_norms(x, kind.partition.index))
    raise TypeError(f"unknown norm kind: {kind!r}")


# The kernels of each geometry, on float arrays whose last axis has the
# kind's dimension: the dual norm of a vector, the dual norms of the rows of
# an (n, d) array (one last-axis function for the max and one norms), and
# the step P(g)/c along the last axis of g, step(g, c, dual=None), which
# uses dual = ||g||* when the caller has it.  For a vector g, c is a
# positive float or 0-d array, and a float when dual (a float) is given; a
# scalar quotient is one of Python floats, cheaper than one of numpy
# scalars.  The Euclidean and max steps also take a (K, R, d) stack with c
# of shape (K, 1, 1).  _kernels resolves
# a kind to them once; dual_norm, dual_norm_rows and steepest_op check
# their argument and call the same kernels.

def _l2_step(g: np.ndarray, c, dual=None) -> np.ndarray:
    return g / c


def _max_dual(z: np.ndarray):
    return np.add.reduce(np.abs(z), axis=-1)


def _max_step(g: np.ndarray, c, dual=None) -> np.ndarray:
    # P(g) = ||g||_1 sign(g), and a product with +-1 is exact, so
    # sign(g) * (||g||_1 / c) has the bits of P(g)/c with one array operation
    # fewer; a quotient of exactly 1.0 (c = ||g||_1 in normalized descent) needs none
    if dual is None:
        if g.ndim > 1:
            return sign_unit(g) * (np.add.reduce(np.abs(g), axis=-1, keepdims=True) / c)
        dual, c = float(_max_dual(g)), float(c)
    scale = dual / c
    return sign_unit(g) if scale == 1.0 else sign_unit(g) * np.array(scale)


def _one_dual(z: np.ndarray):
    return np.abs(z).max(axis=-1)


def _one_step(g: np.ndarray, c, dual=None) -> np.ndarray:
    # only the largest |g_i|, the first on a tie, is kept: one quotient, not d
    i = np.abs(g).argmax()
    out = np.zeros(g.shape)
    out[i] = g[i] / float(c)
    return out


def _weighted_kernels(weights: tuple[float, ...]):
    w = np.array(weights)
    root = np.sqrt(w)

    def dual(z):
        r = math.sqrt(np.dot(z / w, z))
        return _l2(z / root) if not _L2_TINY <= r < math.inf else r

    def rows(X):
        r = np.sqrt(_row_dots(X / w, X))
        rescale = (r < _L2_TINY) | (r == math.inf)
        if rescale.any():
            r[rescale] = _l2_rows(X[rescale] / root)
        return r

    return dual, rows, lambda g, c, dual=None: g / w / c


def _blockmax_kernels(partition: BlockPartition):
    index = partition.index

    def dual(z):
        return sum(_block_norms(z, index))

    def rows(X):
        out = np.zeros(X.shape[0])
        for b in partition.blocks:
            # X[:, list(b)] is an F-ordered copy, which _row_dots rounds unlike one row's
            # np.dot (a slice of X rounds like it); the traces' printed bits rest on this form
            out += _l2_rows(X[:, list(b)])
        return out

    def step(g, c, dual=None):
        block_norms = _block_norms(g, index)
        total = sum(block_norms) if dual is None else dual
        out = np.zeros(g.shape)
        for i, nb in zip(index, block_norms):
            if nb > 0.0:
                scale = total / nb
                # g[i] / nb is at most 1 in magnitude, so this order cannot overflow a finite result
                out[i] = g[i] * np.array(scale) if scale < math.inf else g[i] / nb * total
        return out / c

    return dual, rows, step


def _kernels(kind: NormKind) -> tuple[Callable, Callable, Callable]:
    """(dual norm, row dual norms, step) kernels of ``kind``; they do not
    check the dimension (see _check_dim)."""
    if isinstance(kind, Euclidean):
        return _l2, _l2_rows, _l2_step
    if isinstance(kind, Max):
        return _max_dual, _max_dual, _max_step
    if isinstance(kind, One):
        return _one_dual, _one_dual, _one_step
    if isinstance(kind, WeightedDiag):
        return _weighted_kernels(kind.weights)
    if isinstance(kind, BlockMax):
        return _blockmax_kernels(kind.partition)
    raise TypeError(f"unknown norm kind: {kind!r}")


def dual_norm(x, kind: NormKind) -> float:
    x = np.asarray(x, dtype=float)
    _check_dim(kind, x.size)
    return float(_kernels(kind)[0](x))


def dual_norm_rows(X, kind: NormKind) -> np.ndarray:
    """dual_norm of every row of the (n, d) array X, as an (n,) array."""
    X = np.asarray(X, dtype=float)
    _check_dim(kind, X.shape[1])
    return _kernels(kind)[1](X)


def steepest_op(z, kind: NormKind) -> np.ndarray:
    """P(z): the update direction of steepest descent in the given geometry.

    Closed forms: identity (Euclidean); ||z||_1 * sign(z) (max norm, with
    sign(0) = +1); the largest-magnitude coordinate kept with its sign and
    all others zeroed, smallest index winning ties (one norm); z_i / w_i
    (weighted); and the blockwise-normalized vector scaled by the dual norm,
    zero blocks mapping to zero (block max).  The zero vector maps to the
    zero vector in every geometry.
    """
    z = np.asarray(z, dtype=float)
    _check_dim(kind, z.size)
    return _kernels(kind)[2](z, 1.0)


def gradient_density(z) -> float:
    """||z||_1^2 / (d ||z||_2^2), clamped into its analytic range [1/d, 1].

    The vector is prescaled by its largest magnitude so that extreme scales
    can neither overflow nor underflow the intermediate squares.
    """
    z = np.asarray(z, dtype=float)
    m = float(np.abs(z).max(initial=0.0))
    if m == 0.0:
        raise ValueError("gradient density undefined for the zero vector")
    u = z / m
    r = float(np.abs(u).sum()) / float(np.sqrt(np.dot(u, u)))
    d = z.size
    return min(max(r * r / d, 1.0 / d), 1.0)


def kind_from_json(obj) -> NormKind:
    if obj == "euclidean":
        return Euclidean()
    if obj == "max":
        return Max()
    if obj == "one":
        return One()
    if isinstance(obj, dict) and set(obj) == {"weighted"}:
        return WeightedDiag(tuple(map(json_number, obj["weighted"])))
    if isinstance(obj, dict) and set(obj) == {"blockmax"}:
        return BlockMax(BlockPartition(tuple(tuple(map(json_int, b)) for b in obj["blockmax"])))
    raise ValueError(f"unrecognized norm kind: {obj!r}")
