"""Vector norms, dual norms, and the steepest-descent direction operator.

The operator P maps a gradient z to argmax_x (<z, x> - ||x||^2 / 2).  Its
closed form per norm turns one descent template into gradient descent
(Euclidean), sign descent (max norm), greedy coordinate descent (one norm),
per-coordinate scaling (weighted norm), and block-normalized descent
(block-max norm).

Each norm kind owns its geometry as three methods, the only code that
knows it.  They take float arrays whose last axis has the kind's dimension
``dim``, if it has one, and check nothing: their callers, here and the
runners of optimizers, call _check first.  ``norm(x)`` is the norm of a
vector x, a float; ``dual_rows(X)`` the dual norms of the rows of an
(n, d) array X, and a vector's dual norm that of its one-row view; and
``step(g, c, dual=None)`` is P(g)/c along the last axis of g, using
dual = ||g||* when the caller has it.  For a vector g, c is a positive
float or 0-d array, and a float when dual (a float) is given, as a
quotient of Python floats is the cheaper.  The Euclidean and max steps
also take a (K, R, d) stack, with c of shape (K, 1, 1).
"""

from __future__ import annotations

import math
from typing import Union

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


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b, as a stack of
    (1, d) @ (d, 1) products: they round like np.dot on each row (a row sum
    of elementwise products does not)."""
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


@record
class Euclidean:
    norm = staticmethod(_l2)
    dual_rows = staticmethod(_l2_rows)

    def step(self, g, c, dual=None):
        return g / c


@record
class Max:
    def norm(self, x):
        return float(np.abs(x).max())

    def dual_rows(self, X):
        return np.add.reduce(np.abs(X), axis=-1)

    def step(self, g, c, dual=None):
        # P(g) = ||g||_1 sign(g), and a product with +-1 is exact, so
        # sign(g) * (||g||_1 / c) has the bits of P(g)/c with one array operation
        # fewer; a quotient of exactly 1.0 (c = ||g||_1 in normalized descent) needs none
        if dual is None:
            if g.ndim > 1:
                return sign_unit(g) * (np.add.reduce(np.abs(g), axis=-1, keepdims=True) / c)
            dual, c = float(self.dual_rows(g)), float(c)
        scale = dual / c
        return sign_unit(g) if scale == 1.0 else sign_unit(g) * np.array(scale)


@record
class One:
    def norm(self, x):
        return float(np.abs(x).sum())

    def dual_rows(self, X):
        return np.abs(X).max(axis=-1)

    def step(self, g, c, dual=None):
        # only the largest |g_i|, the first on a tie, is kept: one quotient, not d
        i = np.abs(g).argmax()
        out = np.zeros(g.shape)
        out[i] = g[i] / float(c)
        return out


@record
class WeightedDiag:
    """sqrt(sum_i w_i x_i^2) with strictly positive weights.

    ``w`` and ``root``, the weights and their square roots as read-only
    arrays, are built once, with the kind, and are no fields.
    """

    weights: tuple[float, ...]
    _MISMATCH = "weight vector has length {}, expected {}"
    dim = property(lambda self: len(self.weights))

    def __post_init__(self):
        w = tuple(float(x) for x in self.weights)
        if not w or any(not np.isfinite(x) or x <= 0.0 for x in w):
            raise ValueError("weights must be finite and strictly positive")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "w", _frozen(np.array(w)))
        object.__setattr__(self, "root", _frozen(np.sqrt(self.w)))

    def norm(self, x):
        r = math.sqrt(np.dot(self.w * x, x))
        # rescaled only when the squares overflow or lose bits
        return _l2(self.root * x) if not _L2_TINY <= r < math.inf else r

    def dual_rows(self, X):
        r = np.sqrt(_row_dots(X / self.w, X))
        rescale = (r < _L2_TINY) | (r == math.inf)
        if rescale.any():
            r[rescale] = _l2_rows(X[rescale] / self.root)
        return r

    def step(self, g, c, dual=None):
        return g / self.w / c


@record
class BlockMax:
    """The largest Euclidean norm of a block; the dual norm sums them."""

    partition: BlockPartition
    _MISMATCH = "partition covers {} indices, expected {}"
    dim = property(lambda self: self.partition.dim)

    def norm(self, x):
        return max(_l2(x[i]) for i in self.partition.index)

    def dual_rows(self, X):
        out = np.zeros(X.shape[0])
        for i in self.partition.index:
            # _row_dots rounds an F-ordered gather (what X[:, i] gives for an integer
            # index) unlike one row's np.dot; a C-ordered block rounds like _l2 of the block
            out += _l2_rows(np.ascontiguousarray(X[:, i]))
        return out

    def step(self, g, c, dual=None):
        block_norms = [_l2(g[i]) for i in self.partition.index]
        total = sum(block_norms) if dual is None else dual
        out = np.zeros(g.shape)
        for i, nb in zip(self.partition.index, block_norms):
            if nb > 0.0:
                scale = total / nb
                # g[i] / nb is at most 1 in magnitude, so this order cannot overflow a finite result
                out[i] = g[i] * np.array(scale) if scale < math.inf else g[i] / nb * total
        return out / c


NormKind = Union[Euclidean, Max, One, WeightedDiag, BlockMax]


def _check(kind, d: int | None = None) -> None:
    """TypeError unless kind is a norm kind, ValueError if it has a dimension other than d."""
    if not isinstance(kind, NormKind):
        raise TypeError(f"unknown norm kind: {kind!r}")
    if d is not None and getattr(kind, "dim", d) != d:
        raise ValueError(kind._MISMATCH.format(kind.dim, d))


def norm(x, kind: NormKind) -> float:
    x = np.asarray(x, dtype=float)
    _check(kind, x.size)
    return kind.norm(x)


def dual_norm(x, kind: NormKind) -> float:
    """The dual norm of the vector x: dual_norm_rows of its one-row view."""
    return float(dual_norm_rows(np.reshape(x, (1, -1)), kind)[0])


def dual_norm_rows(X, kind: NormKind) -> np.ndarray:
    """dual_norm of every row of the (n, d) array X, as an (n,) array."""
    X = np.asarray(X, dtype=float)
    _check(kind, X.shape[1])
    return kind.dual_rows(X)


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
    _check(kind, z.size)
    return kind.step(z, 1.0)


def _partition_from_json(blocks) -> BlockPartition:
    """BlockPartition from a JSON list of index lists, else TypeError; the
    partition's own ValueError (overlap, gaps, empty blocks) passes through."""
    try:
        indices = tuple(tuple(map(json_int, b)) for b in blocks)
    except TypeError as exc:
        raise TypeError(f"must be a list of index lists, got {blocks!r}") from exc
    return BlockPartition(indices)


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
        return BlockMax(_partition_from_json(obj["blockmax"]))
    raise ValueError(f"unrecognized norm kind: {obj!r}")
