"""Differentiable benchmark problems with known optima.

Quadratics with a controlled spectrum and a tunable rotation away from the
coordinate axes, optionally with Gaussian gradient noise, plus a separable
cosh objective whose curvature grows with the gradient norm (the testbed
for the soft-normalized methods).  Both families attain their minimum value
of zero at the origin.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from ._record import record
from .matrices import SymMatrix, eigh, is_psd_spectrum, random_skew, rotated_hessian

__all__ = [
    "Oracle",
    "QuadraticProblem",
    "CoshProblem",
    "make_quadratic",
    "noisy_grad",
    "quad_oracle",
    "quad_noisy_oracle",
    "cosh_oracle",
    "COSH_GUARD",
    "NOISE_BLOCK",
    "OverflowGuardError",
]

# An oracle maps an iterate to (objective value, gradient).  Deterministic
# oracles are pure functions; stochastic ones own a seeded stream.
Oracle = Callable[[np.ndarray], tuple[float, np.ndarray]]

COSH_GUARD = 700.0
NOISE_BLOCK = 256  # noise rows quad_noisy_oracle draws at a time


class OverflowGuardError(ValueError):
    """An iterate lies beyond an objective's overflow guard.

    The runners in ``optimizers`` report it as divergence at the step whose
    iterate crossed the guard.
    """


@record
class QuadraticProblem:
    """f(x) = x' H x / 2 with positive semidefinite H; minimum 0 at x = 0.

    A step size is the reciprocal of a smoothness constant of H, which a
    caller takes from ``analysis.smoothness_constant`` for its geometry.
    """

    matrix: SymMatrix

    @classmethod
    def from_matrix(cls, H: SymMatrix) -> "QuadraticProblem":
        if not is_psd_spectrum(eigh(H).values):
            raise ValueError("quadratic problems require a positive semidefinite matrix")
        return cls(H)

    @property
    def dim(self) -> int:
        return self.matrix.dim


def make_quadratic(d: int, lambda_max: float, theta: float, seed) -> QuadraticProblem:
    """Quadratic with spectrum (1, ..., 1, lambda_max) rotated by theta.

    The rotation path is exp(theta * S) for a seeded Gaussian skew generator
    S; theta = 0 gives the axis-aligned diagonal matrix exactly and theta = 1
    a full-strength rotation.
    """
    if d < 2:
        raise ValueError(f"quadratic problems need d >= 2, got {d}")
    if not lambda_max >= 1.0:
        raise ValueError(f"lambda_max must be at least 1, got {lambda_max}")
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    rng = np.random.default_rng(seed)
    skew = random_skew(d, rng)
    eigs = np.concatenate([np.ones(d - 1), [float(lambda_max)]])
    return QuadraticProblem.from_matrix(rotated_hessian(eigs, skew, theta))


# The quadratic oracles are built by a private function: perfbench/layertrace.py
# counts the calls of every oracle the public factories return, and the exact
# oracle inside quad_noisy_oracle must not count twice.


def _quad_oracle(h: np.ndarray) -> Oracle:
    def oracle(x):
        x = np.asarray(x, dtype=float)
        g = h.dot(x)  # the bits of h @ x, in a cheaper call
        return 0.5 * float(x.dot(g)), g

    return oracle


def noisy_grad(p: QuadraticProblem, x, sigma: float, stream: np.random.Generator) -> np.ndarray:
    """Hx plus isotropic Gaussian noise of scale sigma from the given stream.

    A noise vector is drawn on every call (even for sigma = 0, which returns
    exactly Hx), so the stream position depends only on the call index.
    quad_noisy_oracle gives the same values call for call, but draws them
    ahead in blocks.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("noise scale must be nonnegative and finite")
    x = np.asarray(x, dtype=float)
    g = p.matrix.to_array().dot(x)
    xi = stream.standard_normal(p.dim)
    return g + sigma * xi


@record
class CoshProblem:
    """f(x) = sum_i (cosh(x_i) - 1) >= 0, minimum 0 at x = 0.

    Its Hessian is diag(cosh(x_i)), whose max-norm induced constant is
    sum_i cosh(x_i) <= d + sum_i |sinh(x_i)|; the objective therefore has
    curvature growing linearly with the dual gradient norm, with offsets
    (d, 1) in the max-norm geometry.
    """

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")


def quad_oracle(p: QuadraticProblem) -> Oracle:
    """Deterministic oracle: (x'Hx/2, Hx)."""
    return _quad_oracle(p.matrix.to_array())


def quad_noisy_oracle(p: QuadraticProblem, sigma: float, stream: np.random.Generator) -> Oracle:
    """Stochastic oracle: exact value, noisy gradient from the seeded stream.

    Call k returns the value of quad_oracle and the gradient that the k-th
    noisy_grad call on a fresh ``stream`` would return, with one product
    Hx per call.  The noise is drawn in (NOISE_BLOCK, d) blocks, which
    consume the stream exactly as that many single draws do, so the stream
    runs ahead of the calls by up to one block: it belongs to the oracle.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("noise scale must be nonnegative and finite")
    exact = _quad_oracle(p.matrix.to_array())

    def draws():
        while True:
            yield from sigma * stream.standard_normal((NOISE_BLOCK, p.dim))

    noise = draws()

    def oracle(x):
        f, g = exact(x)
        return f, g + next(noise)

    return oracle


_HALF = np.array(0.5)  # a 0-d operand is cheaper in a numpy call than a float


def cosh_oracle(p: CoshProblem) -> Oracle:
    """Deterministic oracle: (sum cosh(x_i) - d, sinh(x)).

    An iterate with some |x_i| > COSH_GUARD (700) raises OverflowGuardError
    instead of overflowing.  The value is computed as sum of 2 sinh(x_i/2)^2,
    which equals cosh(x_i) - 1 without cancellation near the optimum.
    """
    d = p.dim

    def oracle(x):
        x = np.asarray(x, dtype=float)
        if x.size != d:
            raise ValueError(f"expected dimension {d}, got {x.size}")
        if np.abs(x).max(initial=0.0) > COSH_GUARD:
            raise OverflowGuardError(f"coordinate magnitude exceeds overflow guard {COSH_GUARD:g}")
        half = np.sinh(_HALF * x)
        return 2.0 * float(half.dot(half)), np.sinh(x)

    return oracle
