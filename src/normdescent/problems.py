"""Differentiable benchmark problems with known optima.

A quadratic f(x) = x'Hx/2 is its positive semidefinite matrix H, a
SymMatrix, optionally with Gaussian gradient noise.  The quadratic family
of the benchmarks, spectrum (1, ..., 1, lambda_max) rotated away from the
coordinate axes by exp(theta * S), is built here, with its parameter
rules, for single runs and grids alike.
A step size is the reciprocal of a smoothness constant of H, which a
caller takes from ``analysis.smoothness_constant`` for its geometry.  A
separable cosh objective has curvature growing with the gradient norm
(the testbed for the soft-normalized methods).  Both families attain their
minimum value of zero at the origin.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable

import numpy as np

from ._record import record
from .matrices import SymMatrix, eigh, exp_skew, is_psd_spectrum, random_skew, rotate_spectrum

__all__ = [
    "Oracle",
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


def _check_family(d: int, lambda_max_values: Iterable[float] = (), theta_values: Iterable[float] = ()) -> None:
    """The parameter rules of the quadratic family: d >= 2, every lambda_max
    in [1, 1e8], every theta in [0, 1].  Above 1e8 the rotation's rounding,
    at the scale eps * lambda_max, moves the unit eigenvalues by more than
    about 6e-8 (6e-4 at 1e12, d up to 256): the matrix leaves the family."""
    if d < 2:
        raise ValueError(f"d must be at least 2, got {d}")
    for v in lambda_max_values:
        if not 1.0 <= v <= 1e8:
            raise ValueError(f"lambda_max must lie in [1, 1e8], got {v}")
    for v in theta_values:
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"theta must lie in [0, 1], got {v}")


class _QuadraticFamily:
    """The quadratic family in dimension d: the spike spectrum
    (1, ..., 1, lambda_max) rotated by exp(theta * S), for one Gaussian skew
    generator S drawn from ``seed``.  theta = 0 gives the axis-aligned
    diagonal matrix exactly and theta = 1 a full-strength rotation.  Each
    theta's rotation is built on first use and shared by every lambda_max.
    """

    def __init__(self, d: int, seed):
        _check_family(d)
        self.d = d
        self._skew = random_skew(d, np.random.default_rng(seed))
        self._rotations = {}

    def __call__(self, lambda_max: float, theta: float) -> SymMatrix:
        _check_family(self.d, (lambda_max,), (theta,))
        q = self._rotations.get(theta)
        if q is None:
            q = self._rotations[theta] = exp_skew(self._skew, theta)
        eigs = np.ones(self.d)
        eigs[-1] = lambda_max
        return rotate_spectrum(eigs, q)


def make_quadratic(d: int, lambda_max: float, theta: float, seed) -> SymMatrix:
    """Matrix with spectrum (1, ..., 1, lambda_max) rotated by theta: the
    quadratic family of ``seed`` at one point."""
    return _QuadraticFamily(d, seed)(lambda_max, theta)


# The quadratic oracles are built by a private function: perfbench/layertrace.py
# counts the calls of every oracle the public factories return, and the exact
# oracle inside quad_noisy_oracle must not count twice.


def _psd_array(H: SymMatrix) -> np.ndarray:
    """H's array, once H passes the package's positive semidefinite test:
    x'Hx/2 then has its minimum 0 at the origin."""
    if not is_psd_spectrum(eigh(H).eigenvalues):
        raise ValueError("quadratic problems require a positive semidefinite matrix")
    return H.to_array()


def _quad_oracle(h: np.ndarray) -> Oracle:
    def oracle(x):
        x = np.asarray(x, dtype=float)
        g = h.dot(x)  # the bits of h @ x, in a cheaper call
        return 0.5 * float(x.dot(g)), g

    return oracle


def noisy_grad(H: SymMatrix, x, sigma: float, stream: np.random.Generator) -> np.ndarray:
    """Hx plus isotropic Gaussian noise of scale sigma from the given stream.

    A noise vector is drawn on every call (even for sigma = 0, which returns
    exactly Hx), so the stream position depends only on the call index.
    quad_noisy_oracle gives the same values call for call, but draws them
    ahead in blocks.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite")
    x = np.asarray(x, dtype=float)
    g = H.to_array().dot(x)
    xi = stream.standard_normal(H.dim)
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


def quad_oracle(H: SymMatrix) -> Oracle:
    """Deterministic oracle: (x'Hx/2, Hx).  H must be positive semidefinite."""
    return _quad_oracle(_psd_array(H))


def _noise_draws(stream: np.random.Generator, sigma: float, shape: tuple[int, ...], block: int):
    """Per next(), sigma times the stream's next ``shape`` array of standard
    normals.  They are drawn ``block`` arrays at a time, which consumes the
    stream exactly as that many single draws do."""
    while True:
        yield from sigma * stream.standard_normal((block, *shape))


def quad_noisy_oracle(H: SymMatrix, sigma: float, stream: np.random.Generator) -> Oracle:
    """Stochastic oracle: exact value, noisy gradient from the seeded stream.

    Call k returns the value of quad_oracle and the gradient that the k-th
    noisy_grad call on a fresh ``stream`` would return, with one product
    Hx per call.  The noise is drawn in (NOISE_BLOCK, d) blocks, which
    consume the stream exactly as that many single draws do, so the stream
    runs ahead of the calls by up to one block: it belongs to the oracle.
    H must be positive semidefinite.
    """
    if not 0.0 <= sigma < math.inf:
        raise ValueError("sigma must be nonnegative and finite")
    exact = _quad_oracle(_psd_array(H))
    noise = _noise_draws(stream, sigma, (H.dim,), NOISE_BLOCK)

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
