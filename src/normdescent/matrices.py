"""Dense symmetric linear algebra for the Hessians of the analysis.

Symmetric matrices stored as one validated read-only array, the
eigendecomposition (LAPACK, through ``numpy.linalg.eigh``; every
eigensolve of the package goes through ``eigh`` here), skew-symmetric
generators and their exponentials (smooth one-parameter orthogonal paths),
spectrum-preserving conjugation for building test Hessians, and parsing
of the matrix text format.
"""

from __future__ import annotations

import math

import numpy as np

from ._record import readonly, record

__all__ = [
    "SymMatrix",
    "SkewMatrix",
    "OrthogonalMatrix",
    "MatrixFormatError",
    "eigh",
    "is_psd_spectrum",
    "random_skew",
    "exp_skew",
    "rotate_spectrum",
    "parse_matrix_text",
]

ORTHOGONALITY_TOL = 1e-10
TEXT_SYMMETRY_TOL = 1e-12
PSD_TOL = 1e-10  # the relative tolerance of the package's positive semidefinite test, is_psd_spectrum


class MatrixFormatError(ValueError):
    """Matrix text input is malformed, non-finite, or asymmetric."""


class SymMatrix:
    """Real symmetric d x d matrix, held as one read-only array.

    The constructor averages its input with its transpose, halving before
    adding when the sum overflows.  Floating-point addition is
    commutative, so entry (i, j) and entry (j, i) are the same
    float by construction rather than by convention.  Instances are
    immutable.
    """

    __slots__ = ("dim", "_a")

    def __init__(self, a):
        """Build from a square array, averaging A with its transpose.

        Averaging removes rounding-scale asymmetry from upstream matrix
        products; callers that must reject asymmetric input validate before
        calling (see :func:`parse_matrix_text`).
        """
        a = np.asarray(a, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise ValueError(f"expected a non-empty square matrix, got shape {a.shape}")
        with np.errstate(over="ignore", invalid="ignore"):
            sym = 0.5 * (a + a.T)
        if not np.isfinite(sym).all():
            if not np.isfinite(a).all():
                raise ValueError("matrix entries must be finite")
            sym = 0.5 * a + 0.5 * a.T  # a + a.T overflowed: halving first cannot, and is as symmetric
        self.dim = a.shape[0]
        self._a = readonly(sym)

    def to_array(self) -> np.ndarray:
        """The full dense matrix (read-only)."""
        return self._a

    def __repr__(self) -> str:
        return f"SymMatrix(dim={self.dim})"


@record
class SkewMatrix:
    """Real d x d matrix with entries(i, j) == -entries(j, i), zero diagonal."""

    entries: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if not np.array_equal(a.T, -a):
            raise ValueError("matrix is not skew-symmetric")
        object.__setattr__(self, "entries", readonly(a.copy()))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@record
class OrthogonalMatrix:
    """Real square matrix with max |Q'Q - I| at most 1e-10."""

    entries: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.entries, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {q.shape}")
        resid = np.abs(q.T @ q - np.eye(q.shape[0])).max()
        if not resid <= ORTHOGONALITY_TOL:
            raise ValueError(f"matrix is not orthogonal: residual {resid:.3e}")
        object.__setattr__(self, "entries", readonly(q.copy()))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def eigh(H: SymMatrix):
    """``numpy.linalg.eigh`` of H, with both arrays read-only: eigenvalues
    in ascending order, and orthonormal eigenvector columns, from LAPACK's
    symmetric solver."""
    dec = np.linalg.eigh(H.to_array())
    readonly(dec.eigenvalues)
    readonly(dec.eigenvectors)
    return dec


def is_psd_spectrum(values: np.ndarray) -> bool:
    """The package's positive semidefinite test, on ascending eigenvalues:
    lambda_min >= -PSD_TOL * max(1, |lambda_max|).

    The tolerance scales with the spectrum, since the eigensolver's error
    in lambda_min does: a rotated PSD matrix with lambda_max = 1e17 can
    show a lambda_min of about -1e2.
    """
    return bool(values[0] >= -PSD_TOL * max(1.0, abs(float(values[-1]))))


def random_skew(d: int, rng: np.random.Generator) -> SkewMatrix:
    """Gaussian skew generator, rescaled to a largest singular value of pi.

    The strictly-upper entries are i.i.d. standard normal and the lower
    triangle is the negated mirror.  Normalizing the top singular value to
    pi makes a unit-time rotation comparably large across seeds and
    dimensions.
    """
    if d < 2:
        raise ValueError(f"random_skew requires d >= 2, got {d}")
    upper = np.zeros((d, d))
    iu = np.triu_indices(d, 1)
    upper[iu] = rng.standard_normal(iu[0].size)
    s = upper - upper.T
    top = float(np.linalg.norm(s, 2))
    if top == 0.0:
        raise ValueError("degenerate zero draw for skew generator")
    return SkewMatrix(s * (math.pi / top))


def exp_skew(S: SkewMatrix, theta: float) -> OrthogonalMatrix:
    """exp(theta * S) in closed form, from one symmetric eigendecomposition.

    S is normal, so exp(theta * S) is a function of S's spectrum: with
    S S = W diag(-mu^2) W' (LAPACK, through eigh),
    exp(theta * S) = W diag(cos(theta mu)) W' + S W diag(sin(theta mu) / mu) W',
    the even and odd parts of the exponential series, with sin(theta mu) / mu
    = theta at mu = 0.  Both are functions of S S alone, so they do not
    depend on the eigenbasis LAPACK picks inside a repeated -mu^2, and every
    nonzero one is repeated: S's eigenvalues come in pairs +-i mu.
    theta = 0 gives the identity exactly.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError("theta must be finite")
    if theta == 0.0:
        return OrthogonalMatrix(np.eye(S.dim))
    s = S.entries
    dec = eigh(SymMatrix(s @ s))
    mu = np.sqrt(np.maximum(-dec.eigenvalues, 0.0))  # S S is negative semidefinite up to rounding
    w = dec.eigenvectors
    even = (w * np.cos(theta * mu)) @ w.T
    odd = (w * (theta * np.sinc(theta * mu / math.pi))) @ w.T
    return OrthogonalMatrix(even + s @ odd)


def rotate_spectrum(eigs, Q: OrthogonalMatrix) -> SymMatrix:
    """Q diag(eigs) Q', symmetrized by averaging.

    The averaging only removes rounding-scale skew from the two matrix
    products; the spectrum equals ``eigs`` up to the same rounding.  Several
    spectra under one rotation share one Q.
    """
    lam = np.asarray(eigs, dtype=float)
    if lam.ndim != 1 or lam.size != Q.dim:
        raise ValueError("eigenvalue list does not match the rotation dimension")
    if not np.isfinite(lam).all() or (lam < 0.0).any():
        raise ValueError("eigenvalues must be finite and nonnegative")
    q = Q.entries
    return SymMatrix((q * lam[None, :]) @ q.T)


def parse_matrix_text(text: str) -> SymMatrix:
    """Parse the shared matrix text format.

    Line 1 holds d; the next d lines hold d whitespace-separated decimal
    numbers each.  Asymmetry beyond 1e-12 (absolute) is rejected; smaller
    asymmetry is averaged away.
    """
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatrixFormatError("empty matrix file")
    try:
        d = int(lines[0])
    except ValueError:
        raise MatrixFormatError(f"first line must be the dimension, got {lines[0]!r}") from None
    if d < 1:
        raise MatrixFormatError(f"dimension must be positive, got {d}")
    if len(lines) != d + 1:
        raise MatrixFormatError(f"expected {d} matrix rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != d:
            raise MatrixFormatError(f"expected {d} entries per row, got {len(parts)}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise MatrixFormatError(f"non-numeric entry in row: {ln!r}") from None
    a = np.array(rows)
    if not np.isfinite(a).all():
        raise MatrixFormatError("matrix entries must be finite")
    asym = float(np.abs(a - a.T).max())
    if asym > TEXT_SYMMETRY_TOL:
        raise MatrixFormatError(f"matrix asymmetry {asym:.3e} exceeds {TEXT_SYMMETRY_TOL}")
    return SymMatrix(a)
