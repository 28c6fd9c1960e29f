"""Hessian geometry for sign-based methods.

Computes the exact max-norm smoothness constant of a quadratic (from its
column sign patterns, else by sign enumeration), the diagonal-concentration
ratio, an eigenvalue-based upper bound and a sign-vector lower bound on
that constant, the row-sum separable surrogate, and an upper bound for the
block-max geometry.
"""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np

from ._record import readonly, record
from .matrices import SymMatrix, eigh, is_psd_spectrum
from .norms import (
    BlockPartition,
    Euclidean,
    Max,
    NormKind,
    One,
    WeightedDiag,
    _check,
    sign_unit,
)

__all__ = [
    "BRUTE_FORCE_CAP",
    "SmoothnessReport",
    "linf_bruteforce",
    "rho_diag",
    "lsep_rowsum",
    "smoothness_constant",
    "analyze",
]

BRUTE_FORCE_CAP = 24
_TABLE_BITS = 13  # low-coordinate sign table: d x 2^13 doubles, 1.5 MB at d = 24


@record
class SmoothnessReport:
    """Smoothness constants and bounds of a quadratic with matrix H.

    ``L2`` is the largest-magnitude eigenvalue and ``Linf_exact`` the exact
    max-norm constant (absent when it has no certificate and d exceeds the
    brute-force cap).
    ``bound_psd`` is the concentration bound sum(lambda) / rho_diag
    (positive semidefinite input only), ``bound_sym`` the eigenspace-weighted
    bound, ``lower_bound`` the best ||H s||_1 over the sign patterns of H's
    columns and of one column of an eigenspace projector per eigenvalue, and
    ``lsep_rowsum`` the row-sum separable surrogate, which for a positive
    definite 2x2 [[a, b], [b, d]] is its exact separable constant
    a + d + 2|b|.
    """

    L2: float
    Linf_exact: float | None
    rho_diag: float
    bound_psd: float | None
    bound_sym: float
    lower_bound: float
    lsep_rowsum: float
    ratio_dL2_over_Linf: float | None

    def to_json_dict(self) -> dict[str, float]:
        """Flat dict in field order; absent optionals omitted."""
        out = {}
        for name in SmoothnessReport.__annotations__:
            value = getattr(self, name)
            if value is not None:
                out[name] = float(value)
        return out


def linf_bruteforce(H: SymMatrix) -> float:
    """Exact max over sign vectors s of ||H s||_1.

    The induced norm's maximum over the unit max-norm ball is attained at
    sign vectors, so enumerating them is exact.  No ||H s||_1 exceeds the
    row-sum bound sum_ij |H_ij| (the total of lsep_rowsum), so a sign vector
    that reaches it within 1e-9 relative ends the search.  The result is
    clamped to that total, which a sum in another order can exceed by an
    ulp, so it never exceeds what lsep_rowsum reports.

    Before any enumeration, _pattern_best tries the d sign patterns of H's
    own columns (sign_unit, so sign(0) = +1) with one d x d product,
    O(d^3).  The best of their ||H s||_1 is returned when it reaches the
    bound.  That closes the paper's family I + (lambda - 1) u u'
    (every column has the pattern of +-u, and ||H sign(u)||_1 =
    sum_ij |H_ij|), every diagonal H and the rotated identity at any d,
    which then build no sign table.  Otherwise the walk below runs from
    scratch, and a d above BRUTE_FORCE_CAP raises ValueError instead.

    Since ||H(-s)||_1 = ||H s||_1, the walk fixes the last coordinate at
    +1, leaving 2^(d-1) vectors.  The low k = min(d-1, 13) coordinates give
    the d x 2^k table T = H_low S_low of all their sign patterns (1.5 MB at
    d = 24, so it stays in cache).  Each sign pattern s_j of the other
    coordinates, with the last at +1, gives the column z_j = H_high s_j +
    H_last, and block j holds the 2^k products T + z_j.  Row r of block j
    lies between min_c T[r,c] + z_j[r] and max_c T[r,c] + z_j[r]; rounding
    is monotone, so the sum over r of the larger of their magnitudes bounds
    every computed ||H s||_1 of the block.  Blocks are visited in descending
    bound, and the walk stops at the first bound below the best value
    found, or once the best value reaches the row-sum bound as above; the
    result is then the maximum to within 1e-9 relative.  In the worst case,
    where neither test fires, all 2^(d-1) vectors are evaluated.
    """
    d = H.dim
    a = H.to_array()
    k = min(d - 1, _TABLE_BITS)
    total = lsep_rowsum(H)[1]
    best = _pattern_best(a, a)
    if best * (1.0 + 1e-9) >= total:
        return min(best, total)
    if d > BRUTE_FORCE_CAP:
        raise ValueError(
            f"dimension too large for exact norm: d={d} exceeds cap {BRUTE_FORCE_CAP}"
        )
    table = a[:, :k] @ _sign_table(k)  # d x 2^k
    z = a[:, k : d - 1] @ _sign_table(d - 1 - k) + a[:, d - 1 :]  # d x blocks
    t_max = table.max(axis=1)[:, None]
    t_min = table.min(axis=1)[:, None]
    bound = np.maximum(np.abs(t_max + z), np.abs(t_min + z)).sum(axis=0)
    buf = np.empty_like(table)
    best = -math.inf
    for j in np.argsort(-bound):
        # rounding of the sums is far below 1e-9
        if bound[j] * (1.0 + 1e-9) < best or best * (1.0 + 1e-9) >= total:
            break
        np.add(table, z[:, j : j + 1], out=buf)
        np.abs(buf, out=buf)
        best = max(best, float(buf.sum(axis=0).max()))
    return min(best, total)


def _pattern_best(a: np.ndarray, c: np.ndarray) -> float:
    """Largest ||H s||_1 over the patterns s = sign_unit of c's columns, each
    flipped to end in +1 and summed as in the walk, so that a pattern the
    walk would settle on keeps the walk's bits."""
    d = a.shape[0]
    k = min(d - 1, _TABLE_BITS)
    s = sign_unit(c)
    s *= s[d - 1]
    hs = a[:, :k] @ s[:k] + (a[:, k : d - 1] @ s[k : d - 1] + a[:, d - 1 :])
    return float(np.abs(hs).sum(axis=0).max())


def _sign_table(n: int) -> np.ndarray:
    """n x 2^n matrix whose columns are all sign vectors of length n."""
    cols = np.arange(1 << n)
    return 1.0 - 2.0 * ((cols[None, :] >> np.arange(n)[:, None]) & 1)


def rho_diag(H: SymMatrix) -> float:
    """Diagonal concentration: sum_i |H_ii| / sum_ij |H_ij|, in [1/d, 1]."""
    a = np.abs(H.to_array())
    total = float(a.sum())
    if total == 0.0:
        raise ValueError("diagonal concentration undefined for the zero matrix")
    return float(np.trace(a)) / total


def _eigen_groups(values: np.ndarray) -> list[np.ndarray]:
    """Index groups of the ascending eigenvalues: neighbours that differ by
    at most 1e-12 * L2 share a group."""
    tol = 1e-12 * max(abs(values[0]), abs(values[-1]))
    return np.split(np.arange(values.size), np.flatnonzero(np.diff(values) > tol) + 1)


def _eigenspace_bound(values: np.ndarray, vectors: np.ndarray, l1: np.ndarray) -> float:
    """sum_k |c_k| sum_ij |P_k,ij| + r_k d over the eigenvalue groups k.

    Each group of _eigen_groups has projector P_k = V_k V_k', midpoint c_k
    and half-width r_k.  P_k does not depend on the basis the solver picks
    inside an eigenspace, so neither does the bound.  It bounds Linf because
    |t' V_k (Lambda_k - c_k) V_k' s| <= r_k ||t|| ||s|| = r_k d for sign
    vectors s and t.  Since sum_ij |P_k,ij| <= sum_{l in k} ||v_l||_1^2,
    group k adds at most r_k (d + sum_{l in k} ||v_l||_1^2) more than the
    per-basis sum_{l in k} |lambda_l| ||v_l||_1^2.  A group of one
    eigenvalue adds exactly |lambda_l| ||v_l||_1^2 (``l1`` holds the
    ||v_l||_1), so only repeated eigenvalues pay for a d x d projector.
    """
    d = values.size
    terms = np.abs(values) * l1 * l1
    for group in _eigen_groups(values):
        if group.size > 1:
            lo, hi = values[group[0]], values[group[-1]]
            v = vectors[:, group]
            terms[group] = 0.0
            terms[group[0]] = abs(0.5 * (lo + hi)) * float(np.abs(v @ v.T).sum()) + 0.5 * (hi - lo) * d
    return float(terms.sum())


def _sign_lower_bound(a: np.ndarray, values: np.ndarray, vectors: np.ndarray) -> float:
    """_pattern_best over the columns of H and, per group of m eigenvalues
    from _eigen_groups, the m columns of P_k = V_k V_k' with the largest
    diagonal: one d x 2d product however many groups there are.

    The value never exceeds Linf, and P_k does not depend on the basis the
    solver picks, so neither does the value (save for a diagonal tie across
    the cut).  Projector entries at most 1e-12 times their column's largest
    are rounded zeros, set to 0 so that their sign cannot pick the pattern
    (the projectors of kron(A, I_2) are half zeros).  A column w of P_k lies
    in the eigenspace, so w'H sign(w) = lambda ||w||_1 and the value is at
    least |lambda| ||w||_1 / ||w||_inf: for a simple eigenvalue, w = v_i v
    with |v_i| largest, the alignment ratio of v.
    """
    columns = [a]
    for group in _eigen_groups(values):
        v = vectors[:, group]
        rows = np.argsort(-np.square(v).sum(axis=1), kind="stable")[: group.size]
        w = v @ v[rows].T
        w[np.abs(w) <= 1e-12 * np.abs(w).max(axis=0)] = 0.0  # rounding of zeros
        columns.append(w)
    return _pattern_best(a, np.hstack(columns))


def lsep_rowsum(H: SymMatrix) -> tuple[np.ndarray, float]:
    """Row-sum separable surrogate: l_i = sum_j |H_ij|, and its total.

    diag(l) - H is diagonally dominant with nonnegative diagonal, hence
    positive semidefinite, so l is always a feasible per-coordinate bound.
    """
    l = readonly(np.abs(H.to_array()).sum(axis=1))
    return l, float(l.sum())


def _block_bound(a: np.ndarray, partition: BlockPartition) -> float:
    """Upper bound on the block-max constant of any symmetric H: the sum of
    ||H_bc||_2 over all block pairs, sum_b ||H_bb||_2 + 2 sum_{b<c} ||H_bc||_2.
    When every block of x and y has Euclidean norm at most 1,
    y'Hx = sum_bc y_b' H_bc x_c <= sum_bc ||H_bc||_2.  Blocks of one index
    give the row-sum total sum_ij |H_ij|, and a single block gives L2."""
    idx = [list(b) for b in partition.blocks]
    diag = sum(float(np.linalg.norm(a[np.ix_(b, b)], 2)) for b in idx)
    off = sum(float(np.linalg.norm(a[np.ix_(b, c)], 2)) for b, c in combinations(idx, 2))
    return diag + 2.0 * off


def smoothness_constant(H: SymMatrix, kind: NormKind) -> float:
    """Gradient-map Lipschitz constant of f(x) = x'Hx/2 in the given geometry.

    Exact for the Euclidean (largest |eigenvalue|), max (linf_bruteforce;
    ValueError where it needs a walk above the brute-force cap), one
    (largest |entry|), and weighted (the Euclidean constant of
    D^(-1/2) H D^(-1/2)) geometries.  For block-max geometry the exact
    constant has no finite enumeration; the sum of H's block norms
    (_block_bound) is returned, a valid Lipschitz constant for any
    symmetric H.  A kind whose dimension is not H's raises the runners'
    ValueError (norms._check), and a constant that overflows raises
    ValueError.
    """
    value = _smoothness_value(H, kind)
    if not math.isfinite(value):
        raise ValueError("smoothness constant overflows: matrix entries too large")
    return value


def _smoothness_value(H: SymMatrix, kind: NormKind) -> float:
    _check(kind, H.dim)
    a = H.to_array()
    if isinstance(kind, Euclidean):
        values = eigh(H).eigenvalues
        return float(max(abs(values[0]), abs(values[-1])))
    if isinstance(kind, Max):
        return linf_bruteforce(H)
    if isinstance(kind, One):
        return float(np.abs(a).max())
    if isinstance(kind, WeightedDiag):
        return _smoothness_value(SymMatrix(a / kind.root[:, None] / kind.root[None, :]), Euclidean())
    # the one kind left after _check: BlockMax
    return _block_bound(a, kind.partition)


def analyze(H: SymMatrix) -> SmoothnessReport:
    """Full smoothness report for a symmetric matrix.

    ``Linf_exact`` and the derived ratio are omitted where linf_bruteforce
    raises its cap error.  On positive semidefinite H, tr H = sum_i |H_ii|,
    so sum(lambda) / rho_diag equals sum_ij |H_ij|: ``bound_psd`` is the
    total of lsep_rowsum, which Linf_exact never exceeds.  ``bound_sym`` is
    clamped to at least Linf_exact, and ``lower_bound`` to at most Linf_exact
    (else the row-sum total), which their rounding can miss by an ulp.
    The zero matrix is rejected (its concentration ratio is undefined),
    and so is a matrix whose report holds a value that is not finite (its
    sums overflow).
    """
    values, vectors = eigh(H)
    L2 = float(max(abs(values[0]), abs(values[-1])))
    rho = rho_diag(H)
    bound_sym = _eigenspace_bound(values, vectors, np.abs(vectors).sum(axis=0))
    lower = _sign_lower_bound(H.to_array(), values, vectors)
    _, total = lsep_rowsum(H)
    # a nonzero matrix with zero diagonal is indefinite
    bound_psd = total if is_psd_spectrum(values) and rho > 0.0 else None

    try:
        linf_exact = linf_bruteforce(H)
    except ValueError:  # no certificate, and d above the brute-force cap
        linf_exact = None
    if linf_exact is not None:
        bound_sym = max(bound_sym, linf_exact)
    lower = min(lower, total if linf_exact is None else linf_exact)
    ratio = H.dim * L2 / linf_exact if linf_exact else None

    report = SmoothnessReport(
        L2=L2,
        Linf_exact=linf_exact,
        rho_diag=rho,
        bound_psd=bound_psd,
        bound_sym=bound_sym,
        lower_bound=lower,
        lsep_rowsum=total,
        ratio_dL2_over_Linf=ratio,
    )
    for name, value in report.to_json_dict().items():
        if not math.isfinite(value):
            raise ValueError(f"{name} overflows: matrix entries too large")
    return report
