"""Dense complex matrix kernel: tolerance policy, predicates, rank, staircase.

Every matrix in this package is a validated 2-D ``numpy.complex128`` array.
All approximate decisions (rank, equality, nilpotency, zero products) are
governed by a single :class:`TolerancePolicy` so that results are reproducible
from the policy alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import islice

import numpy as np
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import (
    _raise_linalgerror_singular,
    _raise_linalgerror_svd_nonconvergence,
)

__all__ = [
    "DimensionError",
    "TolerancePolicy",
    "DEFAULT_POLICY",
    "as_matrix",
    "frobenius",
    "rel_residual",
    "numerical_rank",
    "approx_equal",
    "same_column_space",
    "is_nilpotent",
    "scaled_power",
    "power_rank_chain",
    "product_with_scale",
    "zero_product",
    "is_nilpotent_product",
]


class DimensionError(ValueError):
    """Shapes do not conform for the requested operation."""


@dataclass(frozen=True)
class TolerancePolicy:
    """Relative thresholds for rank, equality and certificate decisions.

    rank_rel_tol: singular values below ``rank_rel_tol * sigma_max`` count as
        zero.
    eq_rel_tol: relative Frobenius threshold for matrix equality.
    residual_tol: acceptance threshold for defining-equation residuals.
    """

    rank_rel_tol: float = 1e-10
    eq_rel_tol: float = 1e-8
    residual_tol: float = 1e-8

    def __post_init__(self):
        for name in ("rank_rel_tol", "eq_rel_tol", "residual_tol"):
            value = getattr(self, name)
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must lie in [0, 1), got {value!r}")


DEFAULT_POLICY = TolerancePolicy()


# LAPACK kernel.  Every SVD, solve and inverse in the package goes through
# these functions.  Each calls, for a 2-D complex128 input, the gufunc that
# ``np.linalg.svd``/``solve``/``inv`` call, with the same signature and
# inside the same ``np.errstate``; so the result is the same bits, a
# LinAlgError carries numpy's message, and no new warning escapes.  What is
# skipped is numpy's per-call wrapper: dispatch, type resolution and result
# wrapping, which cost about as much as LAPACK at n <= 16.

def _svd_errstate():
    return np.errstate(call=_raise_linalgerror_svd_nonconvergence,
                       invalid="call", over="ignore", divide="ignore",
                       under="ignore")


def _singular_errstate():
    return np.errstate(call=_raise_linalgerror_singular, invalid="call",
                       over="ignore", divide="ignore", under="ignore")


def _svd(M, full=True):
    """``np.linalg.svd(M, full_matrices=full)`` as a plain (U, s, Vh)."""
    gufunc = _umath_linalg.svd_f if full else _umath_linalg.svd_s
    with _svd_errstate():
        return gufunc(M, signature="D->DdD")


def _svdvals(M):
    """``np.linalg.svd(M, compute_uv=False)``."""
    with _svd_errstate():
        return _umath_linalg.svd(M, signature="D->d")


def _solve(A, B):
    """``np.linalg.solve(A, B)`` for a 2-D right-hand side B."""
    with _singular_errstate():
        return _umath_linalg.solve(A, B, signature="DD->D")


def _inv(A):
    """``np.linalg.inv(A)``."""
    with _singular_errstate():
        return _umath_linalg.inv(A, signature="D->D")


@functools.lru_cache(maxsize=32)
def _eye(n):
    """The n x n complex128 identity, shared and read-only."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


def as_matrix(data) -> np.ndarray:
    """Validate and coerce ``data`` to a 2-D complex128 matrix.

    Raises DimensionError for non-2-D input and ValueError for non-finite
    entries.
    """
    A = np.asarray(data, dtype=np.complex128)
    if A.ndim != 2:
        raise DimensionError(f"expected a 2-D matrix, got ndim={A.ndim}")
    if A.size and not np.isfinite(A).all():
        raise ValueError("matrix entries must all be finite")
    return A


def _require_square(A) -> np.ndarray:
    """:func:`as_matrix` that also rejects non-square input."""
    A = as_matrix(A)
    if A.shape[0] != A.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {A.shape}")
    return A


def frobenius(A) -> float:
    """Frobenius norm, bit for bit ``np.linalg.norm(A)``.

    For a complex128 array this is numpy's own formula, inlined to skip the
    dispatch: the squared norms of the real and imaginary parts of the
    K-order ravel, summed, then the square root.
    """
    if type(A) is np.ndarray and A.dtype == np.complex128:
        x = A.ravel(order="K")
        xr, xi = x.real, x.imag
        return math.sqrt(xr.dot(xr) + xi.dot(xi))
    return float(np.linalg.norm(A))


def rel_residual(X, Y) -> float:
    """``||X - Y||_F / max(1, ||Y||_F)`` - the package-wide residual scale."""
    return frobenius(np.asarray(X) - np.asarray(Y)) / max(1.0, frobenius(Y))


def _rank_cut(s, rtol: float) -> int:
    """Count of the descending singular values ``s`` above ``rtol * s[0]``;
    0 for an empty or all-zero spectrum.  The one rank decision."""
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def numerical_rank(A, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Count of singular values above ``rank_rel_tol`` times the largest."""
    A = as_matrix(A)
    if A.size == 0:
        return 0
    return _rank_cut(_svdvals(A), tol.rank_rel_tol)


def _staircase(A, tol):
    """Core-EP decomposition of a square A by unitary staircase deflation.

    Returns (ranks, Q, M): Q unitary, M = Q* A Q = [[T, S], [0, N]] with
    T = M[:r, :r] nonsingular and N nilpotent, and ``ranks`` the ranks of
    A^0, ..., A^k, so k = len(ranks) - 1 and r = ranks[-1] (Kublanovskaya
    1966; Golub and Wilkinson 1976).  Each step rotates the left singular
    vectors of the leading block into place, and its rows whose singular
    values fall to ``rank_rel_tol * ||A||_2`` or below are set to zero.  The
    cut is absolute, not relative to a power of A that a small core
    eigenvalue makes small.  The last, nonsingular block is rotated too:
    that grades its rows, and the refined inverse of T then reaches the
    rounding floor, where in an ungraded basis its second step can undo the
    first by a factor of cond(T).
    """
    n = A.shape[0]
    Q = np.eye(n, dtype=np.complex128)
    M = A.copy()
    ranks, cut = [n], None
    while ranks[-1]:
        m = ranks[-1]
        U, s, _ = _svd(M[:m, :m])
        if cut is None:
            cut = tol.rank_rel_tol * s[0]
        r = int(np.count_nonzero(s > cut))
        Q[:, :m] = Q[:, :m] @ U
        M[:m] = U.conj().T @ M[:m]
        M[:, :m] = M[:, :m] @ U
        if r == m:
            break
        M[r:m, :m] = 0.0
        ranks.append(r)
    return ranks, Q, M


def approx_equal(A, B, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionError(f"cannot compare shapes {A.shape} and {B.shape}")
    bound = tol.eq_rel_tol * max(1.0, frobenius(A), frobenius(B))
    return frobenius(A - B) <= bound


def same_column_space(A, B, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Column spaces coincide: rank(A) = rank(B) = rank([A | B])."""
    A, B = as_matrix(A), as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise DimensionError(
            f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    return _same_space(A, B, numerical_rank(B, tol), tol)


def _same_space(A, B, rank_b: int, tol: TolerancePolicy) -> bool:
    """:func:`same_column_space` of two matrices with equal row counts, given
    ``rank_b = numerical_rank(B)``; raises ValueError for a non-finite A."""
    ra = numerical_rank(A, tol)
    if ra != rank_b:
        return False
    return numerical_rank(np.hstack([A, B]), tol) == ra


def _scaled_powers(A, tol: TolerancePolicy):
    """Yield A^1, A^2, ... of a square matrix, each scaled to unit norm.

    Each step is ``P = P @ A`` from ``P = I``, then the collapse test against
    ``rank_rel_tol * ||A||``, then ``P / ||P||``.  The walk ends at the first
    collapse: that power and every later one is numerically zero.
    """
    nA = frobenius(A)
    P = np.eye(A.shape[0], dtype=np.complex128)
    while True:
        P = P @ A
        nf = frobenius(P)
        if nf <= tol.rank_rel_tol * nA:
            return
        P = P / nf
        yield P


def scaled_power(A, k: int, tol: TolerancePolicy = DEFAULT_POLICY):
    """``A^k`` renormalized after each multiply, with collapse detection.

    Returns ``(P, collapsed)``.  ``collapsed`` is True when some intermediate
    product fell below ``rank_rel_tol * ||A||`` of its predecessor, i.e. the
    true power is the zero matrix and what remains is rounding noise.  In that
    case P is exactly zero.  Renormalizing keeps rank decisions meaningful for
    high powers without overflow or underflow.
    """
    A = _require_square(A)
    P = np.eye(A.shape[0], dtype=np.complex128)
    powers = _scaled_powers(A, tol)
    for _ in range(k):
        P = next(powers, None)
        if P is None:
            return np.zeros_like(A), True
    return P, False


def power_rank_chain(A, tol: TolerancePolicy = DEFAULT_POLICY):
    """Ranks of A^0, A^1, ..., A^n (n = dimension), computed on scaled powers."""
    A = _require_square(A)
    n = A.shape[0]
    ranks = [n] + [numerical_rank(P, tol)
                   for P in islice(_scaled_powers(A, tol), n)]
    return ranks + [0] * (n + 1 - len(ranks))


def is_nilpotent(A, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the staircase deflation of the input ends at rank zero: the
    nilpotency test is the index's own rank chain, so the two cannot
    disagree."""
    A = _require_square(A)
    return _staircase(A, tol)[0][-1] == 0


def product_with_scale(factors):
    """Product of the factors plus the product of their Frobenius norms.

    The scale is the natural magnitude against which the product's norm must
    be judged: a result far below ``eps * scale`` is rounding dust left over
    from exact cancellation, not a genuinely tiny matrix.
    """
    factors = [as_matrix(F) for F in factors]
    P = factors[0]
    scale_acc = frobenius(P)
    for F in factors[1:]:
        if P.shape[1] != F.shape[0]:
            raise DimensionError(
                f"cannot multiply shapes {P.shape} and {F.shape}")
        P = P @ F
        scale_acc *= frobenius(F)
    return P, scale_acc


def zero_product(factors, tol: TolerancePolicy = DEFAULT_POLICY):
    """Does the product of the factors vanish, at the factors' own scale?

    Returns ``(value, vanishes)`` with value ``||P||_F / max(1, scale)``;
    a product above the residual threshold still vanishes at rank zero.
    """
    P, scale_acc = product_with_scale(factors)
    value = frobenius(P) / max(1.0, scale_acc)
    if value <= tol.residual_tol:
        return value, True
    return value, numerical_rank(P, tol) == 0


def is_nilpotent_product(factors, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Is the product of the factors nilpotent?  A product that cancelled to
    rounding dust at the factors' own scale counts as the zero matrix."""
    P, scale_acc = product_with_scale(factors)
    if frobenius(P) <= tol.residual_tol * max(1.0, scale_acc):
        return True
    return is_nilpotent(P, tol)
