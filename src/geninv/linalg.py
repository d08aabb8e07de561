"""Dense complex matrix kernel: tolerance policy, predicates, rank, staircase.

Every matrix in this package is a validated 2-D ``numpy.complex128`` array.
All approximate decisions (rank, equality, nilpotency, zero products) are
governed by a single :class:`TolerancePolicy` so that results are reproducible
from the policy alone.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

import numpy as np
from numpy._core._multiarray_umath import vdot as _vdot
from numpy._core.umath import _extobj_contextvar, _make_extobj
from numpy.linalg import _umath_linalg
from numpy.linalg._linalg import (
    _raise_linalgerror_qr,
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
    "is_nilpotent",
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


# Dense kernel.  Every SVD, inverse, QR, matrix power and block
# assembly in the package goes through these functions.  Each LAPACK call
# is, for a 2-D complex128 input, the gufunc that ``np.linalg.svd``/
# ``inv``/``qr`` call, with the same signature and under the same
# error state; so the result is the same bits, a LinAlgError carries
# numpy's message, and no new warning escapes.  ``_svd_right`` gives the
# thin SVD's s and Vh, taking first, for a tall enough matrix, the QR that
# LAPACK's SVD would take itself.  ``_power`` forms numpy's
# ``matrix_power`` products in numpy's order, and ``_assemble`` fills the
# array ``numpy.block`` would build.  What is skipped is numpy's per-call
# wrapper: dispatch, type resolution, result wrapping and a fresh
# ``np.errstate``, which cost about as much as the arithmetic at n <= 16.

# numpy's error state for a gufunc that signals failure with ``invalid``,
# which the handler turns into numpy's LinAlgError, and one with every
# warning off, for arithmetic whose finiteness the caller tests itself;
# each built once, here.
_SVD_STATE, _SINGULAR_STATE, _QR_STATE = (
    _make_extobj(call=raise_error, invalid="call", over="ignore",
                 divide="ignore", under="ignore")
    for raise_error in (_raise_linalgerror_svd_nonconvergence,
                        _raise_linalgerror_singular, _raise_linalgerror_qr))
_QUIET_STATE = _make_extobj(all="ignore")


def _lapack(state, fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` with numpy's error state set to the prebuilt
    ``state``; the caller's state is back on return or raise."""
    token = _extobj_contextvar.set(state)
    try:
        return fn(*args, **kwargs)
    finally:
        _extobj_contextvar.reset(token)


def _svd(M):
    """``np.linalg.svd(M)`` as a plain (U, s, Vh)."""
    return _lapack(_SVD_STATE, _umath_linalg.svd_f, M, signature="D->DdD")


def _svd_right(M):
    """s and Vh of ``np.linalg.svd(M, full_matrices=False)``, without U.

    LAPACK's zgesdd QR-factors an m x n matrix with m >= floor(17n/9) and
    takes the SVD of the n x n R alone (Chan 1982).  Such an M is factored
    here by the same QR, and the thin SVD is taken of its R, below-diagonal
    entries zero, so s and Vh are the same bits and no m x n left factor is
    formed.  Any other shape takes the thin SVD of M itself.  The bits agree
    for a finite M whose largest entry zgesdd does not rescale, about
    1e-138 to 1e138; a NaN raises numpy's LinAlgError.
    """
    m, n = M.shape
    if m >= 17 * n // 9:
        a = M.astype(np.complex128, copy=True)      # overwritten by the QR
        _lapack(_QR_STATE, _umath_linalg.qr_r_raw, a, signature="D->D")
        M = np.triu(a[:n])
    _, s, Vh = _lapack(_SVD_STATE, _umath_linalg.svd_s, M, signature="D->DdD")
    return s, Vh


def _svdvals(M):
    """``np.linalg.svd(M, compute_uv=False)``."""
    return _lapack(_SVD_STATE, _umath_linalg.svd, M, signature="D->d")


def _inv(A):
    """``np.linalg.inv(A)``: LAPACK's gesv against the identity, so the
    bits of ``np.linalg.solve(A, I)``."""
    return _lapack(_SINGULAR_STATE, _umath_linalg.inv, A, signature="D->D")


def _qr(M):
    """Q and the diagonal of R of ``numpy.linalg.qr(M)``."""
    a = M.astype(np.complex128, copy=True)      # overwritten by the factors
    tau = _lapack(_QR_STATE, _umath_linalg.qr_r_raw, a, signature="D->D")
    Q = _lapack(_QR_STATE, _umath_linalg.qr_reduced, a, tau, signature="DD->D")
    return Q, np.diagonal(a)


@functools.lru_cache(maxsize=32)
def _eye(n):
    """The n x n complex128 identity, shared and read-only."""
    eye = np.eye(n, dtype=np.complex128)
    eye.flags.writeable = False
    return eye


@functools.lru_cache(maxsize=32)
def _two_eye(n):
    """2I for the n x n Newton step, shared and read-only."""
    two = 2.0 * _eye(n)
    two.flags.writeable = False
    return two


def _power(A, k):
    """``numpy.linalg.matrix_power(A, k)`` of a square A for k >= 0: the same
    products in the same order, so the same bits.  A^0 is the shared
    read-only ``_eye(n)``, and A^3 is numpy's (A A) A, where the binary loop
    would form A (A A); the loop gives A^1 = A itself and A^2 = A A."""
    if k == 0:
        return _eye(A.shape[0])
    if k == 3:
        return (A @ A) @ A
    z = result = None               # binary decomposition, low bit first
    while k > 0:
        z = A if z is None else z @ z
        k, bit = divmod(k, 2)
        if bit:
            result = z if result is None else result @ z
    return result


def _assemble(A, B, C, D):
    """``numpy.block([[A, B], [C, D]])`` of complex blocks, filled into one
    array by slices."""
    p, q = A.shape
    M = np.empty((p + C.shape[0], q + B.shape[1]), dtype=np.complex128)
    M[:p, :q] = A
    M[:p, q:] = B
    M[p:, :q] = C
    M[p:, q:] = D
    return M


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


_SQRT_TINY = 2.0 ** -511        # the square root of the least normal float


def frobenius(A) -> float:
    """Frobenius norm, bit for bit ``np.linalg.norm(A)`` wherever its sum of
    squares is a normal float.

    For a complex128 array this is numpy's own formula, inlined to skip the
    dispatch: the squared norms of the real and imaginary parts of the
    K-order ravel, summed, then the square root.  numpy's ``vdot``, called
    without its dispatch, takes the same BLAS dot as ``ndarray.dot`` but
    raises no floating-point warning.  Where the sum overflows or underflows
    for finite, nonzero entries, they are scaled by a power of two first, so
    ``frobenius(2**j * A)`` is ``2**j * frobenius(A)`` exactly, outside the
    band where a nonzero part's square is subnormal while the sum of squares
    is normal: there such squares lose bits.
    """
    if type(A) is np.ndarray and A.dtype == np.complex128:
        x = A.ravel(order="K")
        xr, xi = x.real, x.imag
        norm = math.sqrt(_vdot(xr, xr) + _vdot(xi, xi))
    else:
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(A))
    if _SQRT_TINY <= norm < math.inf:
        return norm
    return _rescaled_frobenius(A, norm)


def _rescaled_frobenius(A, norm):
    """:func:`frobenius` of A, whose plain norm ``norm`` fell outside the
    normal range, from its K-order ravel scaled by 2**-e, e the exponent of
    its largest real or imaginary part; ``norm`` itself for an all-zero or
    non-finite A."""
    parts = np.asarray(A, dtype=np.complex128).ravel(order="K").view(np.float64)
    with np.errstate(all="ignore"):
        top = np.abs(parts).max(initial=0.0)
        if not 0.0 < top < math.inf:
            return norm
        e = math.frexp(top)[1]
        scaled = frobenius(np.ldexp(parts, -e).view(np.complex128))
        return float(np.ldexp(scaled, e))


def _adj(M):
    """The involution M* of the paper: the conjugate transpose."""
    return M.conj().T


def _relative(norm, scale):
    """``norm / max(1, scale)``: a norm judged against its reference scale,
    floored at 1.  Every residual, equality and vanishing-product decision
    in the package is this one rule."""
    return norm / max(1.0, scale)


def rel_residual(X, Y) -> float:
    """``||X - Y||_F`` relative to ``||Y||_F`` - the package-wide residual."""
    X, Y = np.asarray(X), np.asarray(Y)
    return _relative(frobenius(X - Y), frobenius(Y))


# The one reader of words.  A word such as "A*B" is a product of named
# matrices, one per letter, a star taking the adjoint of the factor before it.
# Each factor is a key of a :class:`_Named` map: the symbol, starred or not.

def _tokens(word):
    """A word's factors as keys, the star kept with its symbol: "A*B" gives
    ("A*", "B")."""
    return tuple(re.findall(r"[^*]\*?", word))


def _parsed(table):
    """Rows (label, word, ...) per key, each word parsed once into keys."""
    return {key: tuple((label, *map(_tokens, words)) for label, *words in rows)
            for key, rows in table.items()}


class _Named(dict):
    """The matrices a word's symbols name.  A starred key "S*" is formed from
    "S" through :func:`_adj` on first use and stored: the one place the
    involution reaches a matrix.  A key (S, j) is S's j-th power, likewise."""

    def __missing__(self, key):
        if isinstance(key, tuple):
            value = self[key] = _power(self[key[0]], key[1])
        elif key[1:] == "*":
            value = self[key] = _adj(self[key[0]])
        else:
            raise KeyError(key)
        return value

    def norm(self, key) -> float:
        """The Frobenius norm of the key's matrix, formed once per map."""
        norms = vars(self).setdefault("norms", {})
        if key not in norms:
            norms[key] = frobenius(self[key])
        return norms[key]


def _product(word, named):
    """The product of the factors of a parsed word, taken left to right."""
    P = named[word[0]]
    for key in word[1:]:
        P = P @ named[key]
    return P


def _word_residual(lhs, rhs, named):
    """:func:`rel_residual` of the equation lhs = rhs of two parsed words,
    on the products as they come."""
    return rel_residual(_product(lhs, named), _product(rhs, named))


def _rank_cut(s, rtol: float) -> int:
    """Count of the descending singular values ``s`` above ``rtol * s[0]``;
    0 for an empty or all-zero spectrum.  The one rank decision."""
    if s.size == 0:
        return 0
    return int(np.count_nonzero(s > rtol * s[0]))


def numerical_rank(A, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Count of singular values above ``rank_rel_tol`` times the largest."""
    A = as_matrix(A)
    return _rank_cut(_svdvals(A), tol.rank_rel_tol)


def _staircase(A, tol):
    """Core-EP decomposition of a square A by unitary staircase deflation.

    Returns (ranks, Q, M, svd): Q unitary, M = Q* A Q = [[T, S], [0, N]]
    with T = M[:r, :r] nonsingular and N nilpotent, ``ranks`` the ranks of
    A^0, ..., A^k, so k = len(ranks) - 1 and r = ranks[-1] (Kublanovskaya
    1966; Golub and Wilkinson 1976), and ``svd`` the first step's (U, s, Vh),
    which is the SVD of A.  Each step rotates the left singular vectors of
    the leading block into place, and its rows whose singular
    values fall to ``rank_rel_tol * ||A||_2`` or below are set to zero.  The
    cut is absolute, not relative to a power of A that a small core
    eigenvalue makes small.  The last, nonsingular block is rotated too:
    that grades its rows, and the refined inverse of T then reaches the
    rounding floor, where in an ungraded basis its second step can undo the
    first by a factor of cond(T).
    """
    n = A.shape[0]
    Q, M, ranks, cut = _eye(n), A, [n], None
    svd = (Q, np.zeros(0), Q)       # of the 0 x 0 A, which takes no step
    while ranks[-1]:
        m = ranks[-1]
        U, s, Vh = _svd(M[:m, :m])
        if cut is None:
            cut = tol.rank_rel_tol * s[0]
        r = int(np.count_nonzero(s > cut))
        if m == n:          # the first step, on A itself; Q = I U, not U,
            Q = Q @ U       # for the bits of its signed zeros
            M = (U.conj().T @ A) @ U
            svd = U, s, Vh
        else:
            Q[:, :m] = Q[:, :m] @ U
            M[:m] = U.conj().T @ M[:m]
            M[:, :m] = M[:, :m] @ U
        if r == m:
            break
        M[r:m, :m] = 0.0
        ranks.append(r)
    return ranks, Q, M, svd


def approx_equal(A, B, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    A, B = as_matrix(A), as_matrix(B)
    if A.shape != B.shape:
        raise DimensionError(f"cannot compare shapes {A.shape} and {B.shape}")
    return _relative(frobenius(A - B),
                     max(frobenius(A), frobenius(B))) <= tol.eq_rel_tol


def _same_space(A, B, rank_a: int, rank_b: int, tol: TolerancePolicy) -> bool:
    """Do two matrices with equal row counts have one column space, that
    is, rank(A) = rank(B) = rank([A | B])?  Their numerical ranks are given,
    so a caller that holds a rank takes it once."""
    if rank_a != rank_b:
        return False
    return numerical_rank(np.hstack([A, B]), tol) == rank_a


def is_nilpotent(A, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """True iff the staircase deflation of the input ends at rank zero: the
    nilpotency test is the index's own rank chain, so the two cannot
    disagree."""
    A = _require_square(A)
    return _staircase(A, tol)[0][-1] == 0


def _finite_product(word, named):
    """A word's :func:`_product`; ValueError naming the word on overflow."""
    P = _product(word, named)
    if not np.isfinite(P).all():
        raise ValueError(f"the product {''.join(word)} overflowed")
    return P


def product_with_scale(word, named):
    """A parsed word's product, its factors read from ``named``, and the
    product of their Frobenius norms, each taken left to right: the scale
    against which the product's norm is judged, as a result far below
    ``eps * scale`` is rounding dust left over from exact cancellation.  A
    product that overflowed raises, naming the word."""
    return _finite_product(word, named), math.prod(map(named.norm, word))


def zero_product(word, named, tol: TolerancePolicy = DEFAULT_POLICY):
    """Does a parsed word's product vanish at its factors' own scale?

    Returns ``(value, vanishes)``: ``||P||_F`` relative to the scale, and
    whether that is at most the residual threshold.
    """
    P, scale = product_with_scale(word, named)
    value = _relative(frobenius(P), scale)
    return value, value <= tol.residual_tol


def is_nilpotent_product(word, named,
                         tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
    """Is a parsed word's product nilpotent?  A product that cancelled to
    rounding dust at its factors' own scale counts as the zero matrix."""
    P, scale = product_with_scale(word, named)
    return (_relative(frobenius(P), scale) <= tol.residual_tol
            or is_nilpotent(P, tol))
