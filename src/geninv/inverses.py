"""Generalized inverses of square complex matrices, with certificates.

Six inverse kinds are provided: Moore-Penrose, (1,3), group, Drazin, core and
pseudo core.  Every routine returns a :class:`GenInverseResult` carrying the
computed inverse together with the relative residuals of its defining
equations, so callers can accept or reject against their own policy instead
of trusting the construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _eye,
    _inv,
    _lapack,
    _Named,
    _parsed,
    _power,
    _QUIET_STATE,
    _rank_cut,
    _require_square,
    _same_space,
    _staircase,
    _svd,
    _two_eye,
    _word_residual,
    approx_equal,
    as_matrix,
    frobenius,
    numerical_rank,
)

__all__ = [
    "GenInverseResult",
    "InverseNotDefinedError",
    "index",
    "moore_penrose",
    "one_three",
    "group_inverse",
    "drazin",
    "spectral_idempotent",
    "core_inverse",
    "pseudo_core",
    "is_star_dmp",
]

class InverseNotDefinedError(ValueError):
    """The requested inverse kind does not exist for this matrix."""

    def __init__(self, kind, idx):
        self.kind = kind
        self.index = idx
        super().__init__(
            f"{kind} inverse does not exist: index {idx} exceeds 1")


@dataclass
class GenInverseResult:
    """An inverse of a declared kind plus the residuals of its equations."""

    kind: str
    inverse: np.ndarray
    index_used: int
    residuals: dict = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        """The largest residual, 0 for none; NaN when any residual is NaN,
        so that a NaN never certifies."""
        values = self.residuals.values()
        if any(math.isnan(v) for v in values):
            return math.nan
        return max(values, default=0.0)

    def certified(self, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
        return self.max_residual <= tol.residual_tol


def index(A, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Smallest k >= 0 with rank(A^k) = rank(A^(k+1)); at most the dimension.

    The number of steps of the staircase deflation: at most k + 1 SVDs of
    shrinking leading blocks, and no power of A.
    """
    return _CoreEP(_require_square(A), tol).k


def _svd_pinv(U, s, Vh, tol):
    """Moore-Penrose inverse of the matrix with full SVD U diag(s) Vh, cut at
    the policy's relative rank rule; zero for an empty or all-zero
    spectrum.  Raises ValueError, and no floating-point warning, when an
    entry is not finite, as when a kept singular value is subnormal."""
    r = _rank_cut(s, tol.rank_rel_tol)
    X = _lapack(_QUIET_STATE,
                lambda: (Vh[:r].conj().T / s[:r]) @ U[:, :r].conj().T)
    return _finite(X, "Moore-Penrose")


def _one_three(A, svd, tol):
    """:func:`one_three` of a validated square A from its SVD ``svd``."""
    X = _svd_pinv(*svd, tol)
    return GenInverseResult("one_three", X, 0, _residuals("one_three", A, X))


# Each kind's defining equations (label, lhs, rhs), in report order, as
# words over A, its inverse X, K = A^max(k,1), P = AX and Q = XA; "P" = "P*"
# states that AX is Hermitian.
_DEFINING = _parsed({
    "moore_penrose": (("p1", "PA", "A"), ("p2", "QX", "X"),
                      ("p3", "P", "P*"), ("p4", "Q", "Q*")),
    "one_three": (("p1", "PA", "A"), ("p3", "P", "P*")),
    "group": (("p1", "PA", "A"), ("p2", "QX", "X"), ("commute", "Q", "P")),
    "drazin": (("d1", "QK", "K"), ("d2", "PX", "X"), ("commute", "Q", "P")),
    "core": (("p1", "PA", "A"),),
    "pseudo_core": (("pc1", "QK", "K"), ("pc2", "PX", "X"), ("pc3", "P", "P*")),
})

# The kinds whose words name Q; no other kind forms it.
_NAMES_Q = {kind for kind, rows in _DEFINING.items()
            if "Q" in {key[0] for _, *words in rows for w in words for key in w}}


def _residuals(kind, A, X, K=None):
    """The residuals of the kind's rows of ``_DEFINING`` for the inverse X of
    A, with AX formed once; K = A^max(k,1) and Q = XA where a word names
    them."""
    named = _Named(A=A, X=X, K=K, P=A @ X,
                   Q=X @ A if kind in _NAMES_Q else None)
    return {label: _word_residual(lhs, rhs, named)
            for label, lhs, rhs in _DEFINING[kind]}


def moore_penrose(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with AXA=A, XAX=X and AX, XA both Hermitian."""
    A = as_matrix(A)
    X = _svd_pinv(*_svd(A), tol)
    return GenInverseResult("moore_penrose", X, 0,
                            _residuals("moore_penrose", A, X))


def one_three(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """A canonical (1,3)-inverse: AXA=A with AX Hermitian.

    (1,3)-inverses are not unique; the Moore-Penrose inverse is returned so
    that repeated calls are deterministic.
    """
    A = _require_square(A)
    return _one_three(A, _svd(A), tol)


def _refined_inverse(Ahat):
    """Inverse of the core restriction with two-sided Newton refinement.

    One step on each side squares the right and the left residual of the
    initial LU inverse, pushing ||Ahat Y - I|| and ||Y Ahat - I|| from
    eps*cond down to the rounding floor; without this a well-posed but
    ill-conditioned core restriction can miss the certificate threshold.
    """
    two = _two_eye(Ahat.shape[0])
    Y = _inv(Ahat)
    Y = Y @ (two - Ahat @ Y)
    return (two - Y @ Ahat) @ Y


def _finite(X, kind):
    """X made read-only; ValueError naming the inverse kind when an entry is
    not finite: for the Moore-Penrose inverse a reciprocal singular value
    overflowed, for the others the inverse of the core block T."""
    if not np.isfinite(X).all():
        cause = ("a reciprocal singular value" if kind == "Moore-Penrose"
                 else "the inverse of the core block T")
        raise ValueError(f"the {kind} inverse is not finite: {cause} "
                         f"overflowed")
    X.flags.writeable = False
    return X


class _CoreEP:
    """The core-EP decomposition of one square matrix, and what derives from it.

    Holds A, a square complex128 matrix its caller has validated, and, from
    one :func:`_staircase`, the rank chain of its powers, its index k, the
    unitary Q, whose first r columns span range(A^k), and the blocks of
    M = Q* A Q = [[T, S], [0, N]].  The staircase's first step is the SVD of
    A cut at the rule of :func:`numerical_rank`, so rank(A) is its first
    count, its factors (U, s, Vh) are kept as ``svd`` for the
    (1,3)-inverse, and A takes one SVD.  Every inverse kind built on
    range(A^k), the spectral idempotent and the star-DMP test come from
    here, so a caller that needs several of them builds one record.
    T^{-1}, the exact power A^max(k,1) that the certificates use, the
    pseudo core and Drazin inverses and their results ``pseudo_core`` and
    ``drazin`` are cached properties, each formed once on first read; the
    two inverses are read-only.  A certificate is computed only by the
    members that return a :class:`GenInverseResult`.
    """

    def __init__(self, A, tol: TolerancePolicy = DEFAULT_POLICY):
        self.A = A
        self.tol = tol
        self.ranks, self.Q, self.M, self.svd = _staircase(A, tol)
        self.k, self.r = len(self.ranks) - 1, self.ranks[-1]
        self.rank = self.ranks[min(self.k, 1)]
        r = self.r
        self.T, self.S, self.N = self.M[:r, :r], self.M[:r, r:], self.M[r:, r:]

    @cached_property
    def t_inverse(self) -> np.ndarray:
        """T^{-1}; NaN where the LU of T fails, its pivots underflowed, so
        that each inverse built on it raises its kind's not-finite error."""
        try:
            return _refined_inverse(self.T)
        except np.linalg.LinAlgError:
            return np.full_like(self.T, np.nan)

    @cached_property
    def exact_power(self) -> np.ndarray:
        """A^max(k,1), the power the certificates use.  Raises ValueError
        naming the exponent, and no floating-point warning, when an entry
        is not finite: a power of finite A can overflow."""
        e = max(self.k, 1)
        K = _lapack(_QUIET_STATE, _power, self.A, e)
        if not np.isfinite(K).all():
            raise ValueError(f"the certificate power A^{e} overflowed")
        return K

    def scaled_power(self) -> np.ndarray:
        """A^max(k,1) = Q [[T^k0, X], [0, 0]] Q* at unit Frobenius norm, read
        off the decomposition, so its rank is exactly r; zero when r = 0.
        M is prescaled by 2^-e, e the binary exponent of ||M||_F, so that the
        products stay in range at any scale of A; a power of two moves no bit."""
        r = self.r
        if r == 0:
            return np.zeros_like(self.A)
        e = math.frexp(frobenius(self.M))[1]
        M = np.ldexp(self.M.view(np.float64), -e).view(np.complex128)
        R = M[:r]                       # the top block row of M^j, j = 1..k0
        for _ in range(max(self.k, 1) - 1):
            R = R @ M
            R = R / frobenius(R)
        P = self.Q[:, :r] @ (R @ self.Q.conj().T)
        return P / frobenius(P)

    @cached_property
    def pcore_inverse(self) -> np.ndarray:
        """Q1 T^{-1} Q1*, Q1 the first r columns of Q.  Raises ValueError
        when an entry is not finite: T^{-1} can overflow on finite input."""
        Q1 = self.Q[:, :self.r]
        return _finite(Q1 @ (self.t_inverse @ Q1.conj().T), "pseudo core")

    @cached_property
    def drazin_inverse(self) -> np.ndarray:
        """Q [[T^{-1}, Z], [0, 0]] Q* with Z = sum_{j<k} T^-(j+2) S N^j, the
        solution of T Z - Z N = T^{-1} S that makes it commute with A.  The
        sum is taken by Horner's rule: Z = Y G, G = Y (S + G N) k times.
        Raises ValueError when an entry is not finite."""
        Y, S, N = self.t_inverse, self.S, self.N
        G = np.zeros_like(S)
        for _ in range(self.k):
            G = Y @ (S + G @ N)
        X = self.Q[:, :self.r] @ (np.hstack([Y, Y @ G]) @ self.Q.conj().T)
        return _finite(X, "Drazin")

    def spectral_idempotent(self) -> np.ndarray:
        """I - A A^D: the projection onto the nilpotent part along the core."""
        return _eye(self.A.shape[0]) - self.A @ self.drazin_inverse

    @cached_property
    def pseudo_core(self) -> GenInverseResult:
        X = self.pcore_inverse
        residuals = _residuals("pseudo_core", self.A, X, self.exact_power)
        return GenInverseResult("pseudo_core", X, self.k, residuals)

    @cached_property
    def drazin(self) -> GenInverseResult:
        X = self.drazin_inverse
        residuals = _residuals("drazin", self.A, X, self.exact_power)
        return GenInverseResult("drazin", X, self.k, residuals)

    def group(self) -> GenInverseResult:
        if self.k > 1:
            raise InverseNotDefinedError("group", self.k)
        X = self.drazin_inverse
        return GenInverseResult("group", X, 1, _residuals("group", self.A, X))

    def core(self) -> GenInverseResult:
        if self.k > 1:
            raise InverseNotDefinedError("core", self.k)
        A, tol = self.A, self.tol
        X = self.pcore_inverse
        residuals = _residuals("core", A, X)
        rank_x = numerical_rank(X, tol)     # X* has X's singular values
        named = _Named(X=X)
        for label, key in (("column_space", "X"), ("row_space", "X*")):
            same = _same_space(named[key], A, rank_x, self.rank, tol)
            residuals[label] = 0.0 if same else 1.0
        return GenInverseResult("core", X, 1, residuals)

    def star_dmp(self):
        """:func:`is_star_dmp` of A.  A^m is EP for every m >= k exactly when
        A^k is, which holds exactly when A^D = A^pc (Gao and Chen 2018)."""
        if self.k == 0:
            return True, 1
        if approx_equal(self.drazin_inverse, self.pcore_inverse, self.tol):
            return True, self.k
        return False, 0


def drazin(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X and AX = XA, k = index(A)."""
    return _CoreEP(_require_square(A), tol).drazin


def group_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Drazin inverse restricted to index <= 1; also commutes with A."""
    return _CoreEP(_require_square(A), tol).group()


def spectral_idempotent(A, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """I - A A^D: the projection onto the nilpotent part along the core."""
    return _CoreEP(_require_square(A), tol).spectral_idempotent()


def pseudo_core(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X, (AX)* = AX, k = index(A).

    Exists for every square complex matrix: it is the core-EP inverse.  With
    the core-EP decomposition A = Q [[T, S], [0, N]] Q* (H. Wang 2016),
    T nonsingular and N nilpotent, it is X = Q1 T^{-1} Q1*, Q1 the first
    rank(A^k) columns of Q.
    """
    return _CoreEP(_require_square(A), tol).pseudo_core


def core_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Core inverse for index <= 1: AXA=A with the column space of X equal to
    that of A and the column space of X* equal to that of A.

    Equals the group inverse composed with the orthogonal projector onto
    range(A), i.e. the pseudo core inverse at k = 1.
    """
    return _CoreEP(_require_square(A), tol).core()


def is_star_dmp(A, tol: TolerancePolicy = DEFAULT_POLICY):
    """Does some power of A have coinciding Moore-Penrose and group inverses?

    Returns (flag, witness_exponent); the witness is max(index(A), 1) when
    some power works and 0 when none does.  Every power from the index on
    has index <= 1 and the same range and kernel as A^k, so one works
    exactly when A^k does, and the test reads A^D = A^pc instead.
    """
    return _CoreEP(_require_square(A), tol).star_dmp()
