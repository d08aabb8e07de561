"""Generalized inverses of square complex matrices, with certificates.

Six inverse kinds are provided: Moore-Penrose, (1,3), group, Drazin, core and
pseudo core.  Every routine returns a :class:`GenInverseResult` carrying the
computed inverse together with the relative residuals of its defining
equations, so callers can accept or reject against their own policy instead
of trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _eye,
    _rank_cut,
    _require_square,
    _same_space,
    _solve,
    _staircase,
    _svd,
    approx_equal,
    as_matrix,
    frobenius,
    numerical_rank,
    rel_residual,
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
    "verify_defining_triple",
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
        return max(self.residuals.values()) if self.residuals else 0.0

    def certified(self, tol: TolerancePolicy = DEFAULT_POLICY) -> bool:
        return self.max_residual <= tol.residual_tol


def index(A, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Smallest k >= 0 with rank(A^k) = rank(A^(k+1)); at most the dimension.

    The number of steps of the staircase deflation: at most k + 1 SVDs of
    shrinking leading blocks, and no power of A.
    """
    return _CoreEP(A, tol).k


def _svd_pinv(A, tol):
    """Moore-Penrose inverse via SVD with the policy's relative rank cut."""
    A = as_matrix(A)
    if A.size == 0 or frobenius(A) == 0.0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=np.complex128)
    U, s, Vh = _svd(A)
    r = _rank_cut(s, tol.rank_rel_tol)
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=np.complex128)
    return (Vh[:r].conj().T / s[:r]) @ U[:, :r].conj().T


def _hermitian_defect(M):
    """||M - M*|| / max(1, ||M||): how far M is from Hermitian."""
    return frobenius(M - M.conj().T) / max(1.0, frobenius(M))


def _commutator_defect(A, X):
    """||AX - XA|| / max(1, ||AX||): how far X is from commuting with A."""
    AX = A @ X
    return frobenius(AX - X @ A) / max(1.0, frobenius(AX))


def _outer_residuals(A, X, Ak):
    """Residuals of X A^(k+1) = A^k and A X^2 = X, given Ak = A^k."""
    return rel_residual(X @ A @ Ak, Ak), rel_residual(A @ X @ X, X)


def _penrose_residuals(A, X):
    return {
        "p1": rel_residual(A @ X @ A, A),
        "p2": rel_residual(X @ A @ X, X),
        "p3": _hermitian_defect(A @ X),
        "p4": _hermitian_defect(X @ A),
    }


def moore_penrose(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with AXA=A, XAX=X and AX, XA both Hermitian."""
    A = as_matrix(A)
    X = _svd_pinv(A, tol)
    return GenInverseResult("moore_penrose", X, 0, _penrose_residuals(A, X))


def one_three(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """A canonical (1,3)-inverse: AXA=A with AX Hermitian.

    (1,3)-inverses are not unique; the Moore-Penrose inverse is returned so
    that repeated calls are deterministic.
    """
    A = _require_square(A)
    X = _svd_pinv(A, tol)
    residuals = {
        "p1": rel_residual(A @ X @ A, A),
        "p3": _hermitian_defect(A @ X),
    }
    return GenInverseResult("one_three", X, 0, residuals)


def _refined_inverse(Ahat):
    """Inverse of the core restriction with two-sided Newton refinement.

    One step on each side squares the right and the left residual of the
    initial LU solve, pushing ||Ahat Y - I|| and ||Y Ahat - I|| from
    eps*cond down to the rounding floor; without this a well-posed but
    ill-conditioned core restriction can miss the certificate threshold.
    """
    eye = _eye(Ahat.shape[0])
    Y = _solve(Ahat, eye)
    Y = Y @ (2.0 * eye - Ahat @ Y)
    return (2.0 * eye - Y @ Ahat) @ Y


def _triple_residuals(A, X, Ak):
    """:func:`verify_defining_triple` given the exact power Ak = A^k."""
    pc1, pc2 = _outer_residuals(A, X, Ak)
    return {"pc1": pc1, "pc2": pc2, "pc3": _hermitian_defect(A @ X)}


def _drazin_residuals(A, X, Ak):
    """Residuals of X A^(k+1) = A^k, A X^2 = X and AX = XA, given Ak = A^k."""
    d1, d2 = _outer_residuals(A, X, Ak)
    return {"d1": d1, "d2": d2, "commute": _commutator_defect(A, X)}


class _CoreEP:
    """The core-EP decomposition of one square matrix, and what derives from it.

    Holds the validated matrix A and, from one :func:`_staircase`, the rank
    chain of its powers, its index k, the unitary Q, whose first r columns
    span range(A^k), and the blocks of M = Q* A Q = [[T, S], [0, N]].  Every
    inverse kind built on range(A^k), the spectral idempotent and the
    star-DMP test come from here, so a caller that needs several of them
    builds one record.  T^{-1} and the exact power A^max(k,1) that the
    certificates use are each computed once, on first use.  A certificate
    is computed only by the methods that return a :class:`GenInverseResult`.
    """

    def __init__(self, A, tol: TolerancePolicy = DEFAULT_POLICY):
        self.A = _require_square(A)
        self.tol = tol
        self.ranks, self.Q, self.M = _staircase(self.A, tol)
        self.k, self.r = len(self.ranks) - 1, self.ranks[-1]
        r = self.r
        self.T, self.S, self.N = self.M[:r, :r], self.M[:r, r:], self.M[r:, r:]

    @cached_property
    def t_inverse(self):
        return _refined_inverse(self.T)

    @cached_property
    def exact_power(self):
        return np.linalg.matrix_power(self.A, max(self.k, 1))

    def scaled_power(self) -> np.ndarray:
        """A^max(k,1) = Q [[T^k0, X], [0, 0]] Q* at unit Frobenius norm, read
        off the decomposition, so its rank is exactly r; zero when r = 0."""
        r = self.r
        if r == 0:
            return np.zeros_like(self.A)
        R = self.M[:r]                  # the top block row of M^j, j = 1..k0
        for _ in range(max(self.k, 1) - 1):
            R = R @ self.M
            R = R / frobenius(R)
        P = self.Q[:, :r] @ (R @ self.Q.conj().T)
        return P / frobenius(P)

    def pcore_inverse(self) -> np.ndarray:
        """Q1 T^{-1} Q1*, Q1 the first r columns of Q.  Raises ValueError
        when an entry is not finite: T^{-1} can overflow on finite input."""
        Q1 = self.Q[:, :self.r]
        X = Q1 @ (self.t_inverse @ Q1.conj().T)
        if not np.isfinite(X).all():
            raise ValueError("the pseudo core inverse is not finite: the "
                             "inverse of the core block T overflowed")
        return X

    def drazin_inverse(self) -> np.ndarray:
        """Q [[T^{-1}, Z], [0, 0]] Q* with Z = sum_{j<k} T^-(j+2) S N^j, the
        solution of T Z - Z N = T^{-1} S that makes it commute with A.  The
        sum is taken by Horner's rule: Z = Y G, G = Y (S + G N) k times."""
        Y, S, N = self.t_inverse, self.S, self.N
        G = np.zeros_like(S)
        for _ in range(self.k):
            G = Y @ (S + G @ N)
        return self.Q[:, :self.r] @ (np.hstack([Y, Y @ G]) @ self.Q.conj().T)

    def spectral_idempotent(self) -> np.ndarray:
        """I - A A^D: the projection onto the nilpotent part along the core."""
        return _eye(self.A.shape[0]) - self.A @ self.drazin_inverse()

    def nilpotent_powers(self, m):
        """A^(i-1) A_pi for i = 1..m, A_pi the spectral idempotent, and their
        scale sum_i ||A^(i-1)|| ||A_pi||; A_pi is not formed when m = 0."""
        if m == 0:
            return [], 0.0
        api = self.spectral_idempotent()
        norm_api = frobenius(api)
        products, scale = [], 0.0
        for j in range(m):
            Aj = np.linalg.matrix_power(self.A, j)
            products.append(Aj @ api)
            scale += frobenius(Aj) * norm_api
        return products, scale

    def nilpotent_power_sum(self):
        """sum_{i=1..k} A^(i-1) A_pi, k the index, and its scale
        sum_i ||A^(i-1)|| ||A_pi||; zero at k = 0."""
        products, scale = self.nilpotent_powers(self.k)
        return sum(products, np.zeros_like(self.A)), scale

    def pseudo_core(self) -> GenInverseResult:
        X = self.pcore_inverse()
        residuals = _triple_residuals(self.A, X, self.exact_power)
        return GenInverseResult("pseudo_core", X, self.k, residuals)

    def drazin(self) -> GenInverseResult:
        X = self.drazin_inverse()
        return GenInverseResult("drazin", X, self.k,
                                _drazin_residuals(self.A, X, self.exact_power))

    def group(self) -> GenInverseResult:
        if self.k > 1:
            raise InverseNotDefinedError("group", self.k)
        A, X = self.A, self.drazin_inverse()
        residuals = {
            "p1": rel_residual(A @ X @ A, A),
            "p2": rel_residual(X @ A @ X, X),
            "commute": _commutator_defect(A, X),
        }
        return GenInverseResult("group", X, 1, residuals)

    def core(self) -> GenInverseResult:
        if self.k > 1:
            raise InverseNotDefinedError("core", self.k)
        A, tol = self.A, self.tol
        X = self.pcore_inverse()
        rank_a = numerical_rank(A, tol)     # one rank for both spaces
        residuals = {
            "p1": rel_residual(A @ X @ A, A),
            "column_space":
                0.0 if _same_space(X, A, rank_a, tol) else 1.0,
            "row_space":
                0.0 if _same_space(X.conj().T, A, rank_a, tol) else 1.0,
        }
        return GenInverseResult("core", X, 1, residuals)

    def star_dmp(self):
        """:func:`is_star_dmp` of A.  A^m is EP for every m >= k exactly when
        A^k is, which holds exactly when A^D = A^pc (Gao and Chen 2018)."""
        if self.k == 0:
            return True, 1
        if approx_equal(self.drazin_inverse(), self.pcore_inverse(), self.tol):
            return True, self.k
        return False, 0


def drazin(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X and AX = XA, k = index(A)."""
    return _CoreEP(A, tol).drazin()


def group_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Drazin inverse restricted to index <= 1; also commutes with A."""
    return _CoreEP(A, tol).group()


def spectral_idempotent(A, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """I - A A^D: the projection onto the nilpotent part along the core."""
    return _CoreEP(A, tol).spectral_idempotent()


def verify_defining_triple(A, X, k: int, tol: TolerancePolicy = DEFAULT_POLICY):
    """Relative residuals of X A^(k+1) = A^k, A X^2 = X, (AX)* = AX.

    Raises ValueError for k < 1.  No pass/fail judgment is made.
    """
    if k < 1:
        raise ValueError(f"defining-triple exponent must be >= 1, got {k}")
    A, X = _require_square(A), _require_square(X)
    if A.shape != X.shape:
        raise ValueError(f"shape mismatch: {A.shape} vs {X.shape}")
    return _triple_residuals(A, X, np.linalg.matrix_power(A, k))


def pseudo_core(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X, (AX)* = AX, k = index(A).

    Exists for every square complex matrix: it is the core-EP inverse.  With
    the core-EP decomposition A = Q [[T, S], [0, N]] Q* (H. Wang 2016),
    T nonsingular and N nilpotent, it is X = Q1 T^{-1} Q1*, Q1 the first
    rank(A^k) columns of Q.
    """
    return _CoreEP(A, tol).pseudo_core()


def core_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Core inverse for index <= 1: AXA=A with the column space of X equal to
    that of A and the column space of X* equal to that of A.

    Equals the group inverse composed with the orthogonal projector onto
    range(A), i.e. the pseudo core inverse at k = 1.
    """
    return _CoreEP(A, tol).core()


def is_star_dmp(A, tol: TolerancePolicy = DEFAULT_POLICY):
    """Does some power of A have coinciding Moore-Penrose and group inverses?

    Returns (flag, witness_exponent); the witness is max(index(A), 1) when
    some power works and 0 when none does.  Every power from the index on
    has index <= 1 and the same range and kernel as A^k, so one works
    exactly when A^k does, and the test reads A^D = A^pc instead.
    """
    return _CoreEP(A, tol).star_dmp()
