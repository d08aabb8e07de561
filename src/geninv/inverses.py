"""Generalized inverses of square complex matrices, with certificates.

Six inverse kinds are provided: Moore-Penrose, (1,3), group, Drazin, core and
pseudo core.  Every routine returns a :class:`GenInverseResult` carrying the
computed inverse together with the relative residuals of its defining
equations, so callers can accept or reject against their own policy instead
of trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _rank_cut,
    _require_square,
    _same_space,
    _scaled_powers,
    as_matrix,
    frobenius,
    numerical_rank,
    rel_residual,
)

__all__ = [
    "KINDS",
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

KINDS = ("moore_penrose", "one_three", "group", "drazin", "core", "pseudo_core")


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


def _analysis(A, tol):
    """Index k of a square matrix A and its scaled power A^max(k,1).

    Walks the scaled powers only until rank(A^k) = rank(A^(k+1)): k + 1
    rank decisions, or n when the index is the dimension n.  The ranks and
    the power are those of :func:`power_rank_chain` and :func:`scaled_power`
    bit for bit.  The power is None when it collapsed to zero.
    """
    n = A.shape[0]
    rank, kept, steps = n, None, 0
    for steps, P in enumerate(islice(_scaled_powers(A, tol), n), start=1):
        r = numerical_rank(P, tol)
        if r == rank:
            return steps - 1, kept if steps > 1 else P
        rank, kept = r, P
    if steps < n:       # A^(steps+1) collapsed, so its rank repeats at once
        return steps + 1, None
    return n, kept


def index(A, tol: TolerancePolicy = DEFAULT_POLICY) -> int:
    """Smallest k >= 0 with rank(A^k) = rank(A^(k+1)); at most the dimension.

    The walk over the scaled powers stops at the first repeated rank, so it
    takes k + 1 rank decisions instead of one per power up to the dimension.
    """
    return _CoreEP(A, tol).k


def _svd_pinv(A, tol):
    """Moore-Penrose inverse via SVD with the policy's relative rank cut."""
    A = as_matrix(A)
    if A.size == 0 or frobenius(A) == 0.0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=np.complex128)
    U, s, Vh = np.linalg.svd(A)
    r = _rank_cut(s, tol.rank_rel_tol)
    if r == 0:
        return np.zeros((A.shape[1], A.shape[0]), dtype=np.complex128)
    return (Vh[:r].conj().T / s[:r]) @ U[:, :r].conj().T


def _penrose_residuals(A, X):
    AX = A @ X
    XA = X @ A
    return {
        "p1": rel_residual(A @ X @ A, A),
        "p2": rel_residual(X @ A @ X, X),
        "p3": frobenius(AX - AX.conj().T) / max(1.0, frobenius(AX)),
        "p4": frobenius(XA - XA.conj().T) / max(1.0, frobenius(XA)),
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
    AX = A @ X
    residuals = {
        "p1": rel_residual(A @ X @ A, A),
        "p3": frobenius(AX - AX.conj().T) / max(1.0, frobenius(AX)),
    }
    return GenInverseResult("one_three", X, 0, residuals)


def _core_subspace(P, tol):
    """Orthonormal bases of range(A^k) and range((A^k)*) via one SVD.

    P is the scaled power A^k from :func:`_analysis`, None when it collapsed.
    Returns (r, Ur, Vr); r = 0 signals that A^k vanishes numerically.
    """
    if P is None:
        return 0, None, None
    U, s, Vh = np.linalg.svd(P)
    r = _rank_cut(s, tol.rank_rel_tol)
    if r == 0:
        return 0, None, None
    return r, U[:, :r], Vh[:r].conj().T


def _refined_inverse(Ahat):
    """Inverse of the core restriction with two-sided Newton refinement.

    One step on each side squares the right and the left residual of the
    initial LU solve, pushing ||Ahat Y - I|| and ||Y Ahat - I|| from
    eps*cond down to the rounding floor; without this a well-posed but
    ill-conditioned core restriction can miss the certificate threshold.
    """
    eye = np.eye(Ahat.shape[0], dtype=np.complex128)
    Y = np.linalg.solve(Ahat, eye)
    Y = Y @ (2.0 * eye - Ahat @ Y)
    return (2.0 * eye - Y @ Ahat) @ Y


def _drazin_residuals(A, X, k):
    kk = max(k, 1)
    Ak = np.linalg.matrix_power(A, kk)
    AX = A @ X
    return {
        "d1": rel_residual(X @ A @ Ak, Ak),
        "d2": rel_residual(A @ X @ X, X),
        "commute": frobenius(AX - X @ A) / max(1.0, frobenius(AX)),
    }


class _CoreEP:
    """What the core-EP quantities of one square matrix are derived from.

    Holds the validated matrix A, its index k and the scaled power
    P = A^max(k,1) from one :func:`_analysis` walk, and the core subspace of
    P, taken by one SVD on first use, so an index alone never pays for it.
    Every inverse kind built on range(A^k) and the spectral idempotent come
    from here; a caller that needs several of them for one matrix builds
    one record.  Inverses come bare or certified: a certificate is computed
    only by the methods that return a :class:`GenInverseResult`.
    """

    __slots__ = ("A", "k", "P", "tol", "_subspace")

    def __init__(self, A, tol: TolerancePolicy = DEFAULT_POLICY):
        self.A = _require_square(A)
        self.tol = tol
        self.k, self.P = _analysis(self.A, tol)
        self._subspace = None

    def _core(self):
        """(r, Ur, Vr) of :func:`_core_subspace`, computed once."""
        if self._subspace is None:
            self._subspace = _core_subspace(self.P, self.tol)
        return self._subspace

    def pcore_inverse(self) -> np.ndarray:
        """U (U* A U)^{-1} U* with U an orthonormal basis of range(A^k); the
        zero matrix when A^k vanishes.  Raises ValueError when an entry is
        not finite, as the certificate would."""
        r, Ur, _ = self._core()
        if r == 0:
            return np.zeros_like(self.A)
        Ahat = Ur.conj().T @ self.A @ Ur
        return as_matrix(Ur @ (_refined_inverse(Ahat) @ Ur.conj().T))

    def drazin_inverse(self) -> np.ndarray:
        """Drazin inverse through the invariant core subspace range(A^k).

        With U an orthonormal basis of range(A^k) and V one of
        range((A^k)*), the restriction U* A U is invertible and the oblique
        projector onto the core along the nilpotent part is U (V*U)^{-1} V*;
        the Drazin inverse is the restricted inverse composed with that
        projector.  This avoids the ill-conditioned pseudoinverse of a high
        matrix power.
        """
        r, Ur, Vr = self._core()
        if r == 0:
            return np.zeros_like(self.A)
        Ahat = Ur.conj().T @ self.A @ Ur
        VU = Vr.conj().T @ Ur
        W0 = np.linalg.solve(VU, Vr.conj().T)
        W = W0 + np.linalg.solve(VU, Vr.conj().T - VU @ W0)  # refine the solve
        return Ur @ (_refined_inverse(Ahat) @ W)

    def spectral_idempotent(self) -> np.ndarray:
        """I - A A^D: the projection onto the nilpotent part along the core."""
        return (np.eye(self.A.shape[0], dtype=np.complex128)
                - self.A @ self.drazin_inverse())

    def pseudo_core(self) -> GenInverseResult:
        X = self.pcore_inverse()
        residuals = verify_defining_triple(self.A, X, max(self.k, 1), self.tol)
        return GenInverseResult("pseudo_core", X, self.k, residuals)

    def drazin(self) -> GenInverseResult:
        X = self.drazin_inverse()
        return GenInverseResult("drazin", X, self.k,
                                _drazin_residuals(self.A, X, self.k))

    def group(self) -> GenInverseResult:
        if self.k > 1:
            raise InverseNotDefinedError("group", self.k)
        A, X = self.A, self.drazin_inverse()
        AX = A @ X
        residuals = {
            "p1": rel_residual(A @ X @ A, A),
            "p2": rel_residual(X @ A @ X, X),
            "commute": frobenius(AX - X @ A) / max(1.0, frobenius(AX)),
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
        """:func:`is_star_dmp` of A.  P is A^k0 with k0 = max(k, 1), so the
        walk on to A^n continues from it."""
        A, tol = self.A, self.tol
        powers = (iter(()) if self.P is None else              # A^k0, ..., A^n
                  chain([self.P], _scaled_powers(A, tol, start=self.P)))
        for m in range(max(self.k, 1), A.shape[0] + 1):
            Am = next(powers, None)
            # collapse-aware power: a vanished A^m is exactly zero, not dust
            if Am is None:
                Am = np.zeros_like(A)
            rec = _CoreEP(Am, tol)
            if rec.k > 1:
                continue
            mp = _svd_pinv(Am, tol)
            gp = rec.drazin_inverse()
            bound = tol.eq_rel_tol * max(1.0, frobenius(mp), frobenius(gp))
            if frobenius(mp - gp) <= bound:
                return True, m
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
    Ak = np.linalg.matrix_power(A, k)
    AX = A @ X
    return {
        "pc1": rel_residual(X @ A @ Ak, Ak),
        "pc2": rel_residual(A @ X @ X, X),
        "pc3": frobenius(AX - AX.conj().T) / max(1.0, frobenius(AX)),
    }


def pseudo_core(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X, (AX)* = AX, k = index(A).

    Exists for every square complex matrix.  The composite
    A^D A^k (A^k)^(1,3) collapses algebraically to the inverse of A
    restricted to range(A^k), conjugated by an orthonormal basis U of that
    range; it is computed in that collapsed form, X = U (U* A U)^{-1} U*.
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

    Returns (flag, witness_exponent); the witness is 0 when no exponent up to
    the dimension works.  The exponent max(index(A), 1) is tried first since
    A^n has index <= 1 from the index onward.
    """
    return _CoreEP(A, tol).star_dmp()
