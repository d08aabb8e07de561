"""Generalized inverses of square complex matrices, with certificates.

Six inverse kinds are provided: Moore-Penrose, (1,3), group, Drazin, core and
pseudo core.  Every routine returns a :class:`GenInverseResult` carrying the
computed inverse together with the relative residuals of its defining
equations, so callers can accept or reject against their own policy instead
of trusting the construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _rank_cut,
    _require_square,
    _scaled_powers,
    as_matrix,
    frobenius,
    numerical_rank,
    rel_residual,
    same_column_space,
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
    return _analysis(_require_square(A), tol)[0]


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


def _drazin_matrix(A, P, tol):
    """Drazin inverse through the invariant core subspace range(A^k).

    With U an orthonormal basis of range(A^k) and V one of range((A^k)*),
    the restriction U* A U is invertible and the oblique projector onto the
    core along the nilpotent part is U (V*U)^{-1} V*; the Drazin inverse is
    the restricted inverse composed with that projector.  This avoids the
    ill-conditioned pseudoinverse of a high matrix power.  P is the scaled
    power A^k from :func:`_analysis`.
    """
    r, Ur, Vr = _core_subspace(P, tol)
    if r == 0:
        return np.zeros_like(A)
    Ahat = Ur.conj().T @ A @ Ur
    VU = Vr.conj().T @ Ur
    W0 = np.linalg.solve(VU, Vr.conj().T)
    W = W0 + np.linalg.solve(VU, Vr.conj().T - VU @ W0)  # refine the solve
    return Ur @ (_refined_inverse(Ahat) @ W)


def _pcore_matrix(A, P, tol):
    """U (U* A U)^{-1} U* with U an orthonormal basis of range(A^k).

    P is the scaled power A^k from :func:`_analysis`; a vanished A^k gives
    the zero matrix.
    """
    r, Ur, _ = _core_subspace(P, tol)
    if r == 0:
        return np.zeros_like(A)
    Ahat = Ur.conj().T @ A @ Ur
    return Ur @ (_refined_inverse(Ahat) @ Ur.conj().T)


def _drazin_residuals(A, X, k):
    kk = max(k, 1)
    Ak = np.linalg.matrix_power(A, kk)
    AX = A @ X
    return {
        "d1": rel_residual(X @ A @ Ak, Ak),
        "d2": rel_residual(A @ X @ X, X),
        "commute": frobenius(AX - X @ A) / max(1.0, frobenius(AX)),
    }


def drazin(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """The unique X with X A^(k+1) = A^k, A X^2 = X and AX = XA, k = index(A)."""
    A = _require_square(A)
    k, P = _analysis(A, tol)
    X = _drazin_matrix(A, P, tol)
    return GenInverseResult("drazin", X, k, _drazin_residuals(A, X, k))


def group_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Drazin inverse restricted to index <= 1; also commutes with A."""
    A = _require_square(A)
    k, P = _analysis(A, tol)
    if k > 1:
        raise InverseNotDefinedError("group", k)
    X = _drazin_matrix(A, P, tol)
    AX = A @ X
    residuals = {
        "p1": rel_residual(A @ X @ A, A),
        "p2": rel_residual(X @ A @ X, X),
        "commute": frobenius(AX - X @ A) / max(1.0, frobenius(AX)),
    }
    return GenInverseResult("group", X, 1, residuals)


def spectral_idempotent(A, tol: TolerancePolicy = DEFAULT_POLICY) -> np.ndarray:
    """I - A A^D: the projection onto the nilpotent part along the core."""
    A = _require_square(A)
    return np.eye(A.shape[0], dtype=np.complex128) - A @ drazin(A, tol).inverse


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
    A = _require_square(A)
    k, P = _analysis(A, tol)
    X = _pcore_matrix(A, P, tol)
    residuals = verify_defining_triple(A, X, max(k, 1), tol)
    return GenInverseResult("pseudo_core", X, k, residuals)


def core_inverse(A, tol: TolerancePolicy = DEFAULT_POLICY) -> GenInverseResult:
    """Core inverse for index <= 1: AXA=A with the column space of X equal to
    that of A and the column space of X* equal to that of A.

    Equals the group inverse composed with the orthogonal projector onto
    range(A), i.e. the pseudo core inverse at k = 1.
    """
    A = _require_square(A)
    k, P = _analysis(A, tol)
    if k > 1:
        raise InverseNotDefinedError("core", k)
    X = _pcore_matrix(A, P, tol)
    residuals = {
        "p1": rel_residual(A @ X @ A, A),
        "column_space": 0.0 if same_column_space(X, A, tol) else 1.0,
        "row_space": 0.0 if same_column_space(X.conj().T, A, tol) else 1.0,
    }
    return GenInverseResult("core", X, 1, residuals)


def is_star_dmp(A, tol: TolerancePolicy = DEFAULT_POLICY):
    """Does some power of A have coinciding Moore-Penrose and group inverses?

    Returns (flag, witness_exponent); the witness is 0 when no exponent up to
    the dimension works.  The exponent max(index(A), 1) is tried first since
    A^n has index <= 1 from the index onward.
    """
    A = _require_square(A)
    n = A.shape[0]
    k0 = max(_analysis(A, tol)[0], 1)
    powers = islice(_scaled_powers(A, tol), k0 - 1, n)     # A^k0, ..., A^n
    for m in range(k0, n + 1):
        # collapse-aware power: a vanished A^m is exactly zero, not dust
        Am = next(powers, None)
        if Am is None:
            Am = np.zeros_like(A)
        km, Pm = _analysis(Am, tol)
        if km > 1:
            continue
        mp = _svd_pinv(Am, tol)
        gp = _drazin_matrix(Am, Pm, tol)
        bound = tol.eq_rel_tol * max(1.0, frobenius(mp), frobenius(gp))
        if frobenius(mp - gp) <= bound:
            return True, m
    return False, 0
