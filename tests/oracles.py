"""Independent oracles used by the tests.

These deliberately avoid the package's own computation paths: exact rank and
exact powers go through sympy's rational/symbolic arithmetic, the rank chain
of a float matrix's powers through mpmath's 50-digit singular values, and
the pseudo-core oracle solves a stacked linear system in the unknown entries
of the inverse rather than composing factor inverses.
"""

import numpy as np
import sympy as sp
from mpmath import mp


def exact_rank(rows):
    """Rank by exact elimination; entries must be sympy-friendly literals."""
    return int(sp.Matrix(rows).rank())


def exact_power_is_zero(rows, k):
    """Is the k-th power exactly zero, by symbolic multiplication?"""
    M = sp.Matrix(rows)
    return (M ** k).is_zero_matrix


def mp_power_ranks(A, rank_rel_tol=1e-10, dps=50):
    """Ranks of A^0, A^1, ..., A^n, from ``dps``-digit singular values.

    The powers are formed in ``dps``-digit arithmetic from the exact binary
    entries of A, so no rounding of a float64 power enters.  The singular
    values of A^j are judged against ``rank_rel_tol * ||A||_2^j``, the
    largest that ||A^j||_2 can be.

    Valid range: the core part of A^j has singular values of about λ^j, λ
    the smallest core eigenvalue of A in modulus, so once λ^j falls below
    ``rank_rel_tol * ||A||_2^j`` the oracle counts that part as nilpotent.
    By j = n this happens whenever λ < rank_rel_tol^(1/n) * ||A||_2.  The
    oracle therefore referees only matrices whose λ exceeds about
    (1e-10)^(1/n) * ||A||_2 at the default tolerance.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    with mp.workdps(dps):
        X = mp.matrix(A.tolist())
        norm = max(mp.svd_c(X, compute_uv=False))
        ranks, P = [n], mp.eye(n)
        for j in range(1, n + 1):
            P = P * X
            cut = rank_rel_tol * norm ** j
            ranks.append(sum(1 for s in mp.svd_c(P, compute_uv=False)
                             if s > cut))
    return ranks


def _commutation_matrix(n):
    P = np.zeros((n * n, n * n))
    for i in range(n):
        for j in range(n):
            P[j + i * n, i + j * n] = 1.0
    return P


def _realify(S, rhs):
    return (np.block([[S.real, -S.imag], [S.imag, S.real]]),
            np.concatenate([rhs.real, rhs.imag]))


def pseudo_core_linear_oracle(A, rank_rel_tol=1e-10):
    """Solve for the pseudo core inverse as a dense linear system.

    The defining triple contains one equation quadratic in the unknown X
    (A X^2 = X), so the system stacks an equivalent linear characterization:

        X A^(k+1) = A^k,   range(X) inside range(A^k),   (A X)* = A X,

    realified over the 2 n^2 real unknowns.  Returns (X, unique) where
    ``unique`` records whether the stacked system has full column rank; the
    caller should separately confirm X satisfies all three original defining
    equations, which closes the loop on the equivalence.
    """
    A = np.asarray(A, dtype=np.complex128)
    n = A.shape[0]
    ranks = [n]
    scaled = {0: np.eye(n, dtype=np.complex128)}
    P = np.eye(n, dtype=np.complex128)
    dead = False
    for j in range(1, n + 1):
        if not dead:
            P = P @ A
            nf = np.linalg.norm(P)
            # below this the true power is zero and P is rounding noise
            dead = nf <= rank_rel_tol * max(np.linalg.norm(A), 1e-300)
            P = np.zeros_like(A) if dead else P / nf
        scaled[j] = P
        if dead:
            ranks.append(0)
        else:
            s = np.linalg.svd(P, compute_uv=False)
            ranks.append(int(np.sum(s > rank_rel_tol * s[0])) if s[0] > 0 else 0)
    k = next((i for i in range(n) if ranks[i] == ranks[i + 1]), n)
    k = max(k, 1)

    if ranks[k] == 0:
        Ak = np.zeros_like(A)
        Ak1 = np.zeros_like(A)
        r = 0
    else:
        Ak = np.linalg.matrix_power(A, k)
        Ak1 = np.linalg.matrix_power(A, k + 1)
        U, s, _ = np.linalg.svd(scaled[k])
        r = ranks[k]
    Pi = U[:, :r] @ U[:, :r].conj().T if r else np.zeros_like(A)

    eye = np.eye(n)
    M1 = np.kron(Ak1.T, eye)                 # vec(X A^(k+1))
    b1 = Ak.flatten(order="F")
    M2 = np.kron(eye, eye - Pi)              # vec((I - Pi) X)
    b2 = np.zeros(n * n, dtype=np.complex128)
    R1, rb1 = _realify(M1, b1)
    R2, rb2 = _realify(M2, b2)

    # (A X)* = A X realified by hand: y = (I kron A) vec(X) must satisfy
    # Re(y) = P Re(y) and Im(y) = -P Im(y) with P the transposition permutation.
    T = np.kron(eye, A)
    Pn = _commutation_matrix(n)
    Tr, Ti = T.real, T.imag
    R3 = np.block([
        [Tr - Pn @ Tr, -(Ti - Pn @ Ti)],
        [Ti + Pn @ Ti, Tr + Pn @ Tr],
    ])
    rb3 = np.zeros(2 * n * n)

    M = np.vstack([R1, R2, R3])
    rhs = np.concatenate([rb1, rb2, rb3])
    sol, *_ = np.linalg.lstsq(M, rhs, rcond=None)
    sv = np.linalg.svd(M, compute_uv=False)
    unique = bool(sv[-1] > 1e-8 * sv[0])
    X = (sol[: n * n] + 1j * sol[n * n:]).reshape((n, n), order="F")
    return X, unique


def defining_triple_max_residual(A, X, k):
    """Max relative residual of the three defining equations (plain numpy)."""
    A = np.asarray(A, dtype=np.complex128)
    X = np.asarray(X, dtype=np.complex128)
    Ak = np.linalg.matrix_power(A, k)
    AX = A @ X
    r1 = np.linalg.norm(X @ A @ Ak - Ak) / max(1.0, np.linalg.norm(Ak))
    r2 = np.linalg.norm(A @ X @ X - X) / max(1.0, np.linalg.norm(X))
    r3 = np.linalg.norm(AX - AX.conj().T) / max(1.0, np.linalg.norm(AX))
    return max(r1, r2, r3)


def group_inverse_factorization_oracle(A, rank_rel_tol=1e-12):
    """Group inverse via full-rank factorization: A = FG, X = F (GF)^-2 G."""
    A = np.asarray(A, dtype=np.complex128)
    U, s, Vh = np.linalg.svd(A)
    r = int(np.sum(s > rank_rel_tol * s[0])) if s.size and s[0] > 0 else 0
    if r == 0:
        return np.zeros_like(A)
    F = U[:, :r] * s[:r]
    G = Vh[:r]
    GF = G @ F
    return F @ np.linalg.matrix_power(np.linalg.inv(GF), 2) @ G


def first_vanishing_sum_direct(lefts, mids, right, residual_tol, lo, hi):
    """First m in [lo, hi] at which the coupling sum
    S_m = sum_{i=1..m} (prod_f f^(i-1)) (prod mids) right^(m-i)
    vanishes, else 0, by the direct double loop: each S_m from scratch,
    every term's powers from ``matrix_power``, and the scale
    sum_i prod ||factor|| over the term's factors, taken left to right.
    """
    for m in range(lo, hi + 1):
        total = 0.0
        scale = 0.0
        for i in range(1, m + 1):
            factors = ([np.linalg.matrix_power(f, i - 1) for f in lefts]
                       + list(mids) + [np.linalg.matrix_power(right, m - i)])
            term, norm = factors[0], np.linalg.norm(factors[0])
            for f in factors[1:]:
                term = term @ f
                norm *= np.linalg.norm(f)
            total = total + term
            scale += norm
        if np.linalg.norm(total) <= residual_tol * max(1.0, scale):
            return m
    return 0
