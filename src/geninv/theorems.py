"""Checkable predicates for additive and block-matrix pseudo-core identities.

Each ``check_*`` function takes one concrete instance, verifies the
hypotheses of the corresponding identity numerically, verifies its
conclusion, and returns a :class:`TheoremReport` with one entry per check.
A report never raises on a false statement: failed hypotheses yield verdict
``hypotheses_not_met`` and failed conclusions yield ``fail``.

The catalog is keyed by short result ids (``L2_1`` .. ``C4_6`` plus the fixed
worked instance ``EX3_3``); :data:`THEOREM_SYMBOLS` maps each id to the input
symbols it consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _adj,
    _assemble,
    _eye,
    _factors,
    _Named,
    _parsed,
    _power,
    _product,
    _relative,
    _require_square,
    _same_space,
    _tokens,
    _word_residual,
    as_matrix,
    frobenius,
    is_nilpotent_product,
    numerical_rank,
    rel_residual,
    zero_product,
)
from .inverses import (
    _CoreEP,
    _residuals,
    index,
    one_three,
    pseudo_core,
)

__all__ = [
    "Check",
    "TheoremReport",
    "check_lemma_2_1",
    "check_lemma_2_2",
    "check_lemma_2_3",
    "check_lemma_2_4",
    "check_lemma_2_5",
    "check_lemma_2_5_converse",
    "check_theorem_3_1",
    "check_corollary_3_2",
    "reproduce_example_3_3",
    "check_theorem_1_1",
    "check_theorem_4_1",
    "check_corollary_4_2",
    "check_theorem_4_3",
    "check_corollary_4_4",
    "check_theorem_4_5",
    "check_corollary_4_6",
    "COUPLING",
    "THEOREM_SYMBOLS",
    "run_check",
]


@dataclass
class Check:
    """One verified condition: a residual or truth value plus its verdict."""

    label: str
    value: object
    passed: bool


@dataclass
class TheoremReport:
    """Structured verdict for one identity on one instance."""

    theorem_id: str
    hypothesis_checks: list = field(default_factory=list)
    conclusion_checks: list = field(default_factory=list)
    witnesses: dict = field(default_factory=dict)
    policy: TolerancePolicy = DEFAULT_POLICY

    @property
    def verdict(self) -> str:
        """``hypotheses_not_met``, ``fail`` or ``pass``, read off the checks."""
        if any(not c.passed for c in self.hypothesis_checks):
            return "hypotheses_not_met"
        if any(not c.passed for c in self.conclusion_checks):
            return "fail"
        return "pass"


def _res(label, value, tol) -> Check:
    return Check(label, float(value), float(value) <= tol.residual_tol)


def _eq(label, value, tol) -> Check:
    return Check(label, float(value), float(value) <= tol.eq_rel_tol)


def _certified(label, result, tol) -> Check:
    """The certificate of a :class:`GenInverseResult`: its largest residual
    against the residual threshold."""
    return Check(label, result.max_residual, result.certified(tol))


def _pair(a, b):
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square shapes, got {a.shape}, {b.shape}")
    return a, b


# ---------------------------------------------------------------------------
# Word hypotheses over an instance's symbols.  Equations are (label, lhs,
# rhs); vanishing products are (label, word), judged by :func:`zero_product`.

_AB_BD = ("AB_equals_BD", "AB", "BD")
_ASTAR_B = ("Astar_B_equals_B_Dstar", "A*B", "BD*")
_DSTAR_C = ("Dstar_C_equals_C_Astar", "D*C", "CA*")
_A_CSTAR = ("A_Cstar_equals_Cstar_D", "AC*", "C*D")
_SHARED = (_AB_BD, ("DC_equals_CA", "DC", "CA"))
_COMMUTATION = (("ab_equals_ba", "ab", "ba"),
                ("astar_b_equals_b_astar", "a*b", "ba*"))
_BC_CB_ZERO = (("BC_zero", "BC"), ("CB_zero", "CB"))


# Each id's equations, in report order; T4_1..C4_4 share AB = BD, DC = CA.
_EQUATIONS = _parsed({
    **dict.fromkeys(("L2_1", "L2_2", "T3_1", "C3_2"), _COMMUTATION),
    "T4_1": (*_SHARED, _ASTAR_B, _DSTAR_C),
    "C4_2": (*_SHARED, _DSTAR_C, _ASTAR_B),
    "T4_3": (*_SHARED, ("Bstar_A_equals_D_Bstar", "B*A", "DB*")),
    "C4_4": (*_SHARED, _A_CSTAR),
    "T4_5": (("CA_equals_DC", "CA", "DC"), _A_CSTAR),
    "C4_6": (_AB_BD, _ASTAR_B),
})

# Each id's vanishing products, reported before its equations.
_VANISHING = _parsed({
    "L2_3": (("ab_zero", "ab"), ("ba_zero", "ba"), ("astar_b_zero", "a*b")),
    "T4_5": _BC_CB_ZERO,
    "C4_6": _BC_CB_ZERO,
})


def _report(theorem_id, named, tol) -> TheoremReport:
    """A report of the id holding its word hypotheses, judged on the matrices
    that ``named`` maps the symbols to."""
    report = TheoremReport(theorem_id, policy=tol)
    checks, named = report.hypothesis_checks, _Named(named)
    for label, word in _VANISHING.get(theorem_id, ()):
        value, ok = zero_product(_factors(word, named), tol)
        checks.append(Check(label, value, ok))
    for label, lhs, rhs in _EQUATIONS.get(theorem_id, ()):
        checks.append(_res(label, _word_residual(lhs, rhs, named), tol))
    return report


# ---------------------------------------------------------------------------
# Additive lemmas


def check_lemma_2_1(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """If ab = ba and a*b = ba*, the pseudo core inverse of a commutes with b."""
    a, b = _pair(a, b)
    report = _report("L2_1", {"a": a, "b": b}, tol)
    X = _CoreEP(a, tol).pcore_inverse()
    report.conclusion_checks = [
        _eq("pcore_commutes_with_b", rel_residual(X @ b, b @ X), tol),
    ]
    report.witnesses["a_pcore"] = X
    return report


def check_lemma_2_2(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Under the same hypotheses, (ab) has pseudo core inverse a_pc . b_pc."""
    a, b = _pair(a, b)
    report = _report("L2_2", {"a": a, "b": b}, tol)
    apc = _CoreEP(a, tol).pcore_inverse()
    bpc = _CoreEP(b, tol).pcore_inverse()
    prod = pseudo_core(a @ b, tol)
    report.conclusion_checks = [
        _certified("product_certified", prod, tol),
        _eq("factorized_form", rel_residual(prod.inverse, apc @ bpc), tol),
    ]
    report.witnesses["ab_pcore"] = prod.inverse
    return report


def check_lemma_2_3(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """If ab = ba = 0 and a*b = 0 then a + b has a pseudo core inverse."""
    a, b = _pair(a, b)
    report = _report("L2_3", {"a": a, "b": b}, tol)
    rs = _CoreEP(a + b, tol)
    spc = rs.pseudo_core()
    report.conclusion_checks = [_certified("sum_certified", spc, tol)]
    # Informational: how close a_pc + b_pc comes to the sum's defining
    # triple, against the power A^max(k,1) that the sum's record holds;
    # None when the candidate overflows.
    with np.errstate(over="ignore"):
        candidate = (_CoreEP(a, tol).pcore_inverse()
                     + _CoreEP(b, tol).pcore_inverse())
    report.witnesses["sum_pcore"] = spc.inverse
    report.witnesses["additive_candidate_residuals"] = (
        _residuals("pseudo_core", rs.A, candidate, rs.exact_power)
        if np.isfinite(candidate).all() else None)
    return report


def check_lemma_2_4(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """(1 - a_pc a) b = 0 and (1 - a a_pc) b = 0 hold or fail together."""
    a, b = _pair(a, b)
    report = TheoremReport("L2_4", policy=tol)
    X = _CoreEP(a, tol).pcore_inverse()
    eye = _eye(a.shape[0])
    _, left = zero_product([eye - X @ a, b], tol)
    _, right = zero_product([eye - a @ X, b], tol)
    report.conclusion_checks = [
        Check("annihilation_equivalence", left == right, left == right),
    ]
    report.witnesses["left_annihilates"] = left
    report.witnesses["right_annihilates"] = right
    return report


def _first_vanishing_sum(lefts, mids, right, tol, lo, hi):
    """First m in [lo, hi] at which the coupling sum
    S_m = sum_{i=1..m} (prod_f f^(i-1)) (prod mids) right^(m-i)
    vanishes against its factor scale, else 0.

    One pass: S_{m+1} = S_m right + (prod_f f^m)(prod mids), each power
    formed once, when the sweep reaches it.  The scale
    sum_i prod_f ||f^(i-1)|| prod ||mid|| ||right^(m-i)|| is summed from
    cached norms, each product taken left to right.
    """
    K = reduce(np.matmul, mids)
    mid_norms = [frobenius(mid) for mid in mids]
    left_norms, right_norms = [], []
    total = np.zeros_like(K)
    for m in range(1, hi + 1):
        powers = [_power(f, m - 1) for f in lefts]
        left_norms.append(math.prod([*map(frobenius, powers), *mid_norms]))
        right_norms.append(frobenius(_power(right, m - 1)))
        total = total @ right + reduce(np.matmul, powers) @ K
        if m < lo:
            continue
        scale = 0.0
        for left_norm, right_norm in zip(left_norms, reversed(right_norms)):
            scale += left_norm * right_norm
        if _relative(frobenius(total), scale) <= tol.residual_tol:
            return m
    return 0


def _sum_window(ia, idd, n):
    """Search window [lo, hi] for the coupling-sum exponent, from the
    indices of the diagonal blocks and the larger block dimension."""
    return max(ia, 1), ia + idd + n


def _diagonal_blocks(a, b, d, tol):
    """The checks a_certified, d_certified and coupling_sum_vanishes of the
    triangular x = [[a, b], [0, d]], and the least m at which its coupling
    sum vanishes inside the search window (0 if it does nowhere)."""
    ra = _CoreEP(a, tol)
    apc = ra.pseudo_core()
    dpc = pseudo_core(d, tol)
    lo, hi = _sum_window(apc.index_used, dpc.index_used,
                         max(a.shape[0], d.shape[0]))
    m = _first_vanishing_sum([a], [ra.spectral_idempotent(), b], d, tol, lo, hi)
    return [
        _certified("a_certified", apc, tol),
        _certified("d_certified", dpc, tol),
        Check("coupling_sum_vanishes", m, m > 0),
    ], m


def _triangular_pcore(x, split, tol):
    """The checks x_certified and pcore_upper_triangular of x, whose leading
    diagonal block has size ``split``, and x's pseudo core inverse."""
    xpc = pseudo_core(x, tol)
    ll_value = _relative(frobenius(xpc.inverse[split:, :split]),
                         frobenius(xpc.inverse))
    return [
        _certified("x_certified", xpc, tol),
        _res("pcore_upper_triangular", ll_value, tol),
    ], xpc.inverse


def check_lemma_2_5(a, b, d, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Triangular completion: if the coupling sum vanishes for some admissible
    exponent, x = [[a, b], [0, d]] has an upper-triangular pseudo core inverse.
    """
    a, d = as_matrix(a), as_matrix(d)
    b = as_matrix(b)
    na, nd = a.shape[0], d.shape[0]
    if a.shape != (na, na) or d.shape != (nd, nd) or b.shape != (na, nd):
        raise ValueError(
            f"expected shapes (na,na), (na,nd), (nd,nd); got {a.shape}, "
            f"{b.shape}, {d.shape}")
    report = TheoremReport("L2_5a", policy=tol)
    report.hypothesis_checks, m = _diagonal_blocks(a, b, d, tol)
    x = _assemble(a, b, np.zeros((nd, na), dtype=np.complex128), d)
    report.conclusion_checks, xpc = _triangular_pcore(x, na, tol)
    report.witnesses["m"] = m
    report.witnesses["x_pcore"] = xpc
    return report


def check_lemma_2_5_converse(x, split: int,
                             tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Converse direction: an upper-triangular pseudo core inverse forces the
    diagonal blocks to be invertible in the pseudo-core sense and the coupling
    sum to vanish inside the search window.
    """
    x = _require_square(x)
    n = x.shape[0]
    if isinstance(split, bool) or not isinstance(split, (int, np.integer)):
        raise ValueError(f"split must be an integer, got {split!r}")
    if not (0 < split < n):
        raise ValueError(f"split must lie strictly inside (0, {n}), got {split}")
    lower = x[split:, :split]
    if _relative(frobenius(lower), frobenius(x)) > tol.residual_tol:
        raise ValueError("lower-left block of x must vanish")
    a, b, d = x[:split, :split], x[:split, split:], x[split:, split:]
    report = TheoremReport("L2_5b", policy=tol)
    report.hypothesis_checks, xpc = _triangular_pcore(x, split, tol)
    report.conclusion_checks, m = _diagonal_blocks(a, b, d, tol)
    report.witnesses["m"] = m
    report.witnesses["x_pcore"] = xpc
    return report


# ---------------------------------------------------------------------------
# Main additive equivalence


def check_theorem_3_1(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Equivalence for commuting perturbations: the sum a + b has a pseudo
    core inverse annihilated in the stated corner iff the perturbation of the
    identity 1 + a_pc b has one and a coupling sum vanishes for some
    admissible exponent.  Both sides are evaluated independently and compared.
    """
    a, b = _pair(a, b)
    report = _report("T3_1", {"a": a, "b": b}, tol)

    eye = _eye(a.shape[0])
    ra = _CoreEP(a, tol)
    apc = ra.pcore_inverse()
    api = ra.spectral_idempotent()
    s = a + b
    spc = pseudo_core(s, tol)
    ann_value, ann_zero = zero_product([api, spc.inverse, a, apc], tol)
    lhs = spc.certified(tol) and ann_zero

    w = eye + apc @ b
    rw = _CoreEP(w, tol)
    wpc = rw.pseudo_core()
    kw = rw.k
    mids = [rw.spectral_idempotent(), a, a @ apc - apc @ a]
    m = _first_vanishing_sum([w, a], mids, s, tol, max(kw, 1), kw + a.shape[0])
    rhs = wpc.certified(tol) and m > 0

    report.conclusion_checks = [
        Check("equivalence", lhs == rhs, lhs == rhs),
    ]
    report.witnesses.update({
        "lhs": lhs,
        "rhs": rhs,
        "m": m,
        "sum_pcore": spc.inverse,
        "perturbation_pcore": wpc.inverse,
        "annihilation_value": ann_value,
    })
    return report


def check_corollary_3_2(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Star-DMP specialization: the corner condition is automatic, so both
    existence certificates must hold outright."""
    a, b = _pair(a, b)
    report = _report("C3_2", {"a": a, "b": b}, tol)
    ra = _CoreEP(a, tol)
    star, witness = ra.star_dmp()
    report.hypothesis_checks.insert(0, Check("a_star_dmp", star, star))

    X = ra.pcore_inverse()
    bracket_value = _relative(frobenius(a @ X - X @ a),
                              frobenius(a) * frobenius(X))
    spc = pseudo_core(a + b, tol)
    eye = _eye(a.shape[0])
    wpc = pseudo_core(eye + X @ b, tol)
    report.conclusion_checks = [
        _res("pcore_commutes_with_a", bracket_value, tol),
        _certified("sum_certified", spc, tol),
        _certified("perturbation_certified", wpc, tol),
    ]
    report.witnesses["star_dmp_exponent"] = witness
    return report


_EX33_NOTE = (
    "a + b remains pseudo-core invertible over the complex matrices (the "
    "inverse is computed and certified below); what fails for this pair is "
    "the commutation hypothesis ab = ba together with the corner "
    "annihilation condition, whose matrix has rank 1."
)


def reproduce_example_3_3(tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Fixed 2x2 instance showing the commutation hypotheses are necessary."""
    a = np.array([[1j, 0], [0, 0]], dtype=np.complex128)
    b = np.array([[0, 0], [1, 0]], dtype=np.complex128)
    report = TheoremReport("EX3_3", policy=tol)

    ra = _CoreEP(a, tol)
    apc = ra.pcore_inverse()
    bpc = _CoreEP(b, tol).pcore_inverse()
    eye = _eye(2)
    w = eye + apc @ b
    wpc = pseudo_core(w, tol)
    expected_apc = np.array([[-1j, 0], [0, 0]], dtype=np.complex128)

    commutator = a @ b - b @ a
    spc = _CoreEP(a + b, tol).pcore_inverse()
    annihilation = ra.spectral_idempotent() @ spc @ a @ apc
    expected_ann = np.array([[0, 0], [-0.5, 0]], dtype=np.complex128)
    commutator_rank = numerical_rank(commutator, tol)
    annihilation_rank = numerical_rank(annihilation, tol)

    report.conclusion_checks = [
        _eq("a_pcore_value", rel_residual(apc, expected_apc), tol),
        _eq("b_pcore_zero", frobenius(bpc), tol),
        _eq("perturbation_is_identity", rel_residual(w, eye), tol),
        _certified("perturbation_certified", wpc, tol),
        Check("ab_differs_from_ba", commutator_rank, commutator_rank > 0),
        _eq("annihilation_matrix_value",
            rel_residual(annihilation, expected_ann), tol),
        Check("annihilation_rank_one", annihilation_rank,
              annihilation_rank == 1),
    ]
    report.witnesses.update({
        "a_pcore": apc,
        "b_pcore": bpc,
        "sum_pcore": spc,
        "annihilation": annihilation,
        "note": _EX33_NOTE,
    })
    return report


def check_theorem_1_1(A, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Cross-check of the equivalent existence routes on one instance."""
    A = _require_square(A)
    report = TheoremReport("T1_1", policy=tol)
    rA = _CoreEP(A, tol)
    # the power taken from the decomposition has rank exactly r, so the
    # rank-based range comparisons below are not polluted by rounding dust
    Ak = rA.scaled_power()
    apc = rA.pseudo_core()
    adr = rA.drazin()
    a13 = one_three(Ak, tol)
    X = apc.inverse
    rAk = _CoreEP(Ak, tol)
    core_m = rAk.core()
    # rank(A^k) is the one core_m took, and rank(X) serves both comparisons
    rank_x, Xstar = numerical_rank(X, tol), _adj(X)
    power_range = _same_space(Ak, X, rAk.rank, rank_x, tol)
    adjoint_range = _same_space(X, Xstar, rank_x, numerical_rank(Xstar, tol),
                                tol)
    power_index = rAk.k
    report.conclusion_checks = [
        _certified("pcore_certified", apc, tol),
        _certified("drazin_certified", adr, tol),
        _certified("power_one_three_certified", a13, tol),
        Check("range_power_equals_range_pcore", power_range, power_range),
        Check("range_pcore_equals_range_adjoint", adjoint_range, adjoint_range),
        Check("power_index_at_most_one", power_index, power_index <= 1),
        _certified("power_core_certified", core_m, tol),
    ]
    report.witnesses["k"] = max(rA.k, 1)
    return report


# ---------------------------------------------------------------------------
# Block-operator results


def _validate_blocks(A, B, C, D):
    A, B, C, D = as_matrix(A), as_matrix(B), as_matrix(C), as_matrix(D)
    nA, nD = A.shape[0], D.shape[0]
    if A.shape != (nA, nA) or D.shape != (nD, nD):
        raise ValueError("diagonal blocks must be square")
    if B.shape != (nA, nD) or C.shape != (nD, nA):
        raise ValueError(
            f"off-diagonal blocks must have shapes ({nA},{nD}) and "
            f"({nD},{nA}); got {B.shape}, {C.shape}")
    return A, B, C, D


# Each intertwined result's nilpotent coupling product, a word over the blocks
# and the letters of _PCORE, read by the checks and the generators alike.
COUPLING = {tid: _tokens(word) for tid, word in (
    ("T4_1", "aBdC"), ("C4_2", "BdCa"), ("T4_3", "BqDCpA"), ("C4_4", "ApBDqC"))}

# Each derived letter and the word it is the pseudo core inverse of.
_PCORE = {letter: _tokens(word) for letter, word in (
    ("a", "A"), ("d", "D"), ("p", "BC"), ("q", "CB"))}


def _derive(theorem_id, named, tol=DEFAULT_POLICY):
    """``named`` with the pseudo core inverse of each derived letter of the
    id's coupling word added, once the letter's own word is drawn."""
    for letter in COUPLING[theorem_id]:
        word = _PCORE.get(letter)
        if word and letter not in named and all(k[0] in named for k in word):
            named[letter] = _CoreEP(_product(word, named), tol).pcore_inverse()
    return named


def _m_certified_check(M, tol):
    mpc = pseudo_core(M, tol)
    return _certified("m_certified", mpc, tol), mpc


def _dual_check(A, B, C, D, tol):
    """The m_certified check on the conjugate-transpose arrangement
    [[A*, C*], [B*, D*]] = M*, through which each corollary mirrors its
    theorem.  Assembled from the starred blocks, as the mirrored theorem
    does, so the certificate equals that theorem's bit for bit."""
    Mstar = _assemble(_adj(A), _adj(C), _adj(B), _adj(D))
    return _certified("dual_arrangement_certified", pseudo_core(Mstar, tol),
                      tol)


def _intertwined_report(theorem_id, A, B, C, D, tol):
    """The unfinished report of an intertwined result on validated blocks:
    its equations and the nilpotency of its coupling product as hypotheses,
    the certificate of M = [[A, B], [C, D]] as conclusion.  Returns the
    report and M's pseudo core result, to which the caller adds its own."""
    named = _derive(theorem_id, _Named(A=A, B=B, C=C, D=D), tol)
    report = _report(theorem_id, named, tol)
    nilp = is_nilpotent_product(_factors(COUPLING[theorem_id], named), tol)
    report.hypothesis_checks.append(Check("coupling_nilpotent", nilp, nilp))
    cert, mpc = _m_certified_check(_assemble(A, B, C, D), tol)
    report.conclusion_checks = [cert]
    report.witnesses["m_pcore"] = mpc.inverse
    return report, mpc


def check_theorem_4_1(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Intertwined blocks with nilpotent coupling A_pc B D_pc C give the
    block matrix a pseudo core inverse."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report, mpc = _intertwined_report("T4_1", A, B, C, D, tol)
    report.witnesses["m_pcore_residuals"] = mpc.residuals
    return report


def check_corollary_4_2(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_1 with the coupling product taken the other way round,
    B D_pc C A_pc; verified through the conjugate-transpose block
    arrangement."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report, _ = _intertwined_report("C4_2", A, B, C, D, tol)
    report.conclusion_checks.append(_dual_check(A, B, C, D, tol))
    return report


def check_theorem_4_3(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Anti-diagonal splitting: three intertwinings plus a nilpotent coupling
    B (CB)_pc D C (BC)_pc A give the block matrix a pseudo core inverse; the
    anti-diagonal part Q additionally satisfies Q_pc = Q (Q^2)_pc."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report, _ = _intertwined_report("T4_3", A, B, C, D, tol)
    nA, nD = A.shape[0], D.shape[0]
    Q = _assemble(np.zeros((nA, nA), dtype=np.complex128), B,
                  C, np.zeros((nD, nD), dtype=np.complex128))
    qpc = _CoreEP(Q, tol).pcore_inverse()
    q2pc = _CoreEP(Q @ Q, tol).pcore_inverse()
    report.conclusion_checks.append(
        _eq("antidiagonal_square_identity", rel_residual(qpc, Q @ q2pc), tol))
    return report


def check_corollary_4_4(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_3 with the starred intertwining moved onto C; the
    coupling product is A (BC)_pc B D (CB)_pc C."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report, _ = _intertwined_report("C4_4", A, B, C, D, tol)
    report.conclusion_checks.append(_dual_check(A, B, C, D, tol))
    return report


def check_theorem_4_5(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Zero-product coupling: BC = CB = 0 with one-sided intertwining and a
    vanishing triangular sum give the block matrix a pseudo core inverse."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report = _report("T4_5", dict(A=A, B=B, C=C, D=D), tol)
    rA = _CoreEP(A, tol)
    iA = m = rA.k       # at index 0 the sum is empty and vanishes
    if iA:
        coupling = ([A], [rA.spectral_idempotent(), B], D)
        m = _first_vanishing_sum(*coupling, tol, iA, iA)
        if not m:       # search on past index(A); only now is D analysed
            _, hi = _sum_window(iA, index(D, tol), max(A.shape[0], D.shape[0]))
            m = _first_vanishing_sum(*coupling, tol, iA + 1, hi)
    primary = m == iA
    report.hypothesis_checks.append(
        Check("coupling_sum_vanishes", m, primary or m > 0))
    cert, mpc = _m_certified_check(_assemble(A, B, C, D), tol)
    report.conclusion_checks = [cert]
    report.witnesses["sum_at_index_vanishes"] = primary
    report.witnesses["m"] = m
    report.witnesses["m_pcore"] = mpc.inverse
    return report


def check_corollary_4_6(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_5: the sum condition collapses to C annihilating the
    nilpotent-part powers of A; verified through the conjugate-transpose
    arrangement as well."""
    A, B, C, D = _validate_blocks(A, B, C, D)
    report = _report("C4_6", dict(A=A, B=B, C=C, D=D), tol)
    pi_sum, scale = _CoreEP(A, tol).nilpotent_power_sum()
    sum_value = _relative(frobenius(C @ pi_sum), frobenius(C) * scale)
    report.hypothesis_checks.append(
        _res("C_kills_nilpotent_powers", sum_value, tol))
    cert, mpc = _m_certified_check(_assemble(A, B, C, D), tol)
    report.conclusion_checks = [cert, _dual_check(A, B, C, D, tol)]
    report.witnesses["m_pcore"] = mpc.inverse
    return report


# ---------------------------------------------------------------------------
# Catalog

# Each id's input symbols, in the order its checker takes them, and the
# checker itself.
_CATALOG = {
    "L2_1": (("a", "b"), check_lemma_2_1),
    "L2_2": (("a", "b"), check_lemma_2_2),
    "L2_3": (("a", "b"), check_lemma_2_3),
    "L2_4": (("a", "b"), check_lemma_2_4),
    "L2_5a": (("a", "b", "d"), check_lemma_2_5),
    "L2_5b": (("x", "split"), check_lemma_2_5_converse),
    "T1_1": (("A",), check_theorem_1_1),
    "T3_1": (("a", "b"), check_theorem_3_1),
    "C3_2": (("a", "b"), check_corollary_3_2),
    "EX3_3": ((), reproduce_example_3_3),
    "T4_1": (("A", "B", "C", "D"), check_theorem_4_1),
    "C4_2": (("A", "B", "C", "D"), check_corollary_4_2),
    "T4_3": (("A", "B", "C", "D"), check_theorem_4_3),
    "C4_4": (("A", "B", "C", "D"), check_corollary_4_4),
    "T4_5": (("A", "B", "C", "D"), check_theorem_4_5),
    "C4_6": (("A", "B", "C", "D"), check_corollary_4_6),
}

THEOREM_SYMBOLS = {tid: symbols for tid, (symbols, _) in _CATALOG.items()}


def run_check(theorem_id: str, instance: dict,
              tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Dispatch an instance (symbol name -> value) to the catalog checker."""
    if theorem_id not in _CATALOG:
        raise KeyError(f"unknown theorem id {theorem_id!r}; "
                       f"known: {sorted(_CATALOG)}")
    symbols, checker = _CATALOG[theorem_id]
    missing = [s for s in symbols if s not in instance]
    if missing:
        raise ValueError(f"{theorem_id} requires symbols {list(symbols)}; "
                         f"missing {missing}")
    args = [instance[s] for s in symbols]
    return checker(*args, tol=tol)
