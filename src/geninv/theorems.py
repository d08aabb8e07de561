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
from itertools import count, islice

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    TolerancePolicy,
    _assemble,
    _eye,
    _factors,
    _Named,
    _parsed,
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
from .inverses import _CoreEP, _one_three, _residuals

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
# Words over an instance's letters.  Equations are (label, lhs, rhs);
# vanishing products are (label, word), judged by :func:`zero_product`.

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

# Each id's conclusion equalities, judged against eq_rel_tol.  Kept apart
# from _EQUATIONS, every row of which the generators impose on a draw.
_EQUALITIES = _parsed({
    "L2_1": (("pcore_commutes_with_b", "cb", "bc"),),
    "L2_2": (("factorized_form", "h", "cf"),),
    "T4_3": (("antidiagonal_square_identity", "z", "Zy"),),
})

# L2_4's products (1 - a_pc a) b and (1 - a a_pc) b; T3_1's and EX3_3's
# corner a_pi (a+b)_pc a a_pc.
_ANNIHILATIONS = (_tokens("lb"), _tokens("rb"))
_CORNER = _tokens("egac")

# Each intertwined result's nilpotent coupling product, a word over the blocks
# and the derived letters.  The block generators meet it by construction;
# the check tests it.
COUPLING = {tid: _tokens(word) for tid, word in (
    ("T4_1", "aBdC"), ("C4_2", "BdCa"), ("T4_3", "BqDCpA"), ("C4_4", "ApBDqC"))}

# Each id's coupling sum S_m = P sum_{i=1..m} (prod_f f^(i-1)) M R^(m-i):
# its prefix word P, left letters f, mid word M and right letter R ("" for
# none), then its exponent letters.  With k their indices and n their sizes,
# a check searches m from max(k_1, 1) on to sum k + max n; T4_5 takes m = 0,
# the empty sum, at k_1 = 0, and C4_6 takes m = k_1 alone.
_SUMS = {
    **dict.fromkeys(("L2_5a", "L2_5b"), ("", "a", "eb", "d", "ad")),
    "T3_1": ("", "wa", "vak", "s", "w"),
    "T4_5": ("", "A", "EB", "D", "AD"),
    "C4_6": ("C", "A", "E", "", "A"),
}

# Each derived letter, formed from an instance n that does not name it: the
# pseudo core inverse or the spectral idempotent I - X X^D off the record of
# a word's product X; T3_1's w = 1 + a_pc b, commutator k = a a_pc - a_pc a
# and sum s = a + b; L2_4's l = 1 - a_pc a and r = 1 - a a_pc; L2_5's x =
# [[a, b], [0, d]]; T1_1's scaled power K = A^max(k,1); the block matrix
# M = [[A, B], [C, D]], its mirror N = M* = [[A*, C*], [B*, D*]], assembled
# from the starred blocks, and T4_3's antidiagonal Z = [[0, B], [C, 0]].
# The one place a derived matrix is formed.
_DERIVED = {
    "a": lambda n: n.record("A").pcore_inverse,
    "d": lambda n: n.record("D").pcore_inverse,
    "p": lambda n: n.record("BC").pcore_inverse,
    "q": lambda n: n.record("CB").pcore_inverse,
    "c": lambda n: n.record("a").pcore_inverse,
    "f": lambda n: n.record("b").pcore_inverse,
    "g": lambda n: n.record("s").pcore_inverse,
    "h": lambda n: n.record("ab").pcore_inverse,
    "z": lambda n: n.record("Z").pcore_inverse,
    "y": lambda n: n.record("ZZ").pcore_inverse,
    "e": lambda n: n.record("a").spectral_idempotent(),
    "E": lambda n: n.record("A").spectral_idempotent(),
    "v": lambda n: n.record("w").spectral_idempotent(),
    "w": lambda n: _eye(len(n["a"])) + n["c"] @ n["b"],
    "k": lambda n: n["a"] @ n["c"] - n["c"] @ n["a"],
    "s": lambda n: n["a"] + n["b"],
    "l": lambda n: _eye(len(n["a"])) - n["c"] @ n["a"],
    "r": lambda n: _eye(len(n["a"])) - n["a"] @ n["c"],
    "x": lambda n: _assemble(n["a"], n["b"], np.zeros_like(n["b"].T), n["d"]),
    "K": lambda n: n.record("A").scaled_power(),
    "M": lambda n: _assemble(n["A"], n["B"], n["C"], n["D"]),
    "N": lambda n: _assemble(n["A*"], n["C*"], n["B*"], n["D*"]),
    "Z": lambda n: _assemble(np.zeros_like(n["A"]), n["B"], n["C"],
                             np.zeros_like(n["D"])),
}


class _Instance(_Named):
    """An instance's matrices by letter.  A letter of ``_DERIVED`` that the
    instance does not name is formed on first read and kept, and
    :meth:`record` builds the core-EP record of a word's product once, for
    every letter and check that reads it."""

    def __init__(self, tol: TolerancePolicy = DEFAULT_POLICY, **matrices):
        super().__init__(matrices)
        self.tol, self.records = tol, {}

    def __missing__(self, key):
        if key not in _DERIVED:
            return super().__missing__(key)
        value = self[key] = _DERIVED[key](self)
        return value

    def record(self, word) -> _CoreEP:
        """The :class:`_CoreEP` of the product of the word's letters, once."""
        if word not in self.records:
            self.records[word] = _CoreEP(_product(word, self), self.tol)
        return self.records[word]


def _sums(theorem_id, named):
    """Yield (m, S_m, scale_m) for m = 0, 1, 2, ... of the id's coupling sum
    over the instance ``named``, S_0 = 0 the empty sum.

    One pass: S_{m+1} = S_m R + (prod_f f^m) M, each power formed once,
    when the pass reaches it.  The scale
    sum_i prod_f ||f^(i-1)|| prod ||M's factors|| ||R^(m-i)|| is summed from
    cached norms, each product taken left to right, ||R^j|| read as 1 when
    there is no R.  A prefix P multiplies S_m, and ||P|| the summed scale.
    """
    prefix, lefts, mid, right, _ = _SUMS[theorem_id]
    P = _product(prefix, named) if prefix else None
    K = _product(mid, named)
    mid_norms = [frobenius(named[key]) for key in mid]
    left_norms, right_norms = [], []
    total = np.zeros_like(K)
    for m in count():
        scale = 0.0
        for left_norm, right_norm in zip(left_norms, reversed(right_norms)):
            scale += left_norm * right_norm
        if P is None:
            yield m, total, scale
        else:
            yield m, P @ total, frobenius(P) * scale
        powers = [named[f, m] for f in lefts]
        left_norms.append(math.prod([*map(frobenius, powers), *mid_norms]))
        right_norms.append(frobenius(named[right, m]) if right else 1.0)
        if right:
            total = total @ named[right]
        total = total + reduce(np.matmul, powers) @ K


def _least_vanishing(theorem_id, named, tol):
    """The least m in the id's window at which its coupling sum vanishes
    against its scale, else 0.  The letters after the first exponent letter
    are analysed only once the sum at the first m tested has failed."""
    letters = _SUMS[theorem_id][-1]
    k, hi = named.record(letters[0]).k, 0
    for m, S, scale in _sums(theorem_id, named):
        if m < max(k, 1):
            continue
        if _relative(frobenius(S), scale) <= tol.residual_tol:
            return m
        if not hi:
            hi = (sum(named.record(x).k for x in letters)
                  + max(len(named[x]) for x in letters))
        if m == hi:
            return 0


def _report(theorem_id, tol, **matrices):
    """The id's report on the instance of the given matrices, and that
    instance.  Hypotheses: the id's vanishing products, equations, then
    ``COUPLING`` nilpotency; the conclusions open with its equalities."""
    report, named = TheoremReport(theorem_id), _Instance(tol, **matrices)
    checks = report.hypothesis_checks
    for label, word in _VANISHING.get(theorem_id, ()):
        value, ok = zero_product(_factors(word, named), tol)
        checks.append(Check(label, value, ok))
    for label, lhs, rhs in _EQUATIONS.get(theorem_id, ()):
        checks.append(_res(label, _word_residual(lhs, rhs, named), tol))
    if theorem_id in COUPLING:
        nilp = is_nilpotent_product(_factors(COUPLING[theorem_id], named), tol)
        checks.append(Check("coupling_nilpotent", nilp, nilp))
    report.conclusion_checks = [
        _eq(label, _word_residual(lhs, rhs, named), tol)
        for label, lhs, rhs in _EQUALITIES.get(theorem_id, ())]
    return report, named


# ---------------------------------------------------------------------------
# Additive lemmas


def check_lemma_2_1(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """If ab = ba and a*b = ba*, the pseudo core inverse of a commutes with b."""
    a, b = _pair(a, b)
    report, named = _report("L2_1", tol, a=a, b=b)
    report.witnesses["a_pcore"] = named["c"]
    return report


def check_lemma_2_2(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Under the same hypotheses, (ab) has pseudo core inverse a_pc . b_pc."""
    a, b = _pair(a, b)
    report, named = _report("L2_2", tol, a=a, b=b)
    prod = named.record("ab").pseudo_core()
    report.conclusion_checks.insert(
        0, _certified("product_certified", prod, tol))
    report.witnesses["ab_pcore"] = prod.inverse
    return report


def check_lemma_2_3(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """If ab = ba = 0 and a*b = 0 then a + b has a pseudo core inverse."""
    a, b = _pair(a, b)
    report, named = _report("L2_3", tol, a=a, b=b)
    rs = named.record("s")
    spc = rs.pseudo_core()
    report.conclusion_checks = [_certified("sum_certified", spc, tol)]
    # Informational: how close a_pc + b_pc comes to the sum's defining
    # triple, against the power A^max(k,1) that the sum's record holds;
    # None when the candidate overflows.
    with np.errstate(over="ignore"):
        candidate = named["c"] + named["f"]
    report.witnesses["sum_pcore"] = spc.inverse
    report.witnesses["additive_candidate_residuals"] = (
        _residuals("pseudo_core", rs.A, candidate, rs.exact_power)
        if np.isfinite(candidate).all() else None)
    return report


def check_lemma_2_4(a, b, tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """(1 - a_pc a) b = 0 and (1 - a a_pc) b = 0 hold or fail together."""
    a, b = _pair(a, b)
    report, named = _report("L2_4", tol, a=a, b=b)
    left, right = (zero_product(_factors(word, named), tol)[1]
                   for word in _ANNIHILATIONS)
    report.conclusion_checks = [
        Check("annihilation_equivalence", left == right, left == right),
    ]
    report.witnesses["left_annihilates"] = left
    report.witnesses["right_annihilates"] = right
    return report


def _diagonal_blocks(theorem_id, named, tol):
    """The checks a_certified, d_certified and coupling_sum_vanishes of the
    triangular x = [[a, b], [0, d]] over the instance ``named`` of its
    blocks, and the least m at which its coupling sum vanishes inside the
    search window (0 if it does nowhere)."""
    apc, dpc = named.record("a").pseudo_core(), named.record("d").pseudo_core()
    m = _least_vanishing(theorem_id, named, tol)
    return [
        _certified("a_certified", apc, tol),
        _certified("d_certified", dpc, tol),
        Check("coupling_sum_vanishes", m, m > 0),
    ], m


def _triangular_pcore(named, split, tol):
    """The checks x_certified and pcore_upper_triangular of the instance's
    x, whose leading diagonal block has size ``split``, and x's pseudo core
    inverse."""
    xpc = named.record("x").pseudo_core()
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
    report, named = _report("L2_5a", tol, a=a, b=b, d=d)
    report.hypothesis_checks, m = _diagonal_blocks("L2_5a", named, tol)
    report.conclusion_checks, xpc = _triangular_pcore(named, na, tol)
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
    report, named = _report("L2_5b", tol, a=a, b=b, d=d, x=x)
    report.hypothesis_checks, xpc = _triangular_pcore(named, split, tol)
    report.conclusion_checks, m = _diagonal_blocks("L2_5b", named, tol)
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
    report, named = _report("T3_1", tol, a=a, b=b)

    spc = named.record("s").pseudo_core()
    ann_value, ann_zero = zero_product(_factors(_CORNER, named), tol)
    lhs = spc.certified(tol) and ann_zero

    wpc = named.record("w").pseudo_core()
    m = _least_vanishing("T3_1", named, tol)
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
    report, named = _report("C3_2", tol, a=a, b=b)
    star, witness = named.record("a").star_dmp()
    report.hypothesis_checks.insert(0, Check("a_star_dmp", star, star))

    bracket_value = _relative(frobenius(named["k"]),
                              frobenius(a) * frobenius(named["c"]))
    spc = named.record("s").pseudo_core()
    wpc = named.record("w").pseudo_core()
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
    report, named = _report("EX3_3", tol, a=a, b=b)

    apc, w, bpc = named["c"], named["w"], named["f"]
    wpc = named.record("w").pseudo_core()
    expected_apc = np.array([[-1j, 0], [0, 0]], dtype=np.complex128)

    commutator = _product("ab", named) - _product("ba", named)
    spc = named["g"]
    annihilation = _product(_CORNER, named)
    expected_ann = np.array([[0, 0], [-0.5, 0]], dtype=np.complex128)
    commutator_rank = numerical_rank(commutator, tol)
    annihilation_rank = numerical_rank(annihilation, tol)

    report.conclusion_checks = [
        _eq("a_pcore_value", rel_residual(apc, expected_apc), tol),
        _eq("b_pcore_zero", frobenius(bpc), tol),
        _eq("perturbation_is_identity", rel_residual(w, _eye(2)), tol),
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
    report, named = _report("T1_1", tol, A=A)
    rA = named.record("A")
    # the power taken from the decomposition has rank exactly r, so the
    # rank-based range comparisons below are not polluted by rounding dust
    Ak = named["K"]
    apc = rA.pseudo_core()
    adr = rA.drazin()
    X = apc.inverse
    rAk = named.record("K")
    a13 = _one_three(rAk.A, rAk.svd, tol)
    # rank(X) serves both comparisons and X*, which has X's singular values
    rank_x = numerical_rank(X, tol)
    power_range = _same_space(Ak, X, rAk.rank, rank_x, tol)
    adjoint_range = _same_space(X, named["a*"], rank_x, rank_x, tol)
    power_index = rAk.k
    # a power of index > 1 has no core inverse; its check reads null
    power_core = (_certified("power_core_certified", rAk.core(), tol)
                  if power_index <= 1 else
                  Check("power_core_certified", None, False))
    report.conclusion_checks = [
        _certified("pcore_certified", apc, tol),
        _certified("drazin_certified", adr, tol),
        _certified("power_one_three_certified", a13, tol),
        Check("range_power_equals_range_pcore", power_range, power_range),
        Check("range_pcore_equals_range_adjoint", adjoint_range, adjoint_range),
        Check("power_index_at_most_one", power_index, power_index <= 1),
        power_core,
    ]
    report.witnesses["k"] = max(rA.k, 1)
    return report


# ---------------------------------------------------------------------------
# Block-operator results

# The corollaries that mirror their theorem through M*.
_MIRRORED = ("C4_2", "C4_4", "C4_6")


def _block_report(theorem_id, A, B, C, D, tol):
    """The unfinished :func:`_report` of a block result on the blocks A, B,
    C, D, its conclusions led by the certificate of M = [[A, B], [C, D]];
    a mirrored corollary's by that of its mirror M* = [[A*, C*], [B*, D*]]
    too, which is assembled from the starred blocks, as the mirrored
    theorem assembles its M, so the two certificates agree bit for bit.
    Returns the report, the instance and M's pseudo core result, to which
    the caller adds its own checks and witnesses."""
    A, B, C, D = as_matrix(A), as_matrix(B), as_matrix(C), as_matrix(D)
    nA, nD = A.shape[0], D.shape[0]
    if A.shape != (nA, nA) or D.shape != (nD, nD):
        raise ValueError("diagonal blocks must be square")
    if B.shape != (nA, nD) or C.shape != (nD, nA):
        raise ValueError(
            f"off-diagonal blocks must have shapes ({nA},{nD}) and "
            f"({nD},{nA}); got {B.shape}, {C.shape}")
    report, named = _report(theorem_id, tol, A=A, B=B, C=C, D=D)
    mpc = named.record("M").pseudo_core()
    certificates = [_certified("m_certified", mpc, tol)]
    if theorem_id in _MIRRORED:
        npc = named.record("N").pseudo_core()
        certificates.append(_certified("dual_arrangement_certified", npc, tol))
    report.conclusion_checks[:0] = certificates
    return report, named, mpc


def check_theorem_4_1(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Intertwined blocks with nilpotent coupling A_pc B D_pc C give the
    block matrix a pseudo core inverse."""
    report, _, mpc = _block_report("T4_1", A, B, C, D, tol)
    report.witnesses.update(m_pcore=mpc.inverse,
                            m_pcore_residuals=mpc.residuals)
    return report


def check_corollary_4_2(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_1 with the coupling product taken the other way round,
    B D_pc C A_pc; verified through the conjugate-transpose block
    arrangement."""
    report, _, mpc = _block_report("C4_2", A, B, C, D, tol)
    report.witnesses["m_pcore"] = mpc.inverse
    return report


def check_theorem_4_3(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Anti-diagonal splitting: three intertwinings plus a nilpotent coupling
    B (CB)_pc D C (BC)_pc A give the block matrix a pseudo core inverse; the
    anti-diagonal part Z additionally satisfies Z_pc = Z (Z^2)_pc."""
    report, _, mpc = _block_report("T4_3", A, B, C, D, tol)
    report.witnesses["m_pcore"] = mpc.inverse
    return report


def check_corollary_4_4(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_3 with the starred intertwining moved onto C; the
    coupling product is A (BC)_pc B D (CB)_pc C."""
    report, _, mpc = _block_report("C4_4", A, B, C, D, tol)
    report.witnesses["m_pcore"] = mpc.inverse
    return report


def check_theorem_4_5(A, B, C, D,
                      tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Zero-product coupling: BC = CB = 0 with one-sided intertwining and a
    vanishing triangular sum give the block matrix a pseudo core inverse."""
    report, named, mpc = _block_report("T4_5", A, B, C, D, tol)
    iA = named.record("A").k
    m = _least_vanishing("T4_5", named, tol) if iA else 0
    primary = m == iA
    report.hypothesis_checks.append(
        Check("coupling_sum_vanishes", m, primary or m > 0))
    report.witnesses.update(sum_at_index_vanishes=primary, m=m,
                            m_pcore=mpc.inverse)
    return report


def check_corollary_4_6(A, B, C, D,
                        tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """Mirror of T4_5: the sum condition collapses to C annihilating the
    nilpotent-part powers of A; verified through the conjugate-transpose
    arrangement as well."""
    report, named, mpc = _block_report("C4_6", A, B, C, D, tol)
    _, S, scale = next(islice(_sums("C4_6", named), named.record("A").k, None))
    report.hypothesis_checks.append(_res(
        "C_kills_nilpotent_powers", _relative(frobenius(S), scale), tol))
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
