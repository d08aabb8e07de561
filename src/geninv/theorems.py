"""Checkable predicates for additive and block-matrix pseudo-core identities.

:func:`run_check` is the one way into a check: it validates one concrete
instance by its id's symbol signature, verifies the hypotheses of the
corresponding identity numerically, verifies its conclusion, and returns a
:class:`TheoremReport` with one entry per check.  A check is rows of tables
over the instance's letters: vanishing products, equations and a coupling
word as hypotheses, equalities as conclusions, certificates
(``_CERTIFICATES``) on either side, and witnesses (``_WITNESSES``), all
judged by ``_report``.  An id with logic of its own adds it through one
small hook, named in ``_CATALOG``.  A report never raises on a false
statement: failed hypotheses yield verdict ``hypotheses_not_met`` and
failed conclusions yield ``fail``.

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
from .inverses import GenInverseResult, _CoreEP, _one_three, _residuals

__all__ = [
    "Check",
    "TheoremReport",
    "reproduce_example_3_3",
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
        self.tol, self.records, self.results = tol, {}, {}

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

    def result(self, word, method) -> GenInverseResult:
        """The result of the word's record's ``method``, ``pseudo_core`` or
        ``drazin``, once: a certificate, a witness and a hook that read it
        share its residuals."""
        if (word, method) not in self.results:
            self.results[word, method] = getattr(self.record(word), method)()
        return self.results[word, method]


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


def _report(theorem_id, named, hook=None):
    """The id's report on the instance ``named``.  Hypotheses: the id's
    vanishing products, equations, then ``COUPLING`` nilpotency; the
    conclusions open with its equalities.  Then the hook, if any, adds its
    own checks and returns its witness values.  Each certificate is formed
    when it takes its place: before the hook when the checks ahead of it
    are rows, else after the hook's checks; on an instance whose inverses
    overflow, that order decides which error is raised.  The witnesses are
    read last, in ``_WITNESSES`` order."""
    tol, report = named.tol, TheoremReport(theorem_id)
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

    def place(rows):
        """Insert each certificate whose side already reaches its place;
        return the others."""
        later = []
        for row in rows:
            label, word, method, side, at = row
            checks = getattr(report, side)
            if at > len(checks):
                later.append(row)
            else:
                checks.insert(
                    at, _certified(label, named.result(word, method), tol))
        return later

    later = place(_CERTIFICATES.get(theorem_id, ()))
    values = hook(report, named, tol) if hook else {}
    place(later)
    report.witnesses = {
        key: values[key] if source is None
        else named[source] if isinstance(source, str)
        else getattr(named.result(source[0], "pseudo_core"), source[1])
        for key, source in _WITNESSES.get(theorem_id, ())}
    return report


# ---------------------------------------------------------------------------
# Certificates and witnesses

_HYP, _CON = "hypothesis_checks", "conclusion_checks"

# Each id's certificates (label, record word, the _CoreEP method that builds
# the result, side, place): the result's largest residual against the
# residual threshold, at that index of the side's checks.  M* is assembled
# from the starred blocks, as the mirrored theorem assembles its M, so a
# corollary's dual_arrangement_certified and its theorem's m_certified agree
# bit for bit.
_M_CERTIFIED = ("m_certified", "M", "pseudo_core", _CON, 0)
_N_CERTIFIED = ("dual_arrangement_certified", "N", "pseudo_core", _CON, 1)
_CERTIFICATES = {
    "L2_2": (("product_certified", "ab", "pseudo_core", _CON, 0),),
    "L2_3": (("sum_certified", "s", "pseudo_core", _CON, 0),),
    "L2_5a": (("a_certified", "a", "pseudo_core", _HYP, 0),
              ("d_certified", "d", "pseudo_core", _HYP, 1),
              ("x_certified", "x", "pseudo_core", _CON, 0)),
    "L2_5b": (("x_certified", "x", "pseudo_core", _HYP, 0),
              ("a_certified", "a", "pseudo_core", _CON, 0),
              ("d_certified", "d", "pseudo_core", _CON, 1)),
    "T1_1": (("pcore_certified", "A", "pseudo_core", _CON, 0),
             ("drazin_certified", "A", "drazin", _CON, 1)),
    "C3_2": (("sum_certified", "s", "pseudo_core", _CON, 1),
             ("perturbation_certified", "w", "pseudo_core", _CON, 2)),
    "EX3_3": (("perturbation_certified", "w", "pseudo_core", _CON, 3),),
    **dict.fromkeys(("T4_1", "T4_3", "T4_5"), (_M_CERTIFIED,)),
    **dict.fromkeys(("C4_2", "C4_4", "C4_6"), (_M_CERTIFIED, _N_CERTIFIED)),
}

# Each id's witnesses (key, source) in report order.  A source is a letter
# of the instance, a pair (word, field) of the pseudo core result of the
# word's record, or None for a value the id's hook returns.
_M_PCORE = ("m_pcore", ("M", "inverse"))
_L2_5_WITNESSES = (("m", None), ("x_pcore", ("x", "inverse")))
_WITNESSES = {
    "L2_1": (("a_pcore", "c"),),
    "L2_2": (("ab_pcore", ("ab", "inverse")),),
    "L2_3": (("sum_pcore", ("s", "inverse")),
             ("additive_candidate_residuals", None)),
    "L2_4": (("left_annihilates", None), ("right_annihilates", None)),
    "L2_5a": _L2_5_WITNESSES,
    "L2_5b": _L2_5_WITNESSES,
    "T1_1": (("k", None),),
    "T3_1": (("lhs", None), ("rhs", None), ("m", None),
             ("sum_pcore", ("s", "inverse")),
             ("perturbation_pcore", ("w", "inverse")),
             ("annihilation_value", None)),
    "C3_2": (("star_dmp_exponent", None),),
    "EX3_3": (("a_pcore", "c"), ("b_pcore", "f"), ("sum_pcore", "g"),
              ("annihilation", None), ("note", None)),
    "T4_1": (_M_PCORE, ("m_pcore_residuals", ("M", "residuals"))),
    **dict.fromkeys(("C4_2", "T4_3", "C4_4", "C4_6"), (_M_PCORE,)),
    "T4_5": (("sum_at_index_vanishes", None), ("m", None), _M_PCORE),
}


# ---------------------------------------------------------------------------
# Hooks: the logic of an id that is not a row.  Each takes the report, the
# instance and the policy, adds its checks, and returns its witness values.


def _additive_candidate(report, named, tol):
    """L2_3's informational witness: how close a_pc + b_pc comes to the
    sum's defining triple, against the power A^max(k,1) that the sum's
    record holds; None when the candidate overflows.  Not a row: the
    candidate is a sum of two inverses, not the result of a record."""
    rs = named.record("s")
    with np.errstate(over="ignore"):
        candidate = named["c"] + named["f"]
    return {"additive_candidate_residuals": (
        _residuals("pseudo_core", rs.A, candidate, rs.exact_power)
        if np.isfinite(candidate).all() else None)}


def _annihilation_equivalence(report, named, tol):
    """L2_4: (1 - a_pc a) b = 0 and (1 - a a_pc) b = 0 hold or fail
    together.  Not a row: the conclusion compares the verdicts of two
    vanishing products, not two words."""
    left, right = (zero_product(_factors(word, named), tol)[1]
                   for word in _ANNIHILATIONS)
    report.conclusion_checks.append(
        Check("annihilation_equivalence", left == right, left == right))
    return {"left_annihilates": left, "right_annihilates": right}


def _triangular(report, named, tol):
    """L2_5a's and L2_5b's tests beside their certificates: x's pseudo core
    inverse is upper triangular, its lower-left block, of a's size, judged
    against the whole; and the least m at which the coupling sum vanishes
    inside the search window (0 if it does nowhere).  Not rows: one reads a
    block of an inverse, the other is a search.  L2_5b is the converse of
    L2_5a, so the sum test is a hypothesis of L2_5a and a conclusion of
    L2_5b, and the triangular test the other way round."""
    split, X = len(named["a"]), named.result("x", "pseudo_core").inverse
    upper = _res("pcore_upper_triangular",
                 _relative(frobenius(X[split:, :split]), frobenius(X)), tol)
    m = _least_vanishing(report.theorem_id, named, tol)
    sides = report.hypothesis_checks, report.conclusion_checks
    blocks, whole = sides if report.theorem_id == "L2_5a" else sides[::-1]
    blocks.append(Check("coupling_sum_vanishes", m, m > 0))
    whole.append(upper)
    return {"m": m}


def _existence_routes(report, named, tol):
    """T1_1's cross-checks of the equivalent existence routes beside the
    certificates of A_pc and A^D: the (1,3)-inverse and the core inverse of
    the power K = A^max(k,1), and the ranges of X = A_pc.  Not rows: the
    (1,3)-inverse is not a record method, the core inverse exists only at
    index <= 1, and the range tests compare ranks."""
    rA, rAk = named.record("A"), named.record("K")
    X = rA.pcore_inverse
    a13 = _one_three(rAk.A, rAk.svd, tol)
    # rank(X) serves both comparisons and X*, which has X's singular values
    rank_x = numerical_rank(X, tol)
    # K, taken from the decomposition, has rank exactly r, so the rank-based
    # range comparisons are not polluted by rounding dust; "a*" is X*
    power_range = _same_space(named["K"], X, rAk.rank, rank_x, tol)
    adjoint_range = _same_space(X, named["a*"], rank_x, rank_x, tol)
    power_index = rAk.k
    # a power of index > 1 has no core inverse; its check reads null
    power_core = (_certified("power_core_certified", rAk.core(), tol)
                  if power_index <= 1 else
                  Check("power_core_certified", None, False))
    report.conclusion_checks += [
        _certified("power_one_three_certified", a13, tol),
        Check("range_power_equals_range_pcore", power_range, power_range),
        Check("range_pcore_equals_range_adjoint", adjoint_range, adjoint_range),
        Check("power_index_at_most_one", power_index, power_index <= 1),
        power_core,
    ]
    return {"k": max(rA.k, 1)}


def _perturbation_equivalence(report, named, tol):
    """T3_1: a + b has a pseudo core inverse annihilated in the stated
    corner iff the perturbation of the identity 1 + a_pc b has one and a
    coupling sum vanishes for some admissible exponent.  Not a row: both
    sides are evaluated independently and their truth values compared."""
    spc = named.result("s", "pseudo_core")
    ann_value, ann_zero = zero_product(_factors(_CORNER, named), tol)
    lhs = spc.certified(tol) and ann_zero
    wpc = named.result("w", "pseudo_core")
    m = _least_vanishing("T3_1", named, tol)
    rhs = wpc.certified(tol) and m > 0
    report.conclusion_checks.append(Check("equivalence", lhs == rhs, lhs == rhs))
    return {"lhs": lhs, "rhs": rhs, "m": m, "annihilation_value": ann_value}


def _star_dmp_bracket(report, named, tol):
    """C3_2's star-DMP hypothesis on a, and its conclusion that a_pc
    commutes with a: the bracket ||a a_pc - a_pc a|| against ||a|| ||a_pc||.
    Not rows: the star-DMP test compares two inverses of one record, and
    the bracket is judged against a scale of its own."""
    star, witness = named.record("a").star_dmp()
    report.hypothesis_checks.insert(0, Check("a_star_dmp", star, star))
    bracket_value = _relative(frobenius(named["k"]),
                              frobenius(named["a"]) * frobenius(named["c"]))
    report.conclusion_checks.append(
        _res("pcore_commutes_with_a", bracket_value, tol))
    return {"star_dmp_exponent": witness}


_EX33_NOTE = (
    "a + b remains pseudo-core invertible over the complex matrices (the "
    "inverse is computed and certified below); what fails for this pair is "
    "the commutation hypothesis ab = ba together with the corner "
    "annihilation condition, whose matrix has rank 1."
)


def _example_3_3(report, named, tol):
    """EX3_3's comparisons of the fixed instance with its known values:
    a_pc, b_pc = 0, 1 + a_pc b = 1, ab != ba and the rank-1 corner.  Not
    rows: each is judged against a constant of the worked example."""
    apc, w, bpc = named["c"], named["w"], named["f"]
    expected_apc = np.array([[-1j, 0], [0, 0]], dtype=np.complex128)
    commutator = _product("ab", named) - _product("ba", named)
    annihilation = _product(_CORNER, named)
    expected_ann = np.array([[0, 0], [-0.5, 0]], dtype=np.complex128)
    commutator_rank = numerical_rank(commutator, tol)
    annihilation_rank = numerical_rank(annihilation, tol)
    report.conclusion_checks += [
        _eq("a_pcore_value", rel_residual(apc, expected_apc), tol),
        _eq("b_pcore_zero", frobenius(bpc), tol),
        _eq("perturbation_is_identity", rel_residual(w, _eye(2)), tol),
        Check("ab_differs_from_ba", commutator_rank, commutator_rank > 0),
        _eq("annihilation_matrix_value",
            rel_residual(annihilation, expected_ann), tol),
        Check("annihilation_rank_one", annihilation_rank,
              annihilation_rank == 1),
    ]
    return {"annihilation": annihilation, "note": _EX33_NOTE}


def _index_sum(report, named, tol):
    """T4_5's sum hypothesis: the coupling sum vanishes at m = index(A), or
    else at the least m of the window.  Not a row: a search whose first
    probe is the index, and which reads index(D) only when that fails."""
    iA = named.record("A").k
    m = _least_vanishing("T4_5", named, tol) if iA else 0
    primary = m == iA
    report.hypothesis_checks.append(
        Check("coupling_sum_vanishes", m, primary or m > 0))
    return {"sum_at_index_vanishes": primary, "m": m}


def _nilpotent_powers(report, named, tol):
    """C4_6's sum hypothesis: C annihilates the nilpotent-part powers of A,
    the coupling sum at m = index(A) alone.  Not a row: a sum of powers,
    not a word."""
    _, S, scale = next(islice(_sums("C4_6", named), named.record("A").k, None))
    report.hypothesis_checks.append(_res(
        "C_kills_nilpotent_powers", _relative(frobenius(S), scale), tol))
    return {}


# ---------------------------------------------------------------------------
# Input validation, one validator per symbol signature.  Each takes the
# symbols' values and the policy and returns the instance's matrices.


def _pair(a, b, tol):
    """a and b, square and of one shape."""
    a, b = as_matrix(a), as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected equal square shapes, got {a.shape}, {b.shape}")
    return {"a": a, "b": b}


def _triangle(a, b, d, tol):
    """The blocks of x = [[a, b], [0, d]], a and d square."""
    a, d = as_matrix(a), as_matrix(d)
    b = as_matrix(b)
    na, nd = a.shape[0], d.shape[0]
    if a.shape != (na, na) or d.shape != (nd, nd) or b.shape != (na, nd):
        raise ValueError(
            f"expected shapes (na,na), (na,nd), (nd,nd); got {a.shape}, "
            f"{b.shape}, {d.shape}")
    return {"a": a, "b": b, "d": d}


def _split(x, split, tol):
    """x and its blocks a, b, d about ``split``; x's lower-left block must
    vanish."""
    x = _require_square(x)
    n = x.shape[0]
    if isinstance(split, bool) or not isinstance(split, (int, np.integer)):
        raise ValueError(f"split must be an integer, got {split!r}")
    if not (0 < split < n):
        raise ValueError(f"split must lie strictly inside (0, {n}), got {split}")
    lower = x[split:, :split]
    if _relative(frobenius(lower), frobenius(x)) > tol.residual_tol:
        raise ValueError("lower-left block of x must vanish")
    return {"a": x[:split, :split], "b": x[:split, split:],
            "d": x[split:, split:], "x": x}


def _square(A, tol):
    """T1_1's one square matrix."""
    return {"A": _require_square(A)}


def _blocks(A, B, C, D, tol):
    """The blocks of M = [[A, B], [C, D]], A and D square."""
    A, B, C, D = as_matrix(A), as_matrix(B), as_matrix(C), as_matrix(D)
    nA, nD = A.shape[0], D.shape[0]
    if A.shape != (nA, nA) or D.shape != (nD, nD):
        raise ValueError("diagonal blocks must be square")
    if B.shape != (nA, nD) or C.shape != (nD, nA):
        raise ValueError(
            f"off-diagonal blocks must have shapes ({nA},{nD}) and "
            f"({nD},{nA}); got {B.shape}, {C.shape}")
    return {"A": A, "B": B, "C": C, "D": D}


def _example_pair(tol):
    """EX3_3 takes no symbols: its fixed 2x2 pair."""
    return {"a": np.array([[1j, 0], [0, 0]], dtype=np.complex128),
            "b": np.array([[0, 0], [1, 0]], dtype=np.complex128)}


_VALIDATORS = {
    (): _example_pair,
    ("a", "b"): _pair,
    ("a", "b", "d"): _triangle,
    ("x", "split"): _split,
    ("A",): _square,
    ("A", "B", "C", "D"): _blocks,
}


# ---------------------------------------------------------------------------
# Catalog

# Each id's input symbols, in the order a positional call takes them, and
# its hook, if it has one; an id of rows alone maps to its symbols alone.
_AB, _ABCD = ("a", "b"), ("A", "B", "C", "D")
_CATALOG = {
    "L2_1": (_AB,),
    "L2_2": (_AB,),
    "L2_3": (_AB, _additive_candidate),
    "L2_4": (_AB, _annihilation_equivalence),
    "L2_5a": (("a", "b", "d"), _triangular),
    "L2_5b": (("x", "split"), _triangular),
    "T1_1": (("A",), _existence_routes),
    "T3_1": (_AB, _perturbation_equivalence),
    "C3_2": (_AB, _star_dmp_bracket),
    "EX3_3": ((), _example_3_3),
    "T4_1": (_ABCD,),
    "C4_2": (_ABCD,),
    "T4_3": (_ABCD,),
    "C4_4": (_ABCD,),
    "T4_5": (_ABCD, _index_sum),
    "C4_6": (_ABCD, _nilpotent_powers),
}

THEOREM_SYMBOLS = {tid: symbols for tid, (symbols, *_) in _CATALOG.items()}


def run_check(theorem_id: str, instance: dict,
              tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """The id's report on an instance (symbol name -> value), validated by
    the validator of the id's symbols: the one way into a check."""
    if theorem_id not in _CATALOG:
        raise KeyError(f"unknown theorem id {theorem_id!r}; "
                       f"known: {sorted(_CATALOG)}")
    symbols, *hook = _CATALOG[theorem_id]
    missing = [s for s in symbols if s not in instance]
    if missing:
        raise ValueError(f"{theorem_id} requires symbols {list(symbols)}; "
                         f"missing {missing}")
    matrices = _VALIDATORS[symbols](*[instance[s] for s in symbols], tol)
    return _report(theorem_id, _Instance(tol, **matrices), *hook)


def reproduce_example_3_3(tol: TolerancePolicy = DEFAULT_POLICY) -> TheoremReport:
    """The fixed 2x2 instance showing the commutation hypotheses are
    necessary: the report of EX3_3."""
    return run_check("EX3_3", {}, tol)
