import re
from itertools import islice

import numpy as np
import pytest

import geninv.generators as generators
import geninv.inverses as inverses
import geninv.linalg as linalg
import geninv.theorems as theorems
from geninv.linalg import approx_equal
from geninv.inverses import pseudo_core
from geninv.theorems import (
    THEOREM_SYMBOLS,
    Check,
    TheoremReport,
    run_check,
)
from oracles import (
    check,
    coupling_sweep,
    first_vanishing_sum_direct,
    nilpotent_power_sum,
)
from geninv.generators import (
    gen_annihilating_pair,
    gen_commutant_pair,
    gen_lemma_2_5_instance,
    gen_star_dmp,
    gen_with_index,
    fuzz_dims,
    instance_for,
    trial_seed,
)

A33 = np.array([[1j, 0], [0, 0]], dtype=complex)
B33 = np.array([[0, 0], [1, 0]], dtype=complex)
SHIFT = np.array([[0, 1], [0, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)
Z2 = np.zeros((2, 2), dtype=complex)


def crandn(rg, *shape):
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2)


class TestLemma21:
    def test_identity_pair(self):
        assert check("L2_1", I2, I2).verdict == "pass"

    def test_fixed_noncommuting_pair(self):
        report = check("L2_1", A33, B33)
        assert report.verdict == "hypotheses_not_met"

    def test_commutant_sample(self):
        a, b = gen_commutant_pair(4, seed=301, target_index=2)
        assert check("L2_1", a, b).verdict == "pass"


class TestLemma22:
    def test_identity_partner(self):
        a, _ = gen_commutant_pair(3, seed=302)
        report = check("L2_2", a, np.eye(3))
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["ab_pcore"],
                            pseudo_core(a).inverse)

    def test_diagonal_pair(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        report = check("L2_2", a, a)
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["ab_pcore"], np.diag([0.25, 0.0]))

    def test_commutant_sample_dim6(self):
        a, b = gen_commutant_pair(6, seed=303)
        assert check("L2_2", a, b).verdict == "pass"


class TestLemma23:
    def test_zero_partner(self):
        rg = np.random.default_rng(33)
        a = crandn(rg, 3, 3)
        assert check("L2_3", a, np.zeros((3, 3))).verdict == "pass"

    def test_diagonal_disjoint(self):
        assert check("L2_3", np.diag([1.0, 0.0]), Z2).verdict == "pass"

    def test_orthogonal_support_pair(self):
        a, b = gen_annihilating_pair(6, seed=304)
        assert check("L2_3", a, b).verdict == "pass"

    def test_overflowing_additive_candidate_is_none(self):
        # a_pc = 1/a and b_pc = 1/b are finite, but their sum overflows; the
        # informational candidate is dropped and the verdict stands
        a = np.array([[6e-309]], dtype=complex)
        with np.errstate(over="ignore"):
            report = check("L2_3", a, a)
        assert report.verdict == "pass"
        assert report.witnesses["additive_candidate_residuals"] is None
        assert np.isfinite(report.witnesses["sum_pcore"]).all()


class TestLemma24:
    def test_zero_b(self):
        rg = np.random.default_rng(34)
        report = check("L2_4", crandn(rg, 3, 3), np.zeros((3, 3)))
        assert report.verdict == "pass"

    def test_invertible_a(self):
        rg = np.random.default_rng(35)
        report = check("L2_4", np.diag([1.0, 2.0]), crandn(rg, 2, 2))
        assert report.verdict == "pass"
        assert report.witnesses["left_annihilates"]
        assert report.witnesses["right_annihilates"]

    def test_inside_and_outside_range(self):
        rg = np.random.default_rng(36)
        X = pseudo_core(A33).inverse
        inside = (X @ A33) @ crandn(rg, 2, 2)
        rep_in = check("L2_4", A33, inside)
        assert rep_in.verdict == "pass"
        assert rep_in.witnesses["left_annihilates"]
        rep_out = check("L2_4", A33, B33)
        assert rep_out.verdict == "pass"
        assert not rep_out.witnesses["left_annihilates"]
        assert not rep_out.witnesses["right_annihilates"]


class TestLemma25:
    def test_invertible_top_nilpotent_bottom(self):
        rg = np.random.default_rng(37)
        a = np.diag([1.0, 2.0]).astype(complex)
        d = SHIFT.copy()
        b = crandn(rg, 2, 2)
        report = check("L2_5a", a, b, d)
        assert report.verdict == "pass"

    def test_scalar_hand_case(self):
        a = np.array([[0.0]], dtype=complex)
        d = np.array([[0.0]], dtype=complex)
        b = np.array([[1.0]], dtype=complex)
        report = check("L2_5a", a, b, d)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 2

    def test_generated_instance(self):
        a, b, d, degenerate = gen_lemma_2_5_instance(3, 3, seed=305)
        report = check("L2_5a", a, b, d)
        assert report.verdict == "pass"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            check("L2_5a", np.eye(2), np.eye(3), np.eye(2))

    @pytest.mark.parametrize("theorem_id", ["L2_5a", "L2_5b"])
    def test_ill_separated_index(self, theorem_id):
        # x = [[a, b], [0, d]] has index 5, and its core eigenvalue 0.11 to
        # the fifth power is close to the rounding dust of x^5 relative to
        # sigma_1(x^5): a rank cut on the scaled power counted index 6
        inst = instance_for(theorem_id, (3, 3), np.random.SeedSequence([29, 7, 0]))
        report = run_check(theorem_id, inst.matrices)
        assert report.verdict == "pass"


class TestLemma25Converse:
    def test_diagonal(self):
        report = check("L2_5b", np.diag([1.0, 0.0]).astype(complex), 1)
        assert report.verdict == "pass"

    def test_rank_one_idempotent_like(self):
        x = np.array([[1, 1], [0, 0]], dtype=complex)
        report = check("L2_5b", x, 1)
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["x_pcore"], [[1, 0], [0, 0]])

    def test_nilpotent(self):
        report = check("L2_5b", SHIFT, 1)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 2

    def test_nonzero_lower_left_rejected(self):
        with pytest.raises(ValueError):
            check("L2_5b", np.array([[1, 0], [1, 1]], dtype=complex), 1)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            check("L2_5b", np.eye(2), 2)

    @pytest.mark.parametrize("split", [np.eye(1), 2.0, True],
                             ids=["matrix", "float", "bool"])
    def test_non_integer_split_rejected(self, split):
        with pytest.raises(ValueError, match="split"):
            check("L2_5b", np.eye(4), split)
        with pytest.raises(ValueError, match="split"):
            run_check("L2_5b", {"x": np.eye(4), "split": split})

    def test_numpy_integer_split_accepted(self):
        x = np.diag([1.0, 0.0]).astype(complex)
        report = check("L2_5b", x, np.int64(1))
        assert report.verdict == "pass"


class TestTheorem31:
    def test_zero_perturbation(self):
        a = gen_with_index(4, 2, 2, seed=306)
        report = check("T3_1", a, np.zeros((4, 4)))
        assert report.verdict == "pass"
        assert report.witnesses["lhs"] and report.witnesses["rhs"]

    def test_hermitian_base(self):
        rg = np.random.default_rng(38)
        h = crandn(rg, 4, 4)
        a = h + h.conj().T
        b = a @ a + 0.5 * a   # polynomial in a: commutes with a and a*
        report = check("T3_1", a, b)
        assert report.verdict == "pass"
        assert report.witnesses["rhs"]

    def test_fixed_noncommuting_pair(self):
        report = check("T3_1", A33, B33)
        assert report.verdict == "hypotheses_not_met"

    def test_fuzz_small(self):
        for trial in range(25):
            a, b = gen_commutant_pair(5, seed=3100 + trial)
            report = check("T3_1", a, b)
            assert report.verdict == "pass", (trial, report.witnesses)


class TestCorollary32:
    def test_fixed_star_dmp_with_zero(self):
        report = check("C3_2", A33, Z2)
        assert report.verdict == "pass"

    def test_hermitian_projection_pair(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        report = check("C3_2", p, 2 * p)
        assert report.verdict == "pass"

    def test_generated_star_dmp(self):
        a = gen_star_dmp(6, 3, 2, seed=308)
        from geninv.generators import _commutant_sample, _rng
        b = _commutant_sample(_rng(309), a)
        report = check("C3_2", a, b)
        assert report.verdict == "pass"

    def test_non_star_dmp_flagged(self):
        a = np.array([[1, 1], [0, 0]], dtype=complex)
        report = check("C3_2", a, Z2)
        assert report.verdict == "hypotheses_not_met"


class TestExample33:
    def test_all_checks_pass(self):
        report = run_check("EX3_3", {})
        assert report.verdict == "pass"
        labels = [c.label for c in report.conclusion_checks]
        assert "a_pcore_value" in labels and "annihilation_rank_one" in labels

    def test_intermediate_witnesses(self):
        report = run_check("EX3_3", {})
        expected_sum_pcore = 0.5 * np.array([[-1j, 1], [-1, -1j]], dtype=complex)
        expected_ann = np.array([[0, 0], [-0.5, 0]], dtype=complex)
        assert approx_equal(report.witnesses["sum_pcore"], expected_sum_pcore)
        assert approx_equal(report.witnesses["annihilation"], expected_ann)
        assert "note" in report.witnesses

    def test_each_rank_taken_once(self, monkeypatch):
        # one SVD for the commutator's rank and one for the annihilation's
        calls = counting_calls(monkeypatch, [linalg], "_svdvals")
        run_check("EX3_3", {})
        assert len(calls) == 2


class TestVerdict:
    """The verdict is read off the checks whenever it is asked for."""

    def test_follows_checks_added_after_the_report_is_built(self):
        report = TheoremReport("L2_1")
        assert report.verdict == "pass"
        report.conclusion_checks.append(Check("late_conclusion", 1.0, False))
        assert report.verdict == "fail"
        report.hypothesis_checks.append(Check("late_hypothesis", 1.0, False))
        assert report.verdict == "hypotheses_not_met"


class TestTheorem11:
    def test_identity(self):
        assert check("T1_1", np.eye(3)).verdict == "pass"

    def test_each_rank_taken_once(self, monkeypatch):
        # rank(X) and rank(X_m) of the power's core inverse, each serving
        # its adjoint too, plus one stacked rank per range comparison (four:
        # two of the core inverse's, two here); rank(A^k) is the first count
        # of its own staircase
        A = gen_with_index(5, 2, 2, seed=11)
        calls = counting_calls(monkeypatch, [linalg], "_svdvals")
        assert check("T1_1", A).verdict == "pass"
        assert len(calls) == 6

    def test_power_takes_one_svd(self, monkeypatch):
        # the (1,3)-inverse of A^k reads the SVD of A^k that its record's
        # staircase took as its first step, so no matrix takes two
        A = gen_with_index(5, 2, 2, seed=11)
        svds = []
        for module in (linalg, inverses):
            monkeypatch.setattr(module, "_svd",
                                lambda M, real=module._svd:
                                svds.append(M.tobytes()) or real(M))
        assert check("T1_1", A).verdict == "pass"
        assert len(svds) == len(set(svds)) == 5

    def test_nilpotent(self):
        assert check("T1_1", SHIFT).verdict == "pass"

    def test_random_dim5_index2(self):
        A = gen_with_index(5, 2, 3, seed=310)
        assert check("T1_1", A).verdict == "pass"

    @pytest.mark.parametrize("rotated", [False, True])
    @pytest.mark.parametrize("s", [(1, 0), (1, 1)])
    @pytest.mark.parametrize("lam", [1e-5, 1e-6])
    def test_power_of_index_two_is_reported(self, lam, s, rotated):
        # a small core eigenvalue lam beside a 2x2 Jordan block: A^2 has
        # rank 1 and (A^2)^2 = lam^2 A^2 sits at or under the rank cut, so
        # the scaled power's own staircase can find index 2, and then it has
        # no core inverse; the check reports that instead of raising
        A = np.array([[lam, s[0], s[1]], [0, 0, 1], [0, 0, 0]], dtype=complex)
        if rotated:
            U, _ = np.linalg.qr(crandn(np.random.default_rng(2024), 3, 3))
            A = U @ A @ U.conj().T
        report = check("T1_1", A)
        checks = {c.label: c for c in report.conclusion_checks}
        power_index = checks["power_index_at_most_one"].value
        power_core = checks["power_core_certified"]
        assert checks["pcore_certified"].passed
        assert power_index == 2 or rotated
        assert (power_core.value is None) == (power_index > 1)
        if power_index > 1:
            assert not power_core.passed
        assert report.verdict == "fail"


class TestTheorem41:
    def test_block_diagonal(self):
        A = gen_with_index(3, 1, 2, seed=311)
        D = gen_with_index(2, 0, 2, seed=312)
        report = check("T4_1", A, np.zeros((3, 2)), np.zeros((2, 3)), D)
        assert report.verdict == "pass"

    def test_identity_blocks_with_one_coupling(self):
        report = check("T4_1", I2, I2, Z2, I2)
        assert report.verdict == "pass"

    def test_generated(self):
        report = run_check("T4_1", instance_for(
            "T4_1", (3, 2), 313).matrices)
        assert report.verdict == "pass"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            check("T4_1", I2, np.zeros((3, 2)), Z2, I2)

    def test_non_square_diagonal_block_rejected(self):
        with pytest.raises(ValueError, match=re.escape(
                "A, B, C, D must have shapes (p,p), (p,q), (q,p), (q,q); "
                "got (2, 3), (2, 2), (2, 2), (2, 2)")):
            check("T4_1", np.zeros((2, 3)), np.zeros((2, 2)),
                              np.zeros((2, 2)), I2)


class TestCorollary42:
    def test_trivial_coupling(self):
        report = check("C4_2", I2, Z2, Z2, 2 * I2)
        assert report.verdict == "pass"

    def test_generated(self):
        report = run_check("C4_2", instance_for(
            "C4_2", (3, 3), 314).matrices)
        assert report.verdict == "pass"


class TestTheorem43:
    def test_zero_couplings(self):
        A = gen_with_index(2, 1, 1, seed=315)
        report = check("T4_3", A, Z2, Z2, I2)
        assert report.verdict == "pass"

    def test_antidiagonal_permutation(self):
        report = check("T4_3", Z2, I2, I2, Z2)
        assert report.verdict == "pass"
        # Q is a symmetric permutation here, its own pseudo core inverse
        identity = next(c for c in report.conclusion_checks
                        if c.label == "antidiagonal_square_identity")
        assert identity.passed

    def test_generated(self):
        report = run_check("T4_3", instance_for(
            "T4_3", (2, 2), 316).matrices)
        assert report.verdict == "pass"


class TestCorollary44:
    def test_zero_couplings(self):
        report = check("C4_4", I2, Z2, Z2, I2)
        assert report.verdict == "pass"

    def test_dualized_permutation(self):
        report = check("C4_4", Z2, I2, I2, Z2)
        assert report.verdict == "pass"

    def test_generated(self):
        report = run_check("C4_4", instance_for(
            "C4_4", (3, 2), 317).matrices)
        assert report.verdict == "pass"


class TestTheorem45:
    def test_all_zero_couplings(self):
        A = gen_with_index(3, 2, 1, seed=318)
        D = gen_with_index(2, 1, 1, seed=319)
        report = check("T4_5", A, np.zeros((3, 2)), np.zeros((2, 3)), D)
        assert report.verdict == "pass"

    def test_invertible_top_free_b(self):
        rg = np.random.default_rng(39)
        A = np.diag([1.0, 2.0]).astype(complex)
        D = gen_with_index(2, 1, 1, seed=320)
        report = check("T4_5", A, crandn(rg, 2, 2), Z2, D)
        assert report.verdict == "pass"

    def test_generated(self):
        report = run_check("T4_5", instance_for(
            "T4_5", (3, 3), 321).matrices)
        assert report.verdict == "pass"

    def test_sum_vanishes_past_the_index(self):
        # A = D = J2: the sum at index(A) = 2 is B J2 + J2 B != 0, and the
        # window [2, 6] first vanishes at m = 4, where every term has a
        # power of J2 of order 2 or more
        B = np.array([[1, 2], [3, 4]], dtype=complex)
        report = check("T4_5", SHIFT, B, Z2, SHIFT)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 4
        assert report.witnesses["sum_at_index_vanishes"] is False

    def test_sum_vanishes_nowhere_in_the_window(self):
        # A_pi = diag(0, 1) and D = [[1]]: S_m = A_pi B for every m
        A = np.diag([1.0, 0.0]).astype(complex)
        B = np.array([[1.0], [1.0]], dtype=complex)
        report = check("T4_5", A, B, np.zeros((1, 2)), np.eye(1))
        assert report.verdict == "hypotheses_not_met"
        assert report.witnesses["m"] == 0


class TestCouplingSumIdempotent:
    """Each coupling-sum check computes a_pi once, not once per candidate m."""

    @pytest.mark.parametrize("theorem_id", ["L2_5a", "L2_5b", "T4_5"])
    @pytest.mark.parametrize("dims", [(3, 3), (4, 4)])
    def test_one_spectral_idempotent_per_check(self, monkeypatch, theorem_id,
                                               dims):
        from geninv.inverses import _CoreEP
        real, calls = _CoreEP.spectral_idempotent, []

        def counting(record):
            calls.append(record.A.shape)
            return real(record)

        # every a_pi of a check comes from the record of its matrix
        monkeypatch.setattr(_CoreEP, "spectral_idempotent", counting)
        for t in range(8):
            inst = instance_for(theorem_id, dims, trial_seed(1, t))
            calls.clear()
            report = run_check(theorem_id, inst.matrices)
            assert report.verdict == "pass"
            assert len(calls) <= 1
            if theorem_id != "T4_5":
                assert calls == [(dims[0], dims[0])]


# every module that forms a matrix power through the kernel's _power; the
# coupling sums read theirs as keys (S, j) of linalg's _Named
POWER_CALLERS = (inverses, linalg)


def counting_calls(monkeypatch, modules, name):
    """Wrap ``name`` in each module with one shared log of its calls."""
    calls = []
    for module in modules:
        def counting(*args, real=getattr(module, name)):
            calls.append(None)
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


def _hand_sum(theorem_id, named, tol):
    """Reference: each check's coupling sum and window as built by hand,
    over the input symbols of the instance ``named``: (lefts, mids, right,
    lo, hi), or None where T4_5 takes m = 0 at index(A) = 0."""
    record = lambda M: inverses._CoreEP(M, tol)
    if theorem_id == "T3_1":
        a, b = named["a"], named["b"]
        apc = record(a).pcore_inverse
        w = np.eye(len(a)) + apc @ b
        rw = record(w)
        mids = [rw.spectral_idempotent(), a, a @ apc - apc @ a]
        return [w, a], mids, a + b, max(rw.k, 1), rw.k + len(a)
    a, b, d = (named[s] for s in ("abd" if "a" in named else "ABD"))
    ra, kd = record(a), record(d).k
    if theorem_id == "T4_5" and ra.k == 0:
        return None
    # T4_5 tests m = index(A) first, then searches on from there
    return ([a], [ra.spectral_idempotent(), b], d, max(ra.k, 1),
            ra.k + kd + max(len(a), len(d)))


class TestCouplingSweep:
    """The one-pass coupling-sum sweep finds the same exponent as the direct
    double loop, with every power from _power, that it replaced."""

    @staticmethod
    def _direct(theorem_id, named, tol):
        lefts, mids, right, lo, hi = _hand_sum(theorem_id, named, tol)
        return first_vanishing_sum_direct(lefts, mids, right,
                                          tol.residual_tol, lo, hi)

    @pytest.mark.parametrize("theorem_id,dims", [
        ("L2_5a", (3, 3)), ("L2_5a", (4, 4)),
        ("L2_5b", (3, 3)), ("L2_5b", (4, 4)),
        ("T3_1", (4,)), ("T3_1", (8,)),
        ("T4_5", (3, 3)), ("T4_5", (4, 4)),
    ])
    def test_matches_direct_double_loop(self, monkeypatch, theorem_id, dims):
        for s in range(20):
            inst = instance_for(theorem_id, dims, trial_seed(s, 0)).matrices
            for c in (1e-6, 1.0, 1e6):
                scaled = {k: v * c if isinstance(v, np.ndarray) else v
                          for k, v in inst.items()}
                swept = run_check(theorem_id, scaled)
                with monkeypatch.context() as mp:
                    mp.setattr(theorems, "_least_vanishing", self._direct)
                    direct = run_check(theorem_id, scaled)
                assert swept.witnesses["m"] == direct.witnesses["m"]
                assert swept.verdict == direct.verdict

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_equals_the_hand_built_sweep(self, dims, c):
        # every sum and scale that the table's reader yields is the bits of
        # the sweep the checks ran on their hand-built sums, and the check
        # reports the m that sweep found
        tol, swept_any = linalg.DEFAULT_POLICY, False
        for theorem_id in ("L2_5a", "L2_5b", "T3_1", "T4_5"):
            for s in range(4):
                inst = instance_for(theorem_id, dims, trial_seed(s, 2))
                scaled = {k: v * c if isinstance(v, np.ndarray) else v
                          for k, v in inst.matrices.items()}
                report = run_check(theorem_id, scaled)
                if theorem_id == "L2_5b":
                    x, k = scaled["x"], scaled["split"]
                    scaled = {"a": x[:k, :k], "b": x[:k, k:], "d": x[k:, k:]}
                named = theorems._Instance(**scaled)
                hand = _hand_sum(theorem_id, named, tol)
                m, swept = ((0, []) if hand is None else
                            coupling_sweep(*hand, tol.residual_tol))
                assert report.witnesses["m"] == m, (theorem_id, s)
                got = list(islice(theorems._sums(theorem_id, named), 1,
                                  len(swept) + 1))
                assert ([(S.tobytes(), scale) for _, S, scale in got]
                        == [(S.tobytes(), scale) for S, scale in swept])
                swept_any |= bool(swept)
        assert swept_any

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 2), (3, 3), (4, 4)])
    def test_corollary_4_6_equals_the_hand_built_sum(self, dims, c):
        # C4_6 judged ||C S|| / (||C|| scale), S the record's sum of
        # A^(i-1) A_pi up to index(A); the row's prefix C gives those bits
        for s in range(4):
            inst = instance_for("C4_6", dims, trial_seed(s, 3)).matrices
            A, B, C, D = (inst[x] * c for x in "ABCD")
            rA = inverses._CoreEP(A)
            pi_sum, scale = nilpotent_power_sum(rA)
            value = linalg._relative(linalg.frobenius(C @ pi_sum),
                                     linalg.frobenius(C) * scale)
            last = check("C4_6", A, B, C, D).hypothesis_checks[-1]
            assert last.value == value
            named = theorems._Instance(A=A, B=B, C=C, D=D)
            m, S, got = next(islice(theorems._sums("C4_6", named), rA.k, None))
            assert m == rA.k
            assert S.tobytes() == (C @ pi_sum).tobytes()
            assert got == linalg.frobenius(C) * scale

    @pytest.mark.parametrize("theorem_id", ["L2_5a", "L2_5b"])
    def test_each_power_formed_once(self, monkeypatch, theorem_id):
        # the direct loop took 16.2 matrix powers per check here
        calls = counting_calls(monkeypatch, POWER_CALLERS, "_power")
        total = 0
        for t in range(20):
            inst = instance_for(theorem_id, (4, 4), trial_seed(1, t))
            calls.clear()
            run_check(theorem_id, inst.matrices)
            total += len(calls)
        assert total / 20 == pytest.approx(9.4)


class TestSumRows:
    """The checks and the samplers read one table of coupling-sum rows."""

    def test_check_and_generator_read_one_row(self, monkeypatch):
        # a = b = d = 0: S_1 = a_pi b vanishes; with b cut from the mid word
        # it is S_1 = a_pi = 1, and S_2 = a_pi d + a a_pi vanishes instead,
        # while the sampler's b, no longer in the row, is drawn unconstrained
        zero = np.zeros((1, 1), dtype=complex)
        a, _, d, _ = gen_lemma_2_5_instance(3, 3, seed=305)
        system = lambda: generators._word_system(
            "L2_5a", "b", (3, 3), theorems._Instance(a=a, d=d), 3)
        drawn = gen_lemma_2_5_instance(3, 3, seed=305)[1]
        assert check("L2_5a", zero, zero, zero).witnesses["m"] == 1
        assert [len(terms) for terms in system()] == [3]
        monkeypatch.setitem(theorems._SUMS, "L2_5a", ("", "a", "e", "d", "ad"))
        assert check("L2_5a", zero, zero, zero).witnesses["m"] == 2
        assert system() == []
        cut = gen_lemma_2_5_instance(3, 3, seed=305)[1]
        assert cut.tobytes() != drawn.tobytes()

    def test_theorem_4_5_sweeps_once(self, monkeypatch):
        # A = D = J2, as in TestTheorem45: the sum at index(A) = 2 fails and
        # the same pass goes on to m = 4, forming A^j and D^j for j < 4 once
        # each, then M's exact power for its certificate; restarting the
        # sweep at m = 1 past the index took 13
        calls = counting_calls(monkeypatch, POWER_CALLERS, "_power")
        B = np.array([[1, 2], [3, 4]], dtype=complex)
        report = check("T4_5", SHIFT, B, Z2, SHIFT)
        assert report.witnesses["m"] == 4
        assert len(calls) == 9


class TestIndexReuse:
    """A check analyses each input matrix once: its index, a_pi and pseudo
    core inverse all come from one record of that matrix."""

    @pytest.mark.parametrize("theorem_id,dims,analyses", [
        ("T3_1", (4,), 3),       # a, a + b, w
        ("L2_3", (4,), 3),       # a + b, a, b
        ("L2_5a", (4, 4), 3),    # a, d, x
        ("L2_5b", (4, 4), 3),    # x, a, d
        ("T1_1", (4,), 2),       # A, A^k
        ("C3_2", (4,), 3),       # a (also the star-DMP test), a + b, w
        ("C4_6", (3, 3), 3),     # A, M, M*
        ("T4_5", (3, 3), 2),     # A, M: D only when the sum at index(A) fails
        ("L2_1", (4,), 1),       # a
        ("L2_2", (4,), 3),       # a, b, ab
        ("L2_4", (4,), 1),       # a
        ("EX3_3", (4,), 4),      # a, w, b, a + b
        ("T4_1", (3, 3), 3),     # A, D, M
        ("C4_2", (3, 3), 4),     # A, D, M, M*
        ("T4_3", (3, 3), 5),     # BC, CB, M, Z, Z^2
        ("C4_4", (3, 3), 4),     # BC, CB, M, M*
    ])
    def test_analyses_per_check(self, monkeypatch, theorem_id, dims, analyses):
        real, calls = inverses._staircase, []

        def counting(A, tol):
            calls.append(A.shape)
            return real(A, tol)

        monkeypatch.setattr(inverses, "_staircase", counting)
        for t in range(4):
            inst = instance_for(theorem_id, dims, trial_seed(1, t))
            calls.clear()
            run_check(theorem_id, inst.matrices)
            assert len(calls) == analyses

    def test_theorem_4_5_indexes_each_block_once(self, monkeypatch):
        real, seen = inverses._staircase, []

        def recording(A, tol):
            seen.append(A.tobytes())
            return real(A, tol)

        monkeypatch.setattr(inverses, "_staircase", recording)
        rg = np.random.default_rng(41)
        for t in range(4):
            # A of index 1 with a generic B: the sum at the index does not
            # vanish, so the check searches the window, which needs index(D)
            A = gen_with_index(3, 1, 2, 500 + t)
            B, C, D = crandn(rg, 3, 3), crandn(rg, 3, 3), crandn(rg, 3, 3)
            seen.clear()
            report = check("T4_5", A, B, C, D)
            assert report.witnesses["sum_at_index_vanishes"] is False
            assert seen.count(A.tobytes()) == seen.count(D.tobytes()) == 1
            assert len(seen) == len(set(seen)) == 3     # A, D and M


class TestRecordWork:
    """A record solves its T once and forms its exact power A^max(k,1) once,
    however many of its inverses and certificates a check takes."""

    @staticmethod
    def _count(monkeypatch, modules, name, theorem_id):
        calls = counting_calls(monkeypatch, modules, name)
        counts = set()
        for t in range(20):
            inst = instance_for(theorem_id, (4,), trial_seed(1, t))
            calls.clear()
            run_check(theorem_id, inst.matrices)
            counts.add(len(calls))
        return counts

    @pytest.mark.parametrize("theorem_id,solves", [
        ("T3_1", {3}),           # a, w and a + b
        ("T1_1", {2}),           # A and A^k
    ])
    def test_one_refined_inverse_per_record(self, monkeypatch, theorem_id,
                                            solves):
        assert self._count(monkeypatch, [inverses], "_refined_inverse",
                           theorem_id) == solves

    def test_one_exact_power_per_theorem_1_1_check(self, monkeypatch):
        # pc1 and d1 both need A^max(k,1); the record of A forms it once
        assert self._count(monkeypatch, POWER_CALLERS, "_power",
                           "T1_1") == {1}

    def test_one_exact_power_per_lemma_2_3_check(self, monkeypatch):
        # the sum's certificate and the additive candidate's residuals both
        # need (a + b)^max(k,1); the record of a + b forms it once
        assert self._count(monkeypatch, POWER_CALLERS, "_power",
                           "L2_3") == {1}

    def test_one_pseudo_core_and_drazin_inverse_per_record(self, monkeypatch):
        # C3_2's star-DMP test and its conclusion both read a's pseudo core
        # inverse; the record of a builds it, and its Drazin inverse, once
        real, built, drazin_checks = inverses._finite, [], 0

        def recording(X, kind):
            built.append(kind)
            return real(X, kind)

        monkeypatch.setattr(inverses, "_finite", recording)
        for t in range(20):
            inst = instance_for("C3_2", (4,), trial_seed(1, t))
            built.clear()
            run_check("C3_2", inst.matrices)
            assert built.count("pseudo core") == 3     # a, a + b and w
            assert built.count("Drazin") <= 1          # a, when index(a) >= 1
            drazin_checks += built.count("Drazin")
        assert drazin_checks > 0

    # each id's results, one per certificate row, hook result and additive
    # candidate: a witness or hook that reads a certificate's result shares
    # its residuals, so no result is formed twice
    RESIDUALS = {"L2_1": 0, "L2_2": 1, "L2_3": 2, "L2_4": 0, "L2_5a": 3,
                 "L2_5b": 3, "T1_1": 4, "T3_1": 2, "C3_2": 2, "EX3_3": 1,
                 "T4_1": 1, "C4_2": 2, "T4_3": 1, "C4_4": 2, "T4_5": 1,
                 "C4_6": 2}

    def test_residuals_per_check(self, monkeypatch):
        assert set(self.RESIDUALS) == set(THEOREM_SYMBOLS)
        calls = counting_calls(monkeypatch, [inverses, theorems],
                               "_residuals")
        for theorem_id, count in self.RESIDUALS.items():
            inst = instance_for(theorem_id, fuzz_dims(theorem_id),
                                trial_seed(1, 0))
            calls.clear()
            run_check(theorem_id, inst.matrices)
            assert len(calls) == count, theorem_id

    # each id's frobenius calls in one check: an instance forms each key's
    # norm once, so a product scale that reads a factor again reads it
    # from the instance (before norms were kept, L2_3 made 21, L2_4 6,
    # T3_1 28, T4_5 21 and C4_6 27)
    NORMS = {"L2_1": 6, "L2_2": 12, "L2_3": 18, "L2_4": 5, "L2_5a": 34,
             "L2_5b": 36, "T1_1": 20, "T3_1": 27, "C3_2": 22, "EX3_3": 13,
             "T4_1": 19, "C4_2": 25, "T4_3": 21, "C4_4": 25, "T4_5": 18,
             "C4_6": 23}

    def test_norms_per_check(self, monkeypatch):
        assert set(self.NORMS) == set(THEOREM_SYMBOLS)
        calls = counting_calls(monkeypatch, [linalg, inverses, theorems],
                               "frobenius")
        for theorem_id, count in self.NORMS.items():
            inst = (instance_for(theorem_id, fuzz_dims(theorem_id),
                                 trial_seed(1, 0)).matrices
                    if THEOREM_SYMBOLS[theorem_id] else {})
            calls.clear()
            run_check(theorem_id, inst)
            assert len(calls) == count, theorem_id

    def test_shared_factor_norms_are_formed_once(self, monkeypatch):
        # T4_5's BC_zero and CB_zero, and its coupling sum's mid word EB,
        # all scale by B's norm; BC_zero and CB_zero by C's
        real, normed = linalg.frobenius, []

        def recording(A):
            normed.append(A)
            return real(A)

        monkeypatch.setattr(linalg, "frobenius", recording)
        inst = instance_for("T4_5", fuzz_dims("T4_5"), trial_seed(1, 0))
        B, C = inst.matrices["B"], inst.matrices["C"]
        report = run_check("T4_5", inst.matrices)
        assert [c.label for c in report.hypothesis_checks[:2]] == [
            "BC_zero", "CB_zero"]
        assert sum(A is B for A in normed) == 1
        assert sum(A is C for A in normed) == 1

    def test_record_returns_one_read_only_inverse(self):
        record = inverses._CoreEP(gen_with_index(5, 2, 2, seed=3))
        for name in ("pcore_inverse", "drazin_inverse"):
            X = getattr(record, name)
            assert getattr(record, name) is X
            assert not X.flags.writeable


class TestCorollary46:
    def test_zero_c(self):
        rg = np.random.default_rng(40)
        A = np.diag([1.0, 2.0]).astype(complex)
        report = check("C4_6", A, crandn(rg, 2, 2) * 0, Z2, I2)
        assert report.verdict == "pass"

    def test_invertible_top(self):
        A = np.diag([1.0, 3.0]).astype(complex)
        report = check("C4_6", A, Z2, Z2, 2 * I2)
        assert report.verdict == "pass"

    def test_generated(self):
        report = run_check("C4_6", instance_for(
            "C4_6", (3, 3), 322).matrices)
        assert report.verdict == "pass"


class TestDispatch:
    def test_unknown_id(self):
        with pytest.raises(KeyError):
            run_check("T9_9", {})

    def test_missing_symbol(self):
        with pytest.raises(ValueError):
            run_check("L2_1", {"a": I2})

    def test_symbol_table_covers_all(self):
        for theorem_id in THEOREM_SYMBOLS:
            inst = instance_for(theorem_id, (3, 3), seed=4000)
            report = run_check(theorem_id, inst.matrices)
            assert report.theorem_id == theorem_id
            assert report.verdict in ("pass", "fail", "hypotheses_not_met")

    def test_verdict_logic(self):
        report = check("L2_1", A33, B33)
        assert any(not c.passed for c in report.hypothesis_checks)
        assert report.verdict == "hypotheses_not_met"


# Each shaped signature, an id that takes it, and its shapes as the error
# message lists them.
SHAPED = [("L2_1", "(p,p), (p,p)"), ("L2_5a", "(p,p), (p,q), (q,q)"),
          ("T1_1", "(p,p)"), ("T4_1", "(p,p), (p,q), (q,p), (q,q)")]


class TestShapes:
    """One table gives the shapes of every matrix signature, and one
    message lists them against the shapes given."""

    @pytest.mark.parametrize("theorem_id,shapes", SHAPED)
    def test_each_wrong_shape_is_refused(self, theorem_id, shapes):
        symbols = THEOREM_SYMBOLS[theorem_id]
        good = instance_for(theorem_id, (3, 2), trial_seed(0, 0)).matrices
        for symbol in symbols:
            for wrong in (np.hstack([good[symbol], good[symbol][:, :1]]),
                          np.vstack([good[symbol], good[symbol][:1]])):
                inst = {**good, symbol: wrong}
                got = ", ".join(str(inst[s].shape) for s in symbols)
                message = (f"{', '.join(symbols)} must have shapes {shapes}; "
                           f"got {got}")
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    run_check(theorem_id, inst)

    def test_every_signature_goes_through_one_call(self):
        # run_check's one validation call, made here for each signature,
        # gives the instance's matrices by letter
        for theorem_id, symbols in THEOREM_SYMBOLS.items():
            values = (instance_for(theorem_id, (3, 2), trial_seed(0, 0))
                      .matrices if symbols else {})
            matrices = theorems._matrices(
                symbols, [values[s] for s in symbols], linalg.DEFAULT_POLICY)
            letters = {("x", "split"): "abdx", (): "ab"}.get(symbols, symbols)
            assert sorted(matrices) == sorted(letters), theorem_id
            assert all(M.dtype == np.complex128 for M in matrices.values())


class TestFirstError:
    """Every certificate is formed right after the rows' checks, in row
    order, and before its id's hook, so on an instance where two inverses
    overflow the report raises the error of the one it reaches first."""

    @pytest.mark.parametrize("theorem_id,kind", [
        ("C3_2", "pseudo core"),    # the certificates, then a's star-DMP test
        ("T4_5", "pseudo core"),    # m_certified, then the sum search
        ("C4_6", "pseudo core"),    # both certificates, then the sum
    ])
    def test_subnormal_instance(self, theorem_id, kind):
        inst = instance_for(theorem_id, fuzz_dims(theorem_id),
                            trial_seed(0, 0)).matrices
        tiny = {name: 1e-310 * M for name, M in inst.items()}
        with np.errstate(all="ignore"), pytest.raises(
                ValueError, match=f"^the {kind} inverse is not finite"):
            run_check(theorem_id, tiny)

    @pytest.mark.parametrize("theorem_id", [
        "L2_1", "L2_2", "L2_4", "L2_5b", "T1_1", "C4_2", "T4_5", "C4_6"])
    def test_underflowed_core_block(self, theorem_id):
        # at 2^-1070 the LU solve of the first record's core block T fails,
        # its pivots underflowed: T^{-1} cannot be represented, and the
        # report raises the not-finite error of the inverse it was forming,
        # not numpy's bare "Singular matrix"
        inst = instance_for(theorem_id, fuzz_dims(theorem_id),
                            trial_seed(5, 0)).matrices
        tiny = {name: 2.0 ** -1070 * M if isinstance(M, np.ndarray) else M
                for name, M in inst.items()}
        with pytest.raises(ValueError, match="^the pseudo core inverse is "
                           "not finite: the inverse of the core block T "
                           "overflowed$"):
            run_check(theorem_id, tiny)


class TestWordHypotheses:
    """Every equation and vanishing-product hypothesis is a word over its
    id's symbols, and the report lists them in table order."""

    def test_words_use_only_the_id_symbols(self):
        # the tables hold each word parsed into keys, a symbol and its star
        # if any; a coupling word or sum row may also name derived letters,
        # which an instance of the id's symbols forms when they are read
        for table in (theorems._EQUATIONS, theorems._VANISHING):
            for theorem_id, entries in table.items():
                for label, *words in entries:
                    symbols = {key[0] for word in words for key in word}
                    assert symbols <= set(THEOREM_SYMBOLS[theorem_id]), (
                        theorem_id, label)
        rg = np.random.default_rng(4003)
        rows = [(tid, word) for tid, word in theorems.COUPLING.items()]
        rows += [(tid, "".join(row[:4])) for tid, row in theorems._SUMS.items()]
        rows += [(tid, lhs + rhs)
                 for tid, entries in theorems._EQUALITIES.items()
                 for _, lhs, rhs in entries]
        rows += [("L2_4", word) for word in theorems._ANNIHILATIONS]
        rows += [("T3_1", theorems._CORNER)]
        for theorem_id, word in rows:
            # L2_5b's sum is over the blocks a, b, d of its x
            symbols = ("abd" if theorem_id == "L2_5b"
                       else THEOREM_SYMBOLS[theorem_id])
            named = theorems._Instance(**{s: crandn(rg, 3, 3) for s in symbols})
            # T4_3's equality is over Z = [[0, B], [C, 0]] of 3x3 blocks
            shape = (6, 6) if "Z" in word else (3, 3)
            for key in word:
                assert named[key].shape == shape, (theorem_id, key)

    def test_a_star_marks_the_factor_before_it(self):
        assert theorems._tokens("A*B") == ("A*", "B")
        assert theorems._tokens("DB*") == ("D", "B*")
        assert theorems._tokens("ab") == ("a", "b")

    def test_report_opens_with_the_table(self):
        for theorem_id in THEOREM_SYMBOLS:
            inst = instance_for(theorem_id, (3, 3), seed=4001)
            labels = [c.label for c in
                      run_check(theorem_id, inst.matrices).hypothesis_checks]
            if theorem_id == "C3_2":
                labels = labels[1:]         # a_star_dmp comes first
            words = [e[0] for e in theorems._VANISHING.get(theorem_id, ())]
            words += [e[0] for e in theorems._EQUATIONS.get(theorem_id, ())]
            assert labels[:len(words)] == words, theorem_id

    def test_conclusions_hold_the_rows_of_the_table(self, monkeypatch):
        for theorem_id, rows in list(theorems._EQUALITIES.items()):
            inst = instance_for(theorem_id, (3, 3), seed=4004).matrices
            full = [c.label for c in
                    run_check(theorem_id, inst).conclusion_checks]
            monkeypatch.setitem(theorems._EQUALITIES, theorem_id, rows[1:])
            cut = [c.label for c in
                   run_check(theorem_id, inst).conclusion_checks]
            assert rows[0][0] in full, theorem_id
            assert cut == [label for label in full if label != rows[0][0]]

    def test_star_is_the_adjoint_of_the_factor_before_it(self):
        rg = np.random.default_rng(4002)
        a, b = crandn(rg, 3, 3), crandn(rg, 3, 3)
        report = check("L2_1", a, b)
        value = next(c.value for c in report.hypothesis_checks
                     if c.label == "astar_b_equals_b_astar")
        astar = a.conj().T
        diff = np.linalg.norm(astar @ b - b @ astar)
        assert value == pytest.approx(
            diff / max(1.0, np.linalg.norm(b @ astar)), rel=1e-12)


class TestDualArrangement:
    """Each corollary's dual_arrangement_certified check equals the
    m_certified check of its theorem run on [[A*, C*], [B*, D*]]."""

    MIRRORS = (("C4_2", "T4_1"), ("C4_4", "T4_3"), ("C4_6", "T4_5"))

    @staticmethod
    def _instances(theorem_id):
        rg = np.random.default_rng(4100)
        for t in range(4):
            inst = instance_for(theorem_id, (3, 2), seed=trial_seed(4100, t))
            yield [inst.matrices[s] for s in "ABCD"]
        for nA, nD in ((2, 2), (3, 2), (2, 3)):
            A, D = crandn(rg, nA, nA), crandn(rg, nD, nD)
            B, C = crandn(rg, nA, nD), crandn(rg, nD, nA)
            yield [A, B, C, D]
            # a zero column in D and a tiny B leave M nearly singular, and
            # some of these copies miss the certificate
            D[:, 0] = 0.0
            yield [A, B * 1e-9, C, D]

    @pytest.mark.parametrize("corollary,theorem", MIRRORS)
    def test_equals_mirrored_theorem(self, corollary, theorem):
        st = lambda M: M.conj().T
        flags = set()
        for A, B, C, D in self._instances(corollary):
            dual = next(c for c in check(corollary, A, B, C, D)
                        .conclusion_checks
                        if c.label == "dual_arrangement_certified")
            full = next(c for c in check(theorem, st(A), st(C), st(B), st(D))
                        .conclusion_checks if c.label == "m_certified")
            assert (dual.value, dual.passed) == (full.value, full.passed)
            flags.add(dual.passed)
        assert flags == {True, False}
