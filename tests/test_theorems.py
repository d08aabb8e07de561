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
    check_corollary_3_2,
    check_corollary_4_2,
    check_corollary_4_4,
    check_corollary_4_6,
    check_lemma_2_1,
    check_lemma_2_2,
    check_lemma_2_3,
    check_lemma_2_4,
    check_lemma_2_5,
    check_lemma_2_5_converse,
    check_theorem_1_1,
    check_theorem_3_1,
    check_theorem_4_1,
    check_theorem_4_3,
    check_theorem_4_5,
    reproduce_example_3_3,
    run_check,
)
from oracles import first_vanishing_sum_direct
from geninv.generators import (
    gen_annihilating_pair,
    gen_commutant_pair,
    gen_intertwined_4_1,
    gen_intertwined_4_2,
    gen_intertwined_4_3,
    gen_intertwined_4_4,
    gen_lemma_2_5_instance,
    gen_star_dmp,
    gen_with_index,
    gen_zero_product_4_5,
    gen_zero_product_4_6,
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
        assert check_lemma_2_1(I2, I2).verdict == "pass"

    def test_fixed_noncommuting_pair(self):
        report = check_lemma_2_1(A33, B33)
        assert report.verdict == "hypotheses_not_met"

    def test_commutant_sample(self):
        a, b = gen_commutant_pair(4, seed=301, target_index=2)
        assert check_lemma_2_1(a, b).verdict == "pass"


class TestLemma22:
    def test_identity_partner(self):
        a, _ = gen_commutant_pair(3, seed=302)
        report = check_lemma_2_2(a, np.eye(3))
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["ab_pcore"],
                            pseudo_core(a).inverse)

    def test_diagonal_pair(self):
        a = np.diag([2.0, 0.0]).astype(complex)
        report = check_lemma_2_2(a, a)
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["ab_pcore"], np.diag([0.25, 0.0]))

    def test_commutant_sample_dim6(self):
        a, b = gen_commutant_pair(6, seed=303)
        assert check_lemma_2_2(a, b).verdict == "pass"


class TestLemma23:
    def test_zero_partner(self):
        rg = np.random.default_rng(33)
        a = crandn(rg, 3, 3)
        assert check_lemma_2_3(a, np.zeros((3, 3))).verdict == "pass"

    def test_diagonal_disjoint(self):
        assert check_lemma_2_3(np.diag([1.0, 0.0]), Z2).verdict == "pass"

    def test_orthogonal_support_pair(self):
        a, b = gen_annihilating_pair(6, seed=304)
        assert check_lemma_2_3(a, b).verdict == "pass"

    def test_overflowing_additive_candidate_is_none(self):
        # a_pc = 1/a and b_pc = 1/b are finite, but their sum overflows; the
        # informational candidate is dropped and the verdict stands
        a = np.array([[6e-309]], dtype=complex)
        with np.errstate(over="ignore"):
            report = check_lemma_2_3(a, a)
        assert report.verdict == "pass"
        assert report.witnesses["additive_candidate_residuals"] is None
        assert np.isfinite(report.witnesses["sum_pcore"]).all()


class TestLemma24:
    def test_zero_b(self):
        rg = np.random.default_rng(34)
        report = check_lemma_2_4(crandn(rg, 3, 3), np.zeros((3, 3)))
        assert report.verdict == "pass"

    def test_invertible_a(self):
        rg = np.random.default_rng(35)
        report = check_lemma_2_4(np.diag([1.0, 2.0]), crandn(rg, 2, 2))
        assert report.verdict == "pass"
        assert report.witnesses["left_annihilates"]
        assert report.witnesses["right_annihilates"]

    def test_inside_and_outside_range(self):
        rg = np.random.default_rng(36)
        X = pseudo_core(A33).inverse
        inside = (X @ A33) @ crandn(rg, 2, 2)
        rep_in = check_lemma_2_4(A33, inside)
        assert rep_in.verdict == "pass"
        assert rep_in.witnesses["left_annihilates"]
        rep_out = check_lemma_2_4(A33, B33)
        assert rep_out.verdict == "pass"
        assert not rep_out.witnesses["left_annihilates"]
        assert not rep_out.witnesses["right_annihilates"]


class TestLemma25:
    def test_invertible_top_nilpotent_bottom(self):
        rg = np.random.default_rng(37)
        a = np.diag([1.0, 2.0]).astype(complex)
        d = SHIFT.copy()
        b = crandn(rg, 2, 2)
        report = check_lemma_2_5(a, b, d)
        assert report.verdict == "pass"

    def test_scalar_hand_case(self):
        a = np.array([[0.0]], dtype=complex)
        d = np.array([[0.0]], dtype=complex)
        b = np.array([[1.0]], dtype=complex)
        report = check_lemma_2_5(a, b, d)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 2

    def test_generated_instance(self):
        a, b, d, degenerate = gen_lemma_2_5_instance(3, 3, seed=305)
        report = check_lemma_2_5(a, b, d)
        assert report.verdict == "pass"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            check_lemma_2_5(np.eye(2), np.eye(3), np.eye(2))

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
        report = check_lemma_2_5_converse(np.diag([1.0, 0.0]).astype(complex), 1)
        assert report.verdict == "pass"

    def test_rank_one_idempotent_like(self):
        x = np.array([[1, 1], [0, 0]], dtype=complex)
        report = check_lemma_2_5_converse(x, 1)
        assert report.verdict == "pass"
        assert approx_equal(report.witnesses["x_pcore"], [[1, 0], [0, 0]])

    def test_nilpotent(self):
        report = check_lemma_2_5_converse(SHIFT, 1)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 2

    def test_nonzero_lower_left_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_2_5_converse(np.array([[1, 0], [1, 1]], dtype=complex), 1)

    def test_bad_split_rejected(self):
        with pytest.raises(ValueError):
            check_lemma_2_5_converse(np.eye(2), 2)

    @pytest.mark.parametrize("split", [np.eye(1), 2.0, True],
                             ids=["matrix", "float", "bool"])
    def test_non_integer_split_rejected(self, split):
        with pytest.raises(ValueError, match="split"):
            check_lemma_2_5_converse(np.eye(4), split)
        with pytest.raises(ValueError, match="split"):
            run_check("L2_5b", {"x": np.eye(4), "split": split})

    def test_numpy_integer_split_accepted(self):
        x = np.diag([1.0, 0.0]).astype(complex)
        report = check_lemma_2_5_converse(x, np.int64(1))
        assert report.verdict == "pass"


class TestTheorem31:
    def test_zero_perturbation(self):
        a = gen_with_index(4, 2, 2, seed=306)
        report = check_theorem_3_1(a, np.zeros((4, 4)))
        assert report.verdict == "pass"
        assert report.witnesses["lhs"] and report.witnesses["rhs"]

    def test_hermitian_base(self):
        rg = np.random.default_rng(38)
        h = crandn(rg, 4, 4)
        a = h + h.conj().T
        b = a @ a + 0.5 * a   # polynomial in a: commutes with a and a*
        report = check_theorem_3_1(a, b)
        assert report.verdict == "pass"
        assert report.witnesses["rhs"]

    def test_fixed_noncommuting_pair(self):
        report = check_theorem_3_1(A33, B33)
        assert report.verdict == "hypotheses_not_met"

    def test_fuzz_small(self):
        for trial in range(25):
            a, b = gen_commutant_pair(5, seed=3100 + trial)
            report = check_theorem_3_1(a, b)
            assert report.verdict == "pass", (trial, report.witnesses)


class TestCorollary32:
    def test_fixed_star_dmp_with_zero(self):
        report = check_corollary_3_2(A33, Z2)
        assert report.verdict == "pass"

    def test_hermitian_projection_pair(self):
        p = np.diag([1.0, 0.0]).astype(complex)
        report = check_corollary_3_2(p, 2 * p)
        assert report.verdict == "pass"

    def test_generated_star_dmp(self):
        a = gen_star_dmp(6, 3, 2, seed=308)
        from geninv.generators import _commutant_sample, _rng
        b = _commutant_sample(_rng(309), a)
        report = check_corollary_3_2(a, b)
        assert report.verdict == "pass"

    def test_non_star_dmp_flagged(self):
        a = np.array([[1, 1], [0, 0]], dtype=complex)
        report = check_corollary_3_2(a, Z2)
        assert report.verdict == "hypotheses_not_met"


class TestExample33:
    def test_all_checks_pass(self):
        report = reproduce_example_3_3()
        assert report.verdict == "pass"
        labels = [c.label for c in report.conclusion_checks]
        assert "a_pcore_value" in labels and "annihilation_rank_one" in labels

    def test_intermediate_witnesses(self):
        report = reproduce_example_3_3()
        expected_sum_pcore = 0.5 * np.array([[-1j, 1], [-1, -1j]], dtype=complex)
        expected_ann = np.array([[0, 0], [-0.5, 0]], dtype=complex)
        assert approx_equal(report.witnesses["sum_pcore"], expected_sum_pcore)
        assert approx_equal(report.witnesses["annihilation"], expected_ann)
        assert "note" in report.witnesses

    def test_each_rank_taken_once(self, monkeypatch):
        # one SVD for the commutator's rank and one for the annihilation's
        calls = counting_calls(monkeypatch, [linalg], "_svdvals")
        reproduce_example_3_3()
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
        assert check_theorem_1_1(np.eye(3)).verdict == "pass"

    def test_each_rank_taken_once(self, monkeypatch):
        # rank(A^k), rank(X), rank(X*) and the three ranks of core_m's
        # spaces, plus one stacked rank per range comparison (three)
        A = gen_with_index(5, 2, 2, seed=11)
        calls = counting_calls(monkeypatch, [linalg], "_svdvals")
        assert check_theorem_1_1(A).verdict == "pass"
        assert len(calls) == 9

    def test_nilpotent(self):
        assert check_theorem_1_1(SHIFT).verdict == "pass"

    def test_random_dim5_index2(self):
        A = gen_with_index(5, 2, 3, seed=310)
        assert check_theorem_1_1(A).verdict == "pass"


class TestTheorem41:
    def test_block_diagonal(self):
        A = gen_with_index(3, 1, 2, seed=311)
        D = gen_with_index(2, 0, 2, seed=312)
        report = check_theorem_4_1(A, np.zeros((3, 2)), np.zeros((2, 3)), D)
        assert report.verdict == "pass"

    def test_identity_blocks_with_one_coupling(self):
        report = check_theorem_4_1(I2, I2, Z2, I2)
        assert report.verdict == "pass"

    def test_generated(self):
        A, B, C, D, degenerate = gen_intertwined_4_1(3, 2, seed=313)
        report = check_theorem_4_1(A, B, C, D)
        assert report.verdict == "pass"

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            check_theorem_4_1(I2, np.zeros((3, 2)), Z2, I2)


class TestCorollary42:
    def test_trivial_coupling(self):
        report = check_corollary_4_2(I2, Z2, Z2, 2 * I2)
        assert report.verdict == "pass"

    def test_generated(self):
        A, B, C, D, degenerate = gen_intertwined_4_2(3, 3, seed=314)
        report = check_corollary_4_2(A, B, C, D)
        assert report.verdict == "pass"


class TestTheorem43:
    def test_zero_couplings(self):
        A = gen_with_index(2, 1, 1, seed=315)
        report = check_theorem_4_3(A, Z2, Z2, I2)
        assert report.verdict == "pass"

    def test_antidiagonal_permutation(self):
        report = check_theorem_4_3(Z2, I2, I2, Z2)
        assert report.verdict == "pass"
        # Q is a symmetric permutation here, its own pseudo core inverse
        check = next(c for c in report.conclusion_checks
                     if c.label == "antidiagonal_square_identity")
        assert check.passed

    def test_generated(self):
        A, B, C, D, degenerate = gen_intertwined_4_3(2, 2, seed=316)
        report = check_theorem_4_3(A, B, C, D)
        assert report.verdict == "pass"


class TestCorollary44:
    def test_zero_couplings(self):
        report = check_corollary_4_4(I2, Z2, Z2, I2)
        assert report.verdict == "pass"

    def test_dualized_permutation(self):
        report = check_corollary_4_4(Z2, I2, I2, Z2)
        assert report.verdict == "pass"

    def test_generated(self):
        A, B, C, D, degenerate = gen_intertwined_4_4(3, 2, seed=317)
        report = check_corollary_4_4(A, B, C, D)
        assert report.verdict == "pass"


class TestTheorem45:
    def test_all_zero_couplings(self):
        A = gen_with_index(3, 2, 1, seed=318)
        D = gen_with_index(2, 1, 1, seed=319)
        report = check_theorem_4_5(A, np.zeros((3, 2)), np.zeros((2, 3)), D)
        assert report.verdict == "pass"

    def test_invertible_top_free_b(self):
        rg = np.random.default_rng(39)
        A = np.diag([1.0, 2.0]).astype(complex)
        D = gen_with_index(2, 1, 1, seed=320)
        report = check_theorem_4_5(A, crandn(rg, 2, 2), Z2, D)
        assert report.verdict == "pass"

    def test_generated(self):
        A, B, C, D, degenerate = gen_zero_product_4_5(3, 3, seed=321)
        report = check_theorem_4_5(A, B, C, D)
        assert report.verdict == "pass"

    def test_sum_vanishes_past_the_index(self):
        # A = D = J2: the sum at index(A) = 2 is B J2 + J2 B != 0, and the
        # window [2, 6] first vanishes at m = 4, where every term has a
        # power of J2 of order 2 or more
        B = np.array([[1, 2], [3, 4]], dtype=complex)
        report = check_theorem_4_5(SHIFT, B, Z2, SHIFT)
        assert report.verdict == "pass"
        assert report.witnesses["m"] == 4
        assert report.witnesses["sum_at_index_vanishes"] is False

    def test_sum_vanishes_nowhere_in_the_window(self):
        # A_pi = diag(0, 1) and D = [[1]]: S_m = A_pi B for every m
        A = np.diag([1.0, 0.0]).astype(complex)
        B = np.array([[1.0], [1.0]], dtype=complex)
        report = check_theorem_4_5(A, B, np.zeros((1, 2)), np.eye(1))
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


# every module that forms a matrix power through the kernel's _power
POWER_CALLERS = (inverses, theorems, generators)


def counting_calls(monkeypatch, modules, name):
    """Wrap ``name`` in each module with one shared log of its calls."""
    calls = []
    for module in modules:
        def counting(*args, real=getattr(module, name)):
            calls.append(None)
            return real(*args)
        monkeypatch.setattr(module, name, counting)
    return calls


class TestCouplingSweep:
    """The one-pass coupling-sum sweep finds the same exponent as the direct
    double loop, with every power from _power, that it replaced."""

    @staticmethod
    def _direct(lefts, mids, right, tol, lo, hi):
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
                    mp.setattr(theorems, "_first_vanishing_sum", self._direct)
                    direct = run_check(theorem_id, scaled)
                assert swept.witnesses["m"] == direct.witnesses["m"]
                assert swept.verdict == direct.verdict

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
            report = check_theorem_4_5(A, B, C, D)
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

    def test_record_returns_one_read_only_inverse(self):
        record = inverses._CoreEP(gen_with_index(5, 2, 2, seed=3))
        for method in (record.pcore_inverse, record.drazin_inverse):
            X = method()
            assert method() is X
            assert not X.flags.writeable


class TestCorollary46:
    def test_zero_c(self):
        rg = np.random.default_rng(40)
        A = np.diag([1.0, 2.0]).astype(complex)
        report = check_corollary_4_6(A, crandn(rg, 2, 2) * 0, Z2, I2)
        assert report.verdict == "pass"

    def test_invertible_top(self):
        A = np.diag([1.0, 3.0]).astype(complex)
        report = check_corollary_4_6(A, Z2, Z2, 2 * I2)
        assert report.verdict == "pass"

    def test_generated(self):
        A, B, C, D, degenerate = gen_zero_product_4_6(3, 3, seed=322)
        report = check_corollary_4_6(A, B, C, D)
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
        report = check_lemma_2_1(A33, B33)
        assert any(not c.passed for c in report.hypothesis_checks)
        assert report.verdict == "hypotheses_not_met"


class TestWordHypotheses:
    """Every equation and vanishing-product hypothesis is a word over its
    id's symbols, and the report lists them in table order."""

    def test_words_use_only_the_id_symbols(self):
        # the tables hold each word parsed into keys, a symbol and its star
        # if any; a coupling word may also name the letters of _PCORE
        coupling = {tid: (("coupling", word),)
                    for tid, word in theorems.COUPLING.items()}
        for table, extra in ((theorems._EQUATIONS, set()),
                             (theorems._VANISHING, set()),
                             (coupling, set(theorems._PCORE))):
            for theorem_id, entries in table.items():
                for label, *words in entries:
                    symbols = {key[0] for word in words for key in word}
                    allowed = set(THEOREM_SYMBOLS[theorem_id]) | extra
                    assert symbols <= allowed, (theorem_id, label)
        for letter, word in theorems._PCORE.items():
            assert {key[0] for key in word} <= set("ABCD"), letter

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

    def test_star_is_the_adjoint_of_the_factor_before_it(self):
        rg = np.random.default_rng(4002)
        a, b = crandn(rg, 3, 3), crandn(rg, 3, 3)
        report = check_lemma_2_1(a, b)
        value = next(c.value for c in report.hypothesis_checks
                     if c.label == "astar_b_equals_b_astar")
        astar = a.conj().T
        diff = np.linalg.norm(astar @ b - b @ astar)
        assert value == pytest.approx(
            diff / max(1.0, np.linalg.norm(b @ astar)), rel=1e-12)


class TestDualArrangement:
    """Each corollary's dual_arrangement_certified check equals the
    m_certified check of its theorem run on [[A*, C*], [B*, D*]]."""

    MIRRORS = (("C4_2", check_corollary_4_2, check_theorem_4_1),
               ("C4_4", check_corollary_4_4, check_theorem_4_3),
               ("C4_6", check_corollary_4_6, check_theorem_4_5))

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

    @pytest.mark.parametrize("theorem_id,corollary,theorem", MIRRORS)
    def test_equals_mirrored_theorem(self, theorem_id, corollary, theorem):
        st = lambda M: M.conj().T
        flags = set()
        for A, B, C, D in self._instances(theorem_id):
            dual = next(c for c in corollary(A, B, C, D).conclusion_checks
                        if c.label == "dual_arrangement_certified")
            full = next(c for c in theorem(st(A), st(C), st(B), st(D))
                        .conclusion_checks if c.label == "m_certified")
            assert (dual.value, dual.passed) == (full.value, full.passed)
            flags.add(dual.passed)
        assert flags == {True, False}
