import copy
import hashlib
import itertools

import numpy as np
import pytest
from numpy.linalg import _umath_linalg

from geninv import generators, linalg, theorems
from geninv.linalg import (DEFAULT_POLICY, _Named, is_nilpotent_product,
                           zero_product)
from geninv.inverses import _CoreEP, index, is_star_dmp, pseudo_core
from geninv.generators import (
    MAX_DIM,
    fuzz_dims,
    gen_annihilating_pair,
    gen_commutant_pair,
    gen_lemma_2_5_instance,
    gen_star_dmp,
    gen_with_index,
    instance_for,
    trial_seed,
)
from geninv.theorems import THEOREM_SYMBOLS, run_check
from oracles import (check, coupling_terms, nilpotent_power_sum,
                     nilpotent_powers)


def rel(X, Y):
    return np.linalg.norm(X - Y) / max(1.0, np.linalg.norm(Y))


class TestDeterminism:
    def test_with_index_bit_identical(self):
        A1 = gen_with_index(5, 2, 2, seed=99)
        A2 = gen_with_index(5, 2, 2, seed=99)
        assert np.array_equal(A1, A2)

    def test_all_theorem_samplers_bit_identical(self):
        for theorem_id in THEOREM_SYMBOLS:
            i1 = instance_for(theorem_id, (3, 3), seed=4242)
            i2 = instance_for(theorem_id, (3, 3), seed=4242)
            assert i1.degenerate == i2.degenerate
            for name, M in i1.matrices.items():
                if isinstance(M, np.ndarray):
                    assert np.array_equal(M, i2.matrices[name]), (theorem_id, name)

    def test_trial_seeds_differ(self):
        a = np.random.default_rng(trial_seed(7, 0)).standard_normal(4)
        b = np.random.default_rng(trial_seed(7, 1)).standard_normal(4)
        c = np.random.default_rng(trial_seed(7, 0)).standard_normal(4)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, c)


class TestGenWithIndex:
    def test_invertible(self):
        A = gen_with_index(2, 0, 2, seed=1)
        assert index(A) == 0

    def test_pure_nilpotent(self):
        A = gen_with_index(2, 2, 0, seed=2)
        assert index(A) == 2

    def test_index_postcondition_campaign(self):
        failures = 0
        for trial in range(500):
            rg = np.random.default_rng(5000 + trial)
            n = int(rg.integers(1, 11))
            k = int(rg.integers(0, min(4, n) + 1))
            r = n if k == 0 else int(rg.integers(0, n - k + 1))
            A = gen_with_index(n, k, r, 5000 + trial)
            if index(A) != k:
                failures += 1
        assert failures == 0

    def test_parameter_errors(self):
        with pytest.raises(ValueError):
            gen_with_index(3, 0, 2, seed=3)      # k = 0 needs r = n
        with pytest.raises(ValueError):
            gen_with_index(3, 2, 2, seed=4)      # r + k > n
        with pytest.raises(ValueError):
            gen_with_index(99, 1, 1, seed=5)     # above the dimension cap


class TestCommutantPair:
    def test_hypotheses_exact(self):
        a, b = gen_commutant_pair(5, seed=10, target_index=2)
        tol = DEFAULT_POLICY.residual_tol
        assert rel(a @ b, b @ a) <= tol
        astar = a.conj().T
        assert rel(astar @ b, b @ astar) <= tol

    def test_identity_base_gives_unconstrained_b(self):
        # the constraints are vacuous for a = I; any b solves them
        a, b = gen_commutant_pair(1, seed=11, target_index=0)
        assert np.linalg.norm(b) > 0

    def test_hermitian_distinct_eigenvalues_forces_diagonal(self):
        # sample b against a fixed Hermitian a = diag(1, 2) through the same
        # nullspace machinery the pair generator uses
        from geninv.generators import _commutant_sample, _rng
        a = np.diag([1.0, 2.0]).astype(complex)
        b = _commutant_sample(_rng(12), a)
        off = np.array([[0, 1], [1, 0]], dtype=float)
        assert np.linalg.norm(b * off) < 1e-10

    def test_unit_norm(self):
        # a drawn block has unit norm; scale tests multiply whole instances
        _, b = gen_commutant_pair(4, seed=13)
        assert abs(np.linalg.norm(b) - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [0, 17])
    def test_dimension_cap(self, n):
        with pytest.raises(ValueError, match=r"n must lie in \[1, 16\]"):
            gen_commutant_pair(n, seed=1)

    @pytest.mark.parametrize("target", [-1, 5, 2.5, 2.0])
    def test_target_index_is_an_integer_in_range(self, target):
        # was a numpy broadcast error, a pair of another index, a numpy
        # "high <= 0" error, or a silent truncation of 2.5 to 2; 2.0 drew as 2
        for seed in range(6):
            with pytest.raises(ValueError, match="infeasible"):
                gen_commutant_pair(4, seed, target_index=target)

    @pytest.mark.parametrize("target", [0, 1, 4])
    def test_target_index_is_planted(self, target):
        a, _ = gen_commutant_pair(4, seed=14, target_index=target)
        assert index(a) == target


class TestStarDmp:
    def test_scalar(self):
        a = gen_star_dmp(1, 1, 0, seed=20)
        assert a.shape == (1, 1) and a[0, 0] != 0
        assert is_star_dmp(a)[0]

    def test_rank_one_plus_nilpotent(self):
        a = gen_star_dmp(2, 1, 1, seed=21)
        assert is_star_dmp(a)[0]

    def test_larger_instance_bracket_vanishes(self):
        a = gen_star_dmp(6, 3, 2, seed=22)
        assert is_star_dmp(a)[0]
        X = pseudo_core(a).inverse
        assert np.linalg.norm(a @ X - X @ a) <= 1e-8 * max(
            1.0, np.linalg.norm(a) * np.linalg.norm(X))

    def test_infeasible_params(self):
        with pytest.raises(ValueError):
            gen_star_dmp(2, 2, 1, seed=23)

    def test_no_nilpotent_part_needs_full_rank(self):
        with pytest.raises(ValueError, match="r must equal n"):
            gen_star_dmp(3, 2, 0, seed=24)

    @pytest.mark.parametrize("seed", [trial_seed(3, 0), trial_seed(8, 2), 7])
    def test_corollary_3_2_draws_b_from_another_stream(self, monkeypatch,
                                                       seed):
        # C3_2's a comes from the seed's stream and its (k, r) and b from a
        # second stream: no 64-bit word of one is a word of the other, where
        # the one stream shifted against itself shares nearly every word
        calls, real = [], generators._rng
        monkeypatch.setattr(generators, "_rng",
                            lambda *args: calls.append(args) or real(*args))
        before = copy.deepcopy(seed)
        instance_for("C3_2", (4,), seed)
        words = [set(real(*args).bit_generator.random_raw(256).tolist())
                 for args in calls]
        assert len(words) == 2 and not words[0] & words[1]
        # and a passed SeedSequence is left as it was: nothing spawned
        if isinstance(seed, np.random.SeedSequence):
            assert seed.n_children_spawned == 0
            assert seed.state == before.state


class TestPlantedDimensionCaps:
    @pytest.mark.parametrize("sample,lo", [
        (lambda n: gen_annihilating_pair(n, seed=1), 2),
        (lambda n: (gen_star_dmp(n, 1, 1, seed=1),), 1),
    ], ids=["annihilating_pair", "star_dmp"])
    @pytest.mark.parametrize("outside", [False, True], ids=["below", "above"])
    def test_n_lies_in_the_range_of_its_id(self, sample, lo, outside):
        # both samplers took n = 17 and returned 17 x 17 matrices
        n = MAX_DIM + 1 if outside else lo - 1
        with pytest.raises(ValueError,
                           match=rf"n must lie in \[{lo}, {MAX_DIM}\]"):
            sample(n)
        assert all(M.shape == (MAX_DIM, MAX_DIM) for M in sample(MAX_DIM))

    @pytest.mark.parametrize("call,match", [
        (lambda s: gen_with_index(4, 2.0, 2, s), "infeasible"),
        (lambda s: gen_star_dmp(4, 2.0, 2, s), "infeasible"),
        (lambda s: gen_with_index(True, 1, 0, s), r"n must lie in \[1, 16\]"),
        (lambda s: gen_commutant_pair(4.0, s), r"n must lie in \[1, 16\]"),
        (lambda s: gen_annihilating_pair(4.0, s), r"n must lie in \[2, 16\]"),
        (lambda s: gen_lemma_2_5_instance(3.0, 3, s), r"block dims must lie"),
        (lambda s: instance_for("T4_1", (2.5, 3), s),
         r"T4_1 takes one or two dims, each in \[1, 8\]"),
        (lambda s: instance_for("L2_1", (4.0,), s), r"L2_1 takes one dim"),
    ], ids=["with_index_k", "star_dmp_r", "with_index_bool_n",
            "commutant_pair_n", "annihilating_pair_n", "lemma_2_5_na",
            "instance_for_block_dims", "instance_for_dims"])
    def test_sizes_are_integers(self, call, match):
        # each raised a numpy or Python TypeError, or drew past the check
        with pytest.raises(ValueError, match=match):
            call(7)

    def test_numpy_integers_draw_as_python_integers(self):
        n, k = np.int64(4), np.int64(2)
        assert np.array_equal(gen_with_index(n, k, 2, 7),
                              gen_with_index(4, 2, 2, 7))
        assert all(np.array_equal(X, Y) for X, Y in zip(
            gen_lemma_2_5_instance(np.int64(3), 2, 7)[:3],
            gen_lemma_2_5_instance(3, 2, 7)[:3]))


class TestAnnihilatingPair:
    def test_zero_products_exact(self):
        a, b = gen_annihilating_pair(6, seed=30)
        named = _Named(a=a, b=b)
        assert zero_product(("a", "b"), named)[1]
        assert zero_product(("b", "a"), named)[1]
        assert zero_product(("a*", "b"), named)[1]

    def test_small_split(self):
        a, b = gen_annihilating_pair(2, seed=31)
        assert np.linalg.norm(a) > 0 and np.linalg.norm(b) > 0

    def test_needs_two_dims(self):
        with pytest.raises(ValueError):
            gen_annihilating_pair(1, seed=32)


class TestLemma25Generator:
    def test_invertible_a_leaves_b_free(self):
        # with a invertible the sum map vanishes identically
        found_free = False
        for seed in range(40, 60):
            a, b, d, degenerate = gen_lemma_2_5_instance(3, 3, seed=seed)
            if index(a) == 0:
                assert not degenerate and np.linalg.norm(b) > 0
                found_free = True
        assert found_free

    def test_scalar_zero_case(self):
        # a = d = 0 can occur at dimension 1; the m = 2 map is the zero map
        for seed in range(60, 120):
            a, b, d, degenerate = gen_lemma_2_5_instance(1, 1, seed=seed)
            if abs(a[0, 0]) < 1e-12 and abs(d[0, 0]) < 1e-12:
                assert not degenerate
                return
        pytest.skip("no doubly-singular 1x1 draw in the seed range")

    def test_replay_through_check(self):
        a, b, d, _ = gen_lemma_2_5_instance(3, 3, seed=41)
        assert check("L2_5a", a, b, d).verdict == "pass"

    def test_dim_cap(self):
        with pytest.raises(ValueError):
            gen_lemma_2_5_instance(9, 3, seed=42)


class TestBlockSamplers:
    def test_41_constraint_replay(self):
        A, B, C, D = instance_for("T4_1", (3, 2), 50).matrices.values()
        st = lambda M: M.conj().T
        tol = DEFAULT_POLICY.residual_tol
        assert rel(A @ B, B @ D) <= tol
        assert rel(D @ C, C @ A) <= tol
        assert rel(st(A) @ B, B @ st(D)) <= tol
        assert rel(st(D) @ C, C @ st(A)) <= tol

    def test_43_conjugate_constraint_replay(self):
        A, B, C, D = instance_for("T4_3", (3, 3), 51).matrices.values()
        st = lambda M: M.conj().T
        tol = DEFAULT_POLICY.residual_tol
        assert rel(A @ B, B @ D) <= tol
        assert rel(st(B) @ A, D @ st(B)) <= tol

    def test_45_zero_products_and_sum(self):
        A, B, C, D = instance_for("T4_5", (3, 3), 52).matrices.values()
        named = _Named(B=B, C=C)
        assert zero_product(("B", "C"), named)[1]
        assert zero_product(("C", "B"), named)[1]

    def test_degenerate_fraction_bounded(self):
        for theorem_id in ("T4_1", "T4_3", "T4_5"):
            degenerate = sum(instance_for(theorem_id, (3, 3), 5300 + t)
                             .degenerate for t in range(40))
            assert degenerate / 40 < 0.5, theorem_id

    def test_block_dim_cap(self):
        with pytest.raises(ValueError):
            instance_for("T4_1", (9, 3), 54)

    def test_degenerate_flag_is_the_zero_draw(self):
        # the flag, a draw of nullity 0, is set exactly when B or C is zero
        norm, flags = np.linalg.norm, []
        for dims, theorem_id, seed in itertools.product(
                ((1, 1), (1, 2), (2, 1)),
                ("T4_1", "C4_2", "T4_3", "C4_4", "T4_5", "C4_6"), range(30)):
            inst = instance_for(theorem_id, dims, seed)
            B, C = inst.matrices["B"], inst.matrices["C"]
            assert inst.degenerate == (norm(B) == 0.0 or norm(C) == 0.0), (
                dims, theorem_id, seed)
            flags.append(inst.degenerate)
        assert 0 < sum(flags) < len(flags)


class TestSpecAndDispatch:
    def test_every_catalog_id_has_a_sampler(self):
        for theorem_id, symbols in THEOREM_SYMBOLS.items():
            dims = fuzz_dims(theorem_id)
            assert 1 <= len(dims) <= 2
            inst = instance_for(theorem_id, dims, seed=7)
            assert tuple(inst.matrices) == symbols

    def test_unknown_id(self):
        with pytest.raises(KeyError, match="T9_9"):
            instance_for("T9_9", (3,), seed=1)
        with pytest.raises(KeyError, match="T9_9"):
            fuzz_dims("T9_9")

    def test_fuzz_dims_checks_count_and_range(self):
        assert fuzz_dims("T4_5", [2, 5]) == (2, 5)
        for theorem_id, dims in (("C3_2", (3, 3)), ("C3_2", (17,)),
                                 ("C4_4", (9,)), ("C4_4", (0, 2)),
                                 ("L2_3", (1,)), ("L2_5b", ())):
            with pytest.raises(ValueError, match=theorem_id):
                fuzz_dims(theorem_id, dims)

    @pytest.mark.parametrize("theorem_id,dims", [
        ("L2_1", ()), ("L2_1", (0,)), ("L2_1", (17,)), ("T1_1", (40,)),
        ("L2_3", (1,)), ("T4_1", (3, 9)), ("L2_5b", (0,))])
    def test_instance_for_checks_the_dims_it_reads(self, theorem_id, dims):
        # with the message fuzz_dims gives, which the CLI prints
        with pytest.raises(ValueError) as expected:
            fuzz_dims(theorem_id, dims)
        with pytest.raises(ValueError) as raised:
            instance_for(theorem_id, dims, seed=1)
        assert str(raised.value) == str(expected.value)

    def test_every_theorem_instance_meets_hypotheses(self):
        for theorem_id in THEOREM_SYMBOLS:
            for t in range(5):
                inst = instance_for(theorem_id, (3, 3), seed=trial_seed(88, t))
                report = run_check(theorem_id, inst.matrices)
                assert report.verdict != "hypotheses_not_met", (theorem_id, t)


def _commutation_matrix(p, q):
    K = np.zeros((p * q, p * q))
    for i in range(p):
        for j in range(q):
            K[j + i * q, i + j * p] = 1.0
    return K


def _realified_rows(shape, lin_terms, conj_terms):
    """Reference: realified rows of sum L X R + sum M X* N = 0, and the sum
    of the term factors' norm products."""
    p, q = shape
    ref = 0.0
    S = None
    for L, R in lin_terms:
        L, R = np.asarray(L), np.asarray(R)
        ref += np.linalg.norm(L) * np.linalg.norm(R)
        part = np.kron(R.T, L)
        S = part if S is None else S + part
    T = None
    if conj_terms:
        K = _commutation_matrix(p, q)
        for M, N in conj_terms:
            M, N = np.asarray(M), np.asarray(N)
            ref += np.linalg.norm(M) * np.linalg.norm(N)
            part = np.kron(N.T, M) @ K
            T = part if T is None else T + part
    if S is not None and T is not None:
        rows = np.block([[S.real + T.real, -S.imag + T.imag],
                         [S.imag + T.imag, S.real - T.real]])
    elif S is not None:
        rows = np.block([[S.real, -S.imag], [S.imag, S.real]])
    else:
        rows = np.block([[T.real, T.imag], [T.imag, -T.real]])
    return rows, ref


def _two_svd_nullspace_sample(rg, shape, equations):
    """Reference: the nullspace draw from the realified system, with a
    rank-only SVD and a full SVD.  equations: list of (lin_terms,
    conj_terms)."""
    rtol = DEFAULT_POLICY.rank_rel_tol
    p, q = shape
    rows = []
    for lin, conj in equations:
        block, ref = _realified_rows(shape, lin, conj)
        if np.linalg.norm(block) > rtol * max(1.0, ref):
            rows.append(block)
    if not rows:
        X = generators._crandn(rg, p, q)
        return X * (1.0 / np.linalg.norm(X)), 2 * p * q
    A = np.vstack(rows)
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > rtol * s[0])) if s.size and s[0] > 0 else 0
    _, _, Vh = np.linalg.svd(A)
    basis = Vh[rank:].T
    nullity = basis.shape[1]
    if nullity == 0:
        return np.zeros((p, q), dtype=np.complex128), 0
    v = basis @ rg.standard_normal(nullity)
    X = (v[: p * q] + 1j * v[p * q:]).reshape((p, q), order="F")
    nf = np.linalg.norm(X)
    if nf > 0:
        X = X * (1.0 / nf)
    return X, nullity


def _linear(equations):
    return [(terms, []) for terms in equations]


def _b_star_a(equations):
    """[AB = BD, A*B = BD*] as drawn -> [AB = BD, B*A = DB*] as stated."""
    (A, ID), (_, D) = equations[0]
    IA = np.eye(A.shape[0], dtype=np.complex128)
    return [(equations[0], []), ([], [(ID, A), (-D, IA)])]


def _a_c_star(equations):
    """[DC = CA, D*C = CA*] as drawn -> [DC = CA, AC* = C*D] as stated."""
    (D, IA), (_, A) = equations[0]
    ID = np.eye(D.shape[0], dtype=np.complex128)
    return [(equations[0], []), ([], [(A, ID), (-IA, D)])]


def _stated_residual(X, lin, conj):
    """||sum L X R + sum M X* N|| over max(1, sum of factor norm products)."""
    E = sum(L @ X @ R for L, R in lin) + sum(M @ X.conj().T @ N
                                             for M, N in conj)
    ref = sum(np.linalg.norm(F) * np.linalg.norm(G) for F, G in lin + conj)
    return np.linalg.norm(E) / max(1.0, ref)


def _draw_digest(*Ms):
    h = hashlib.sha256()
    for M in Ms:
        h.update(M.tobytes())
    return h.hexdigest()[:16]


class TestNullspaceSample:
    """The complex draw keeps the realified reference's real nullity and
    generator state, and meets every equation as the theorem states it,
    the conjugate-linear ones included."""

    def _compare_draws(self, monkeypatch, make, stated=None):
        """stated(i, equations): the (lin, conj) system the i-th draw of one
        generator call solves; purely linear unless given."""
        sample = generators._nullspace_sample
        stated = stated or (lambda i, eqs: _linear(eqs))
        draws, current = [], []

        def spy(rg, shape, equations):
            system = stated(len(current), equations)
            ref_rg = copy.deepcopy(rg)
            X, nullity = sample(rg, shape, equations)
            _, nullity_ref = _two_svd_nullspace_sample(ref_rg, shape, system)
            assert nullity == nullity_ref
            assert rg.bit_generator.state == ref_rg.bit_generator.state
            tol = DEFAULT_POLICY.residual_tol
            for lin, conj in system:
                assert _stated_residual(X, lin, conj) <= tol
            current.append(nullity)
            return X, nullity

        monkeypatch.setattr(generators, "_nullspace_sample", spy)
        try:
            for seed in range(6):
                current.clear()
                make(seed)
                draws.extend(current)
        finally:
            monkeypatch.undo()
        return draws

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_commutant_systems(self, monkeypatch, n):
        draws = self._compare_draws(
            monkeypatch, lambda seed: gen_commutant_pair(n, seed=700 + seed))
        assert len(draws) == 6 and min(draws) > 0

    def test_single_square_equation(self, monkeypatch):
        draws = self._compare_draws(
            monkeypatch, lambda seed: gen_lemma_2_5_instance(3, 4, seed=730 + seed))
        assert len(draws) == 6

    def test_conjugate_term_systems(self, monkeypatch):
        # T4_3 draws B under B*A = DB* first, then C; C4_4 draws B, then C
        # under AC* = C*D
        for make, stated in (
                (lambda seed: instance_for("T4_3", (3, 2), 710 + seed),
                 lambda i, eqs: _b_star_a(eqs) if i == 0 else _linear(eqs)),
                (lambda seed: instance_for("C4_4", (2, 3), 720 + seed),
                 lambda i, eqs: _linear(eqs) if i == 0 else _a_c_star(eqs))):
            draws = self._compare_draws(monkeypatch, make, stated)
            assert len(draws) >= 12 and max(draws) > 0

    @pytest.mark.parametrize("dims", [(3, 3), (3, 2), (4, 4)])
    def test_zero_product_systems(self, monkeypatch, dims):
        # T4_5 draws C under AC* = C*D, then B; C4_6 draws B, then C
        for theorem_id, stated in (
                ("T4_5",
                 lambda i, eqs: _a_c_star(eqs) if i == 0 else _linear(eqs)),
                ("C4_6", None)):
            draws = self._compare_draws(
                monkeypatch,
                lambda seed: instance_for(theorem_id, dims, 740 + seed),
                stated)
            assert len(draws) == 12 and max(draws) > 0

    def test_rows_equal_kron_sum(self):
        # broadcasting forms the same products as np.kron, so the bits agree
        rg = np.random.default_rng(760)
        crandn = lambda *shape: generators._crandn(rg, *shape)
        L1, L2 = crandn(3, 2), crandn(3, 2)
        R1, R2 = crandn(4, 5), crandn(4, 5)
        rows, ref = generators._equation_rows([(L1, R1), (-L2, R2)])
        assert rows.tobytes() == (
            np.kron(R1.T, L1) + np.kron(R2.T, -L2)).tobytes()
        norm = np.linalg.norm
        assert ref == pytest.approx(norm(L1) * norm(R1) + norm(L2) * norm(R2))
        X = crandn(2, 4)
        assert np.allclose(rows @ X.reshape(-1, order="F"),
                           (L1 @ X @ R1 - L2 @ X @ R2).reshape(-1, order="F"))

    PINNED = {
        "commutant": "9c5a336fe0935c0a",
        "T4_3": "11552d5ce06bab9d",
        "C4_4": "e96c88db467c3c64",
        "T4_5": "45a098b148a18caf",
    }

    def test_pinned_draws(self):
        # the bits of a draw change only with an announced report change
        _, b = gen_commutant_pair(4, seed=700)
        _, B3, C3, _ = instance_for("T4_3", (3, 2), 710).matrices.values()
        _, B4, C4, _ = instance_for("C4_4", (2, 3), 720).matrices.values()
        _, B5, C5, _ = instance_for("T4_5", (3, 3), 740).matrices.values()
        got = {"commutant": _draw_digest(b), "T4_3": _draw_digest(B3, C3),
               "C4_4": _draw_digest(B4, C4), "T4_5": _draw_digest(B5, C5)}
        assert got == self.PINNED


def _hand_systems(a, d, A, B, C, D, m):
    """Reference: each generator's word systems as hand-written term lists,
    keyed by (id, unknown), with the symbols drawn before the unknown; a
    coupling sum, taken at m, goes last, with one term per i."""
    I = lambda n: np.eye(n, dtype=np.complex128)
    st = lambda M: M.conj().T
    n, nA, nD = a.shape[0], A.shape[0], D.shape[0]
    IA, ID = I(nA), I(nD)
    rA = _CoreEP(A)
    commutes = [[(a, I(n)), (-I(n), a)], [(st(a), I(n)), (-I(n), st(a))]]
    ab_bd = [(A, ID), (-IA, D)]
    astar_b = [(st(A), ID), (-IA, st(D))]
    dc_ca = [(D, IA), (-ID, A)]
    dstar_c = [(st(D), IA), (-ID, st(A))]
    return {
        **{(tid, "b", "a"): commutes for tid in ("L2_1", "L2_2", "T3_1", "C3_2")},
        ("T4_1", "B", "AD"): [ab_bd, astar_b],
        ("T4_1", "C", "AD"): [dc_ca, dstar_c],
        ("C4_2", "B", "AD"): [ab_bd, astar_b],
        ("C4_2", "C", "AD"): [dc_ca, dstar_c],
        ("T4_3", "B", "AD"): [ab_bd, astar_b],
        ("T4_3", "C", "AD"): [dc_ca],
        ("C4_4", "B", "AD"): [ab_bd],
        ("C4_4", "C", "AD"): [dc_ca, dstar_c],
        ("T4_5", "C", "AD"): [dc_ca, dstar_c],
        ("T4_5", "B", "ACD"): [[(IA, C)], [(C, ID)],
                               coupling_terms(rA, D, m)],
        ("C4_6", "B", "AD"): [ab_bd, astar_b],
        ("C4_6", "C", "ABD"): [[(B, IA)], [(ID, B)],
                               [(ID, P) for P in nilpotent_powers(rA, m)[0]]],
        ("L2_5a", "b", "ad"): [coupling_terms(_CoreEP(a), d, m)],
    }


class TestNullspaceRoute:
    """A tall stack is QR-factored once and only its square R reaches the
    thin SVD; a square stack reaches it as it is."""

    @pytest.fixture
    def gufunc_calls(self, monkeypatch):
        calls = []
        for name in ("qr_r_raw", "svd_s"):
            def spy(M, *args, real=getattr(_umath_linalg, name), name=name,
                    **kwargs):
                calls.append((name, M.shape))
                return real(M, *args, **kwargs)
            monkeypatch.setattr(_umath_linalg, name, spy)
        return calls

    @pytest.mark.parametrize("seed", range(3))
    def test_commutant_stack_takes_one_qr(self, gufunc_calls, seed):
        gen_commutant_pair(8, seed)
        assert gufunc_calls == [("qr_r_raw", (128, 64)), ("svd_s", (64, 64))]

    def test_square_coupling_stack_takes_no_qr(self, gufunc_calls):
        gen_lemma_2_5_instance(3, 3, seed=0)
        assert gufunc_calls == [("svd_s", (9, 9))]


class TestWordSystems:
    """The generators' constraint systems are read off the checker's word
    tables, and equal reference term lists written out by hand."""

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 3), (4, 4), (3, 2)])
    def test_equal_the_hand_written_lists(self, dims):
        nA, nD = dims
        word_ids = {tid for tid in THEOREM_SYMBOLS
                    if tid in theorems._EQUATIONS or tid in theorems._VANISHING
                    or tid in theorems._SUMS}
        for seed, c in itertools.product(range(5), (1e-6, 1.0, 1e6)):
            rg = np.random.default_rng((770, seed))
            crandn = lambda *shape: generators._crandn(rg, *shape)
            # a, d, A and D singular, so that the sums' idempotents are not 0
            sing = lambda n, t: gen_with_index(
                n, 1 + t % n, n - 1 - t % n, np.random.SeedSequence((771, t)))
            named = dict(a=sing(nA, seed), b=crandn(nA, nA), d=sing(nD, seed + 1),
                         A=sing(nA, seed + 2), B=crandn(nA, nD),
                         C=crandn(nD, nA), D=sing(nD, seed + 3))
            named = {s: M * c for s, M in named.items()}
            m = 1 + seed % 3
            hand = _hand_systems(*(named[s] for s in "adABCD"), m)
            # L2_3's pair is built on projections, not drawn from its words;
            # L2_5b's instance is L2_5a's, and T3_1's b is drawn as L2_1's
            assert ({tid for tid, _, _ in hand}
                    == word_ids - {"L2_3", "L2_5b"})
            for (tid, unknown, drawn), systems in hand.items():
                shape = named[unknown].shape
                got = generators._word_system(
                    tid, unknown, shape,
                    theorems._Instance(**{s: named[s] for s in drawn}), m)
                assert len(got) == len(systems), (tid, unknown)
                for terms, ref_terms in zip(got, systems):
                    assert ([(L.tobytes(), R.tobytes()) for L, R in terms]
                            == [(L.tobytes(), R.tobytes())
                                for L, R in ref_terms]), (tid, unknown)
                    rows, ref = generators._equation_rows(terms)
                    ref_rows, ref_ref = generators._equation_rows(ref_terms)
                    assert rows.tobytes() == ref_rows.tobytes(), (tid, unknown)
                    assert ref == ref_ref, (tid, unknown)

    def test_generator_reads_the_table(self, monkeypatch):
        # dropping B*A = DB* from T4_3's table leaves its B draw one equation
        sample, counts = generators._nullspace_sample, []

        def spy(rg, shape, equations):
            counts.append(len(equations))
            return sample(rg, shape, equations)

        monkeypatch.setattr(generators, "_nullspace_sample", spy)
        instance_for("T4_3", (3, 3), 780)
        assert counts[0] == 2
        stated = theorems._EQUATIONS["T4_3"]
        monkeypatch.setitem(theorems._EQUATIONS, "T4_3", tuple(
            e for e in stated if e[0] != "Bstar_A_equals_D_Bstar"))
        counts.clear()
        instance_for("T4_3", (3, 3), 780)
        assert counts[0] == 1

    def test_commutation_ids_state_the_words_the_commutant_draw_reads(self):
        # _commutant_sample draws b for L2_1, L2_2, T3_1 and C3_2 from
        # L2_1's words, so the four entries must stay one statement
        entries = {theorems._EQUATIONS[tid]
                   for tid in ("L2_1", "L2_2", "T3_1", "C3_2")}
        assert len(entries) == 1


def _coupling_4_1(A, D, tol=DEFAULT_POLICY):
    apc = _CoreEP(A, tol).pcore_inverse
    dpc = _CoreEP(D, tol).pcore_inverse
    return lambda B, C: [apc, B, dpc, C]


def _coupling_4_2(A, D, tol=DEFAULT_POLICY):
    apc = _CoreEP(A, tol).pcore_inverse
    dpc = _CoreEP(D, tol).pcore_inverse
    return lambda B, C: [B, dpc, C, apc]


def _coupling_4_3(A, D, tol=DEFAULT_POLICY):
    return lambda B, C: [B, _CoreEP(C @ B, tol).pcore_inverse, D, C,
                         _CoreEP(B @ C, tol).pcore_inverse, A]


def _coupling_4_4(A, D, tol=DEFAULT_POLICY):
    return lambda B, C: [A, _CoreEP(B @ C, tol).pcore_inverse, B, D,
                         _CoreEP(C @ B, tol).pcore_inverse, C]


# Reference: each coupling product's factors as hand-written closures, the
# part that depends on A and D alone formed before (B, C) are given.
_HAND_COUPLING = {"T4_1": _coupling_4_1, "C4_2": _coupling_4_2,
                  "T4_3": _coupling_4_3, "C4_4": _coupling_4_4}


_RETRY_CAP = 64     # the reference loop's cap on draws of C


def _as_word(factors):
    """A list of matrices as a parsed word over a map of its own, one key
    per factor: the form zero_product and is_nilpotent_product take."""
    named = _Named({str(i): F for i, F in enumerate(factors)})
    return tuple(named), named


def _loop_b_then_c(rg, A, D, b_eqs, c_eqs, theorem_id,
                   nilpotent=is_nilpotent_product):
    """Reference: the B-then-C rejection loop as each intertwined sampler
    once spelled it out, with the hand-written coupling closures."""
    nA, nD = A.shape[0], D.shape[0]
    B, _ = generators._nullspace_sample(rg, (nA, nD), b_eqs)
    degenerate = np.linalg.norm(B) == 0.0
    product = _HAND_COUPLING[theorem_id](A, D)
    C = None
    for _ in range(_RETRY_CAP):
        Cc, nullity = generators._nullspace_sample(rg, (nD, nA), c_eqs)
        if nullity == 0:
            break
        if nilpotent(*_as_word(product(B, Cc))):
            C = Cc
            break
    if C is None:
        C = np.zeros((nD, nA), dtype=np.complex128)
        degenerate = True
    return A, B, C, D, degenerate


def _loop_intertwined(seed, nA, nD, theorem_id, nilpotent):
    """Reference: the intertwined sampler on the rejection loop; returns its
    output and its random generator."""
    rg = generators._rng(seed)
    A, D = generators._shared_block_pair(rg, nA, nD)
    named = theorems._Instance(A=A, D=D)
    out = _loop_b_then_c(
        rg, A, D, generators._word_system(theorem_id, "B", (nA, nD), named),
        generators._word_system(theorem_id, "C", (nD, nA), named),
        theorem_id, nilpotent)
    return out, rg


def _factor_bytes(factors):
    return [(F.shape, F.tobytes()) for F in factors]


class TestRejectionSampler:
    """Each intertwined generator draws C once, and its draws equal the
    rejection loop's bit for bit: the loop's one nilpotency test per call
    always passes on the shared-block construction."""

    IDS = ("T4_1", "C4_2", "T4_3", "C4_4")
    DIMS = ((1, 1), (1, 2), (2, 1), (2, 3), (3, 2), (3, 3), (4, 4), (5, 5),
            (6, 6), (8, 8), (2, 8), (8, 2))

    def test_matches_reference_loop(self, monkeypatch):
        made, real_rng = [], generators._rng

        def recording_rng(seed):
            made.append(real_rng(seed))
            return made[-1]

        monkeypatch.setattr(generators, "_rng", recording_rng)
        tests = []

        def counted(word, named):
            tests.append(None)
            return is_nilpotent_product(word, named)

        for theorem_id in self.IDS:
            for nA, nD in self.DIMS:
                for seed in range(960, 970):
                    made.clear()
                    out = instance_for(theorem_id, (nA, nD), seed)
                    tests.clear()
                    ref, ref_rg = _loop_intertwined(seed, nA, nD, theorem_id,
                                                    counted)
                    case = (theorem_id, nA, nD, seed)
                    assert len(tests) == 1, case
                    for M, M_ref in zip(out.matrices.values(), ref[:4]):
                        assert M.tobytes() == M_ref.tobytes(), case
                    assert out.degenerate == ref[4], case
                    assert (made[0].bit_generator.state
                            == ref_rg.bit_generator.state), case

    def test_trivial_c_system_gives_zero_and_degenerate(self, monkeypatch):
        # a C system whose only solution is zero (nullity 0) gives C = 0
        # with the degeneracy flag set
        real = generators._nullspace_sample

        def trivial_c(rg, shape, equations):
            if shape == (2, 3):
                return np.zeros(shape, dtype=np.complex128), 0
            return real(rg, shape, equations)

        monkeypatch.setattr(generators, "_nullspace_sample", trivial_c)
        for theorem_id in self.IDS:
            inst = instance_for(theorem_id, (3, 2), 910)
            B, C = inst.matrices["B"], inst.matrices["C"]
            assert inst.degenerate and B.any()
            assert not C.any() and C.shape == (2, 3)

    def test_builds_no_record(self, monkeypatch):
        # the coupling word holds by construction, so no pseudo core
        # inverse is formed while drawing
        analysed = []

        def counted(M, tol=DEFAULT_POLICY):
            analysed.append(M)
            return _CoreEP(M, tol)

        monkeypatch.setattr(theorems, "_CoreEP", counted)
        for theorem_id in self.IDS:
            for seed in range(920, 924):
                instance_for(theorem_id, (3, 3), seed)
        assert analysed == []


def _hand_zero_product(seed, nA, nD, theorem_id, order, last_terms):
    """Reference: the T4_5 and C4_6 sampler with its coupling sum built by
    hand: B and C drawn in the given order, each from the id's words on it,
    the second also under the term list ``last_terms(rA, D)``, rA the record
    of A, when A has index >= 1."""
    rg = generators._rng(seed)
    A, D = generators._shared_block_pair(rg, nA, nD, keep_complement=True)
    named = theorems._Instance(A=A, D=D)
    shapes = {"B": (nA, nD), "C": (nD, nA)}
    rA = _CoreEP(A)
    for X in order:
        equations = generators._word_system(theorem_id, X, shapes[X], named)
        if X == order[1] and rA.k >= 1:
            equations.append(last_terms(rA, D))
        named[X], _ = generators._nullspace_sample(rg, shapes[X], equations)
    B, C = named["B"], named["C"]
    return A, B, C, D, np.linalg.norm(B) == 0.0 or np.linalg.norm(C) == 0.0


# Reference: each zero-product id's draw order and its hand-built sum.
_HAND_ZERO_PRODUCT = {
    "T4_5": ("CB",
             lambda rA, D: coupling_terms(rA, D, rA.k)),
    "C4_6": ("BC",
             lambda rA, D: [(linalg._eye(D.shape[0]),
                             nilpotent_power_sum(rA)[0])]),
}


class TestZeroProductSampler:
    """The T4_5 and C4_6 samplers read their coupling sum off the table and
    draw the bits the hand-built sums drew.  C4_6's unknown C prefixes its
    sum, and the table gives one term (I, A^(i-1) A_pi) per i where the hand
    had the one term (I, sum_i A^(i-1) A_pi)."""

    @pytest.mark.parametrize("theorem_id", ["T4_5", "C4_6"])
    def test_matches_hand_built_sums(self, theorem_id):
        order, last_terms = _HAND_ZERO_PRODUCT[theorem_id]
        for nA, nD in TestRejectionSampler.DIMS:
            for seed in range(20):
                out = instance_for(theorem_id, (nA, nD), seed)
                ref = _hand_zero_product(seed, nA, nD, theorem_id, order,
                                         last_terms)
                case = (theorem_id, nA, nD, seed)
                for M, M_ref in zip(out.matrices.values(), ref[:4]):
                    assert M.tobytes() == M_ref.tobytes(), case
                assert out.degenerate == ref[4], case


class TestCouplingWords:
    """Each coupling product is a word of theorems.COUPLING over the blocks
    and the pseudo core letters of theorems._DERIVED; its factors equal the
    hand-written closures', and the check reads the entry, the generator
    none."""

    @pytest.mark.parametrize("dims", [(1, 1), (2, 3), (3, 3), (4, 4)])
    def test_check_factors_equal_the_closures(self, monkeypatch, dims):
        tested, test = [], theorems.is_nilpotent_product

        def recorded(word, named, tol=DEFAULT_POLICY):
            tested.append(_factor_bytes([named[key] for key in word]))
            return test(word, named, tol)

        monkeypatch.setattr(theorems, "is_nilpotent_product", recorded)
        for theorem_id, closure in _HAND_COUPLING.items():
            for seed in range(4):
                inst = instance_for(theorem_id, dims, trial_seed(930, seed))
                A, B, C, D = (inst.matrices[s] for s in "ABCD")
                tested.clear()
                run_check(theorem_id, inst.matrices)
                assert tested == [_factor_bytes(closure(A, D)(B, C))], (
                    theorem_id, seed)

    def test_check_and_generator_read_one_entry(self, monkeypatch):
        # dropping the last factor C from T4_1's word changes what the
        # check's coupling_nilpotent tests; the generator tests no word
        lengths, test = [], is_nilpotent_product

        def recorded(word, named, tol=DEFAULT_POLICY):
            lengths.append(len(word))
            return test(word, named, tol)

        monkeypatch.setattr(theorems, "is_nilpotent_product", recorded)
        monkeypatch.setattr(linalg, "is_nilpotent_product", recorded)
        A, B, C, D = instance_for("T4_1", (3, 3), 940).matrices.values()
        assert lengths == []
        check("T4_1", A, B, C, D)
        assert lengths == [4]
        monkeypatch.setitem(theorems.COUPLING, "T4_1",
                            theorems.COUPLING["T4_1"][:-1])
        lengths.clear()
        drawn = instance_for("T4_1", (3, 3), 940).matrices.values()
        assert lengths == []
        assert all(M.tobytes() == M0.tobytes()
                   for M, M0 in zip(drawn, (A, B, C, D)))
        report = check("T4_1", A, B, C, D)
        assert lengths == [3]
        # the check's verdict is the nilpotency of A_pc B D_pc
        nilp = next(c for c in report.hypothesis_checks
                    if c.label == "coupling_nilpotent")
        expected = test(*_as_word([theorems._CoreEP(A).pcore_inverse, B,
                                    theorems._CoreEP(D).pcore_inverse]))
        assert nilp.passed == expected
