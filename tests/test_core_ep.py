"""The core-EP record of a matrix, built by staircase deflation.

Its index and rank chain are checked against a 50-digit oracle on matrices
whose small core eigenvalues, raised to the index, come close to the
rounding dust of a float64 power, and on random draws, some with two zero
columns; its index and pseudo core inverse are
checked for invariance under scaling and unitary similarity.
"""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geninv.inverses as inverses
import geninv.linalg as linalg
import geninv.theorems as theorems
from geninv.generators import _random_unitary, gen_with_index, instance_for
from geninv.inverses import _CoreEP, index, moore_penrose, one_three, pseudo_core
from geninv.linalg import DEFAULT_POLICY, as_matrix, numerical_rank

from oracles import mp_power_ranks


def _chain_with_small_core(lam, m, seed):
    """Unitary similarity of [[lam, s], [0, J]] with J the nilpotent Jordan
    block of order m and s a random row: index m, one core eigenvalue."""
    rg = np.random.default_rng(seed)
    M = np.zeros((m + 1, m + 1), dtype=np.complex128)
    M[0, 0] = lam
    M[0, 1:] = rg.standard_normal(m)
    M[1:, 1:] = np.diag(np.ones(m - 1), 1)
    Q = _random_unitary(rg, m + 1)
    return Q @ M @ Q.conj().T


def _lemma_2_5_x():
    inst = instance_for("L2_5a", (3, 3), np.random.SeedSequence([29, 7, 0]))
    a, b, d = (inst.matrices[s] for s in "abd")
    return np.block([[a, b], [np.zeros((3, 3), dtype=np.complex128), d]])


def _random_draws():
    """20 random complex 5 x 5 matrices, about half with two zero columns."""
    rg = np.random.default_rng(9)
    for _ in range(20):
        A = (rg.standard_normal((5, 5))
             + 1j * rg.standard_normal((5, 5))) / np.sqrt(2)
        if rg.integers(0, 2):
            A[:, :2] = 0
        yield A


ILL_SEPARATED = [pytest.param(_lemma_2_5_x, id="lemma_2_5_x")] + [
    pytest.param(partial(_chain_with_small_core, lam, m, 0), id=f"lam{lam}-m{m}")
    for lam in (0.1, 0.02) for m in (5, 7)]
RANDOM = [pytest.param(partial(np.array, A), id=f"random{i}")
          for i, A in enumerate(_random_draws())]


@pytest.mark.parametrize("make", ILL_SEPARATED + RANDOM)
def test_rank_chain_matches_50_digit_oracle(make):
    A = make()
    record = _CoreEP(A)
    # the rank chain of the powers never rises
    assert all(b <= a for a, b in zip(record.ranks, record.ranks[1:]))
    ranks = mp_power_ranks(A)
    k = next(j for j in range(len(ranks) - 1) if ranks[j] == ranks[j + 1])
    assert index(A) == record.k == k
    assert record.ranks == ranks[:k + 1]
    assert pseudo_core(A).certified()


def _rel(X, Y):
    return np.linalg.norm(X - Y) / max(np.linalg.norm(Y), 1e-300)


@st.composite
def _indexed_matrices(draw):
    n = draw(st.integers(1, 8))
    k = draw(st.integers(0, min(3, n)))
    r = n if k == 0 else draw(st.integers(0, n - k))
    seed = draw(st.integers(0, 2**32 - 1))
    return gen_with_index(n, k, r, seed), seed


@settings(max_examples=60, deadline=None)
@given(_indexed_matrices(), st.sampled_from([1e-9, 1e-6, 1e6, 1e9]))
def test_scaling_and_unitary_similarity(drawn, c):
    A, seed = drawn
    k, X = index(A), pseudo_core(A).inverse
    U = _random_unitary(np.random.default_rng(seed), A.shape[0])
    B = U @ A @ U.conj().T
    assert index(c * A) == index(B) == k
    if np.linalg.norm(X) == 0.0:
        assert np.linalg.norm(pseudo_core(c * A).inverse) == 0.0
        assert np.linalg.norm(pseudo_core(B).inverse) == 0.0
        return
    assert _rel(c * pseudo_core(c * A).inverse, X) <= 1e-8
    assert _rel(U.conj().T @ pseudo_core(B).inverse @ U, X) <= 1e-8


RANK_PINNED = [pytest.param(n, k, id=f"n{n}-k{k}")
               for n in (1, 4, 8, 16) for k in range(min(n, 3) + 1)]


@pytest.mark.parametrize("n,k", RANK_PINNED)
def test_rank_is_the_first_count_of_the_staircase(n, k):
    # rank(A) is read off the staircase's first step, the SVD of A cut at
    # the rule of numerical_rank, so it agrees with numerical_rank(A)
    for r in [n] if k == 0 else sorted({0, n - k}):
        A = gen_with_index(n, k, r, seed=100 * n + 10 * k + r)
        assert _CoreEP(A).rank == numerical_rank(A)


@pytest.mark.parametrize("A", [np.zeros((4, 4)), np.zeros((0, 0))],
                         ids=["zero", "empty"])
def test_rank_of_zero_and_empty_matrices(A):
    assert _CoreEP(as_matrix(A)).rank == numerical_rank(A) == 0


def test_each_cached_value_is_formed_once(monkeypatch):
    formed = []
    for name in ("_refined_inverse", "_power", "_finite", "_residuals"):
        real = getattr(inverses, name)
        monkeypatch.setattr(inverses, name, lambda *args, real=real, name=name:
                            formed.append(name) or real(*args))
    record = _CoreEP(gen_with_index(6, 2, 3, seed=7))
    for attr in ("t_inverse", "exact_power", "pcore_inverse",
                 "drazin_inverse", "pseudo_core", "drazin"):
        first = getattr(record, attr)
        assert getattr(record, attr) is first
    assert formed == ["_refined_inverse", "_power", "_finite", "_finite",
                      "_residuals", "_residuals"]


def test_a_record_takes_its_validated_product_unscanned(monkeypatch):
    # an instance's record is built from the product _finite_product has
    # just tested for finiteness; the record does not validate it again
    a, b = gen_with_index(4, 2, 2, seed=5), gen_with_index(4, 1, 3, seed=6)
    named = theorems._Instance(a=a, b=b)

    def refused(data):
        raise AssertionError("as_matrix called")

    monkeypatch.setattr(linalg, "as_matrix", refused)
    record = named.record("ab")
    assert record.A.tobytes() == (a @ b).tobytes()
    assert record.pseudo_core is record.pseudo_core


def _spy(monkeypatch, modules, name):
    """Log the bytes of the first argument of every call of ``name``."""
    calls = []
    for module in modules:
        monkeypatch.setattr(module, name,
                            lambda M, *args, real=getattr(module, name):
                            calls.append(M.tobytes()) or real(M, *args))
    return calls


@pytest.mark.parametrize("A", [gen_with_index(5, 2, 2, seed=11),
                               np.zeros((4, 4)), np.zeros((0, 0))],
                         ids=["index2", "zero", "empty"])
def test_record_keeps_the_svd_of_its_matrix(monkeypatch, A):
    # the staircase's first step is the SVD of A; the record keeps it, and
    # the (1,3)-inverse read from it is one_three's, bit for bit
    svds = _spy(monkeypatch, [linalg, inverses], "_svd")
    record = _CoreEP(as_matrix(A))
    taken = len(svds)
    assert svds[:1] == ([record.A.tobytes()] if A.size else [])
    mine = inverses._one_three(record.A, record.svd, DEFAULT_POLICY)
    assert len(svds) == taken
    ref = one_three(A)
    assert len(svds) == taken + 1
    assert mine.inverse.tobytes() == ref.inverse.tobytes()
    assert mine.inverse.shape == ref.inverse.shape
    assert mine.residuals == ref.residuals


def test_public_pseudoinverses_take_one_svd_and_no_staircase(monkeypatch):
    svds = _spy(monkeypatch, [linalg, inverses], "_svd")
    staircases = _spy(monkeypatch, [inverses], "_staircase")
    A = gen_with_index(5, 2, 2, seed=11)
    for kind in (one_three, moore_penrose):
        svds.clear()
        kind(A)
        assert len(svds) == 1 and not staircases
