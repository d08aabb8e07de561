"""Seeded generators for structured instances satisfying theorem hypotheses.

Hypotheses that are linear in one unknown block are satisfied exactly by
sampling from the nullspace of the complex-linear constraint system, taken
from its right singular vectors: a stack with at least floor(17n/9) rows
for its n columns is QR-factored once and the SVD is taken of its square R,
as LAPACK's SVD would do itself (``linalg._svd_right``).  Its equations are
read off the words of ``theorems._EQUATIONS``/``_VANISHING``, then its
coupling sum S_m = 0, like them, off the row of ``_SUMS``, one word per term
at the exponent m that the sampler chooses: a word gives the term L X R, L
and R the products of the factors before and after the unknown X (the
identity for none), and of an equation's two words the one that ends in X
gives the first term, the other one's L negated (Sylvester form).  A
hypothesis with X starred is read through its adjoint, words reversed and
stars toggled, which is complex-linear with the same solutions: B*A = DB*
as A*B = BD*, and AC* = C*D as D*C = CA*.  The one nonlinear hypothesis of
T4_1...C4_4, that the coupling word ``theorems.COUPLING[id]`` is nilpotent,
holds by construction of the diagonal blocks (see :func:`_shared_block_pair`),
so B and C are each drawn once.  A drawn block has unit norm; multiply the
whole instance to vary its scale.

Every catalog id is drawn through :func:`instance_for`, the 2x2 block ids
T4_1...C4_6 only there, as their constraints are the rows of the word
tables.  The other public builders are the planted matrices
(:func:`gen_with_index`, :func:`gen_star_dmp`) and the pair and triangle
samplers, which take options ``instance_for`` does not, such as
:func:`gen_commutant_pair`'s ``target_index``.

Every generator is a pure function of its arguments: equal seeds give
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    _eye,
    _inv,
    _product,
    _qr,
    _rank_cut,
    _relative,
    _svd,
    _svd_right,
    frobenius,
)
from .theorems import (
    THEOREM_SYMBOLS,
    _DERIVED,
    _EQUATIONS,
    _SUMS,
    _VANISHING,
    _Instance,
)

__all__ = [
    "MAX_DIM",
    "MAX_BLOCK_DIM",
    "Instance",
    "trial_seed",
    "gen_with_index",
    "gen_commutant_pair",
    "gen_star_dmp",
    "gen_annihilating_pair",
    "gen_lemma_2_5_instance",
    "fuzz_dims",
    "instance_for",
]

MAX_DIM = 16        # nullspace solves stay desk-scale below this
MAX_BLOCK_DIM = 8   # per-block cap for the 2x2 block samplers

@dataclass
class Instance:
    """Generated matrices keyed by symbol name, plus a degeneracy flag."""

    matrices: dict
    degenerate: bool = False


def trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Per-trial seed derivation; trials are independent of scheduling order."""
    return np.random.SeedSequence((int(master_seed), int(trial)))


def _rng(seed, *child):
    """The generator of a seed, an int i read as SeedSequence(i), or of the
    child stream keyed ``child`` past its spawn key, leaving the seed as is."""
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(int(seed))
    if child:
        seed = np.random.SeedSequence(seed.entropy,
                                      spawn_key=(*seed.spawn_key, *child))
    return np.random.default_rng(seed)


def _crandn(rg, *shape):
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2.0)


def _clamp_singular_values(M, lo, hi):
    U, s, Vh = _svd(M)
    return (U * np.clip(s, lo, hi)) @ Vh


def _random_unitary(rg, n):
    Q, r = _qr(_crandn(rg, n, n))
    # fix the phase so Q is a deterministic function of the sample
    return Q * (r / np.abs(r))


def _nilpotent_chain(rg, m, order):
    """m x m nilpotent whose nilpotency order is exactly max(order, 1)."""
    N = np.zeros((m, m), dtype=np.complex128)
    for i in range(min(order - 1, m - 1)):
        N[i, i + 1] = rg.uniform(0.5, 2.0)
    return N


def _with_index_rng(rg, n, k, r):
    K = (_clamp_singular_values(_crandn(rg, r, r), 0.1, 10.0)
         if r else np.zeros((0, 0), dtype=np.complex128))
    core = np.zeros((n, n), dtype=np.complex128)
    core[:r, :r] = K
    core[r:, r:] = _nilpotent_chain(rg, n - r, k)
    S = _clamp_singular_values(_crandn(rg, n, n), 0.5, 2.0)
    return S @ core @ _inv(S)


def _int_in(x, lo, hi) -> bool:
    """Whether x is a Python or numpy integer, not a bool, in [lo, hi]."""
    return (isinstance(x, (int, np.integer)) and not isinstance(x, bool)
            and lo <= x <= hi)


def _check_planted(n, k, r):
    """ValueError unless integers n in [1, MAX_DIM] and k, r >= 0, r + k <= n
    (r = n at k = 0) plant an n x n matrix of index k and core rank r."""
    if not _int_in(n, 1, MAX_DIM):
        raise ValueError(f"n must lie in [1, {MAX_DIM}], got {n}")
    if k == 0 and r != n:
        raise ValueError("index 0 means invertible: r must equal n")
    if not (_int_in(k, 0, n) and _int_in(r, 0, n - k)):
        raise ValueError(f"infeasible (n={n}, k={k}, r={r}): need integers "
                         f"k, r >= 0 with r + k <= n")


def gen_with_index(n: int, k: int, r: int, seed) -> np.ndarray:
    """Matrix of dimension n with index exactly k and core rank r.

    Built as S (K + N) S^{-1}: K an r x r random invertible block with
    singular values clamped into [0.1, 10], N a nilpotent chain of order
    exactly max(k, 1), S well conditioned.  k = 0 requires r = n.
    """
    _check_planted(n, k, r)
    return _with_index_rng(_rng(seed), n, k, r)


def _draw_index_rank(rg, n, target_index=None, kmax=3):
    k = int(target_index) if target_index is not None else int(
        rg.integers(0, min(kmax, n) + 1))
    if k == 0:
        return 0, n
    lo = 1 if n - k >= 1 else 0
    r = int(rg.integers(lo, n - k + 1))
    return k, r


# ---------------------------------------------------------------------------
# Complex-linear homogeneous constraint systems


def _equation_rows(terms):
    """Rows of one equation sum L X R = 0 in the column-major vec(X).

    terms: list of (L, R).  The rows are sum kron(R^T, L), built by
    broadcasting.  Returns (rows, ref_scale); ref_scale is the natural
    coefficient magnitude (sum of the term factors' norm products), against
    which an equation whose coefficients cancelled to rounding dust can be
    recognized and dropped.
    """
    ref = 0.0
    S = None
    for L, R in terms:
        L, R = np.asarray(L), np.asarray(R)
        ref += frobenius(L) * frobenius(R)
        part = (R.T[:, None, :, None] * L[None, :, None, :]).reshape(
            R.shape[1] * L.shape[0], R.shape[0] * L.shape[1])
        S = part if S is None else S + part
    return S, ref


def _nullspace_sample(rg, shape, equations):
    """Random solution of the stacked homogeneous equations, or zero.

    equations: list of term lists as in :func:`_equation_rows`.  Equations
    whose coefficients vanish at their factors' scale are dropped as
    identically-zero constraints.  Returns (X, nullity), the nullity counted
    in real dimensions; X, times 1/||X|| (the pinned draws hold those bits,
    not those of X / ||X||), has unit norm unless the solution space is trivial.
    """
    rtol = DEFAULT_POLICY.rank_rel_tol
    p, q = shape
    rows = []
    for terms in equations:
        block, ref = _equation_rows(terms)
        # sqrt(2) ||block|| is the norm of the realified rows
        # [[Re, -Im], [Im, Re]], so the drop decision is the realified one
        if _relative(np.sqrt(2.0) * frobenius(block), ref) > rtol:
            rows.append(block)
    if not rows:
        X = _crandn(rg, p, q)
        return X * (1.0 / frobenius(X)), 2 * p * q
    # Every stack built here is tall or square, so the thin Vh holds the whole
    # null space: an equation with square L and R adds a square pq-by-pq
    # block, and of the BC = 0, CB = 0 pairs (T4_5, C4_6) the block with more
    # rows than columns is kept whenever the other one is.
    s, Vh = _svd_right(np.vstack(rows))
    basis = Vh[_rank_cut(s, rtol):].conj().T
    k = basis.shape[1]
    if k == 0:
        return np.zeros((p, q), dtype=np.complex128), 0
    # 2k real normals, as many as a draw from the realified basis takes
    g = rg.standard_normal(2 * k)
    X = (basis @ (g[:k] + 1j * g[k:])).reshape((p, q), order="F")
    nf = frobenius(X)
    if nf > 0:
        X = X * (1.0 / nf)
    return X, 2 * k


def _word_system(theorem_id, unknown, shape, named, m=0):
    """Term lists, in report order, of the id's word hypotheses that name
    ``unknown`` (of the given shape) and otherwise only symbols drawn in the
    instance ``named``, which forms a derived letter when it is read; then,
    under the same rule, the terms of its coupling sum S_m = 0, one per term
    (none at m = 0)."""
    drawn = {unknown, *named, *_DERIVED}
    hypotheses = [(True, words) for _, *words in (
        *_VANISHING.get(theorem_id, ()), *_EQUATIONS.get(theorem_id, ()))]
    # the sum's terms P (prod_f f^(i-1)) M R^(m-i), i = 1..m, as words
    prefix, lefts, mid, right, _ = _SUMS.get(theorem_id, ("",) * 5)
    hypotheses.append((False, [
        (*prefix, *((f, i - 1) for f in lefts), *mid,
         *([(right, m - i)] if right else [])) for i in range(1, m + 1)]))
    system = []
    for sylvester, words in hypotheses:
        symbols = {key[0] for word in words for key in word}
        if unknown not in symbols or not symbols <= drawn:
            continue
        if unknown + "*" in words[0]:
            words = [tuple(key[0] if key[1:] else key + "*"
                           for key in word[::-1]) for word in words]
        terms = []
        for word in sorted(words, key=lambda word: word[-1] != unknown):
            i = word.index(unknown)
            L, R = word[:i], word[i + 1:]
            L = _product(L, named) if L else _eye(shape[0])
            R = _product(R, named) if R else _eye(shape[1])
            terms.append((-L if terms and sylvester else L, R))
        system.append(terms)
    return system


# ---------------------------------------------------------------------------
# Single-matrix and pair generators


def gen_commutant_pair(n: int, seed, target_index=None):
    """(a, b) with ab = ba and a*b = ba* exactly, b drawn from the nullspace
    of both intertwining systems; a target index is an integer in [0, n]."""
    k = 0 if target_index is None else target_index
    _check_planted(n, k, n - k)
    rg = _rng(seed)
    k, r = _draw_index_rank(rg, n, target_index)
    a = _with_index_rng(rg, n, k, r)
    b = _commutant_sample(rg, a)
    return a, b


def _commutant_sample(rg, a):
    # b under L2_1's commutation words, which L2_2, T3_1 and C3_2 share
    system = _word_system("L2_1", "b", a.shape, _Instance(a=a))
    return _nullspace_sample(rg, a.shape, system)[0]


def gen_star_dmp(n: int, r: int, k: int, seed):
    """Unitary block sum of a normal invertible part and a nilpotent chain.

    Some power of the result has coinciding Moore-Penrose and group inverses.
    """
    _check_planted(n, k, r)
    rg = _rng(seed)
    core = np.zeros((n, n), dtype=np.complex128)
    if r:
        W = _random_unitary(rg, r)
        lam = rg.uniform(0.1, 10.0, r) * np.exp(2j * np.pi * rg.uniform(0, 1, r))
        core[:r, :r] = W @ np.diag(lam) @ W.conj().T
    core[r:, r:] = _nilpotent_chain(rg, n - r, k)
    U = _random_unitary(rg, n)
    return U @ core @ U.conj().T


def gen_annihilating_pair(n: int, seed):
    """(a, b) supported on complementary orthogonal projections, so that
    ab = ba = a*b = 0 exactly.  Splitting the space needs n >= 2."""
    if not _int_in(n, 2, MAX_DIM):
        raise ValueError(f"n must lie in [2, {MAX_DIM}], got {n}")
    rg = _rng(seed)
    W = _random_unitary(rg, n)
    s = int(rg.integers(1, n))
    P = W[:, :s] @ W[:, :s].conj().T
    Q = W[:, s:] @ W[:, s:].conj().T
    a = P @ _crandn(rg, n, n) @ P
    b = Q @ _crandn(rg, n, n) @ Q
    return a, b


def gen_lemma_2_5_instance(na: int, nd: int, seed):
    """(a, b, d) with the triangular coupling sum vanishing at
    m = index(a) + index(d) + 1 by construction.

    Returns (a, b, d, degenerate); b = 0 with the flag set when the sum map
    has no nonzero solutions.
    """
    if not (_int_in(na, 1, MAX_BLOCK_DIM) and _int_in(nd, 1, MAX_BLOCK_DIM)):
        raise ValueError(f"block dims must lie in [1, {MAX_BLOCK_DIM}]")
    rg = _rng(seed)
    ka, ra = _draw_index_rank(rg, na)
    kd, rd = _draw_index_rank(rg, nd)
    a = _with_index_rng(rg, na, ka, ra)
    d = _with_index_rng(rg, nd, kd, rd)
    b, nullity = _nullspace_sample(rg, (na, nd), _word_system(
        "L2_5a", "b", (na, nd), _Instance(a=a, d=d), ka + kd + 1))
    return a, b, d, nullity == 0


# ---------------------------------------------------------------------------
# Block samplers: a shared unitarily-reducing nilpotent block guarantees the
# intertwining systems have nonzero solutions (for unrelated diagonal blocks
# they only have the zero solution).


def _shared_block_pair(rg, nA, nD, keep_complement=False):
    """A = U_A diag(G, A') U_A* and D = U_D diag(G, D') U_D*: one shared
    nilpotent G (a chain of order at most 4, or zero) and invertible A', D'
    with spectra disjoint almost surely.

    Every solution of AB = BD, A*B = BD* is then U_A diag(X, 0) U_D*, X in
    the *-commutant of G, and every C of DC = CA, D*C = CA* has the same
    form.  G has pseudo core inverse 0, so A_pc = U_A diag(0, A'^-1) U_A*
    and D_pc likewise: A_pc B = 0 and B D_pc = 0, and the coupling words
    aBdC and BdCa of T4_1 and C4_2 vanish.  BqDCpA and ApBDqC of T4_3 and
    C4_4 reduce on the G block to a product with two factors of G, which is
    nilpotent, and are 0 when G = 0.  So every such draw meets its coupling
    hypothesis.
    """
    gmax = min(nA, nD)
    if keep_complement and gmax >= 2:
        gmax -= 1
    g = int(rg.integers(1, gmax + 1))
    chain = g >= 2 and bool(rg.integers(0, 2))
    # chain order capped at 4: longer coupled chains make the assembled block
    # matrix invertible but exponentially ill conditioned, which defeats the
    # point of generated instances (residual tolerances must stay meaningful)
    G = _nilpotent_chain(rg, g, min(g, 4) if chain else 1)

    def embed(nrest):
        M = np.zeros((g + nrest, g + nrest), dtype=np.complex128)
        M[:g, :g] = G
        if nrest:
            M[g:, g:] = _clamp_singular_values(_crandn(rg, nrest, nrest), 0.3, 3.0)
        return M

    UA, UD = _random_unitary(rg, nA), _random_unitary(rg, nD)
    A = UA @ embed(nA - g) @ UA.conj().T
    D = UD @ embed(nD - g) @ UD.conj().T
    return A, D


def _blocks(theorem_id, order, nA, nD, seed):
    """(A, B, C, D, degenerate) of a block id at block dims that
    :func:`fuzz_dims` has checked: A and D from :func:`_shared_block_pair`,
    then B and C each drawn once, in the given order, under the id's words
    on it, the rows of ``theorems._VANISHING``, ``_EQUATIONS`` and ``_SUMS``
    that state its constraints (``theorems.COUPLING`` holds by
    construction).  T4_5 and C4_6 keep an invertible complement in A and D,
    and their coupling sum, at m = index(A), goes on the block it names, the
    second drawn.  Degenerate when a draw's nullity is 0, its block zero."""
    rg = _rng(seed)
    zero_product = theorem_id in _SUMS
    A, D = _shared_block_pair(rg, nA, nD, keep_complement=zero_product)
    named, shapes = _Instance(A=A, D=D), {"B": (nA, nD), "C": (nD, nA)}
    m = named.record("A").k if zero_product else 0
    degenerate = False
    for X in order:
        named[X], nullity = _nullspace_sample(
            rg, shapes[X], _word_system(theorem_id, X, shapes[X], named, m))
        degenerate |= nullity == 0
    return A, named["B"], named["C"], D, degenerate


# ---------------------------------------------------------------------------
# Catalog samplers


def _l2_4_pair(n, seed):
    rg = _rng(seed)
    k, r = _draw_index_rank(rg, n)
    a = _with_index_rng(rg, n, k, r)
    if rg.integers(0, 2):       # b inside the range condition
        b = (_Instance(a=a)["c"] @ a) @ _crandn(rg, n, n)
    else:
        b = _crandn(rg, n, n)
    return a, b


def _c3_2_pair(n, seed):
    # (k, r) and b from the seed's child stream: b reuses none of a's normals
    rg = _rng(seed, 1)
    k, r = _draw_index_rank(rg, n, kmax=2)
    a = gen_star_dmp(n, r, k, seed)
    b = _commutant_sample(rg, a)
    return a, b


def _theorem_1_1(n, seed):
    rg = _rng(seed)
    k, r = _draw_index_rank(rg, n)
    return (_with_index_rng(rg, n, k, r),)


def _lemma_2_5b(na, nd, seed):
    a, b, d, degenerate = gen_lemma_2_5_instance(na, nd, seed)
    return _Instance(a=a, b=b, d=d)["x"], na, degenerate


# id: (default fuzz dims, smallest and largest dim, sampler).  An id takes at
# most as many dims as its default has; one dim means square blocks.
# sample(*dims, seed) returns the values of the id's THEOREM_SYMBOLS
# in order, then the degeneracy flag if the sampler can raise it; a block
# id's sampler is _blocks with its id and draw order.
_SAMPLERS = {
    "L2_1": ((4,), 1, MAX_DIM, gen_commutant_pair),
    "L2_2": ((4,), 1, MAX_DIM, gen_commutant_pair),
    "L2_3": ((4,), 2, MAX_DIM, gen_annihilating_pair),
    "L2_4": ((4,), 1, MAX_DIM, _l2_4_pair),
    "L2_5a": ((3, 3), 1, MAX_BLOCK_DIM, gen_lemma_2_5_instance),
    "L2_5b": ((3, 3), 1, MAX_BLOCK_DIM, _lemma_2_5b),
    "T1_1": ((4,), 1, MAX_DIM, _theorem_1_1),
    "T3_1": ((4,), 1, MAX_DIM, gen_commutant_pair),
    "C3_2": ((4,), 1, MAX_DIM, _c3_2_pair),
    "EX3_3": ((4,), 1, MAX_DIM, lambda n, seed: ()),
    "T4_1": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "T4_1", "BC")),
    "C4_2": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "C4_2", "BC")),
    "T4_3": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "T4_3", "BC")),
    "C4_4": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "C4_4", "BC")),
    "T4_5": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "T4_5", "CB")),
    "C4_6": ((3, 3), 1, MAX_BLOCK_DIM, partial(_blocks, "C4_6", "BC")),
}


def _row(theorem_id):
    if theorem_id not in _SAMPLERS:
        raise KeyError(f"no instance generator for theorem id {theorem_id!r}")
    return _SAMPLERS[theorem_id]


def fuzz_dims(theorem_id: str, dims=None) -> tuple:
    """The dims a fuzz campaign of the named id runs at: its default when
    ``dims`` is None, else ``dims`` once its count and sizes are checked."""
    default, lo, hi, _ = _row(theorem_id)
    if dims is None:
        return default
    count, dims = len(default), tuple(dims)
    if not (1 <= len(dims) <= count and all(_int_in(d, lo, hi) for d in dims)):
        takes = "one dim" if count == 1 else "one or two dims, each"
        raise ValueError(f"{theorem_id} takes {takes} in [{lo}, {hi}], "
                         f"got {list(dims)}")
    return dims


def instance_for(theorem_id: str, dims, seed) -> Instance:
    """Instance satisfying the named result's hypotheses, for fuzzing.

    Single-matrix ids read ``dims[0]``; block ids read ``dims[0]`` and
    ``dims[1]``, or square blocks when ``dims`` has one entry, each checked
    as :func:`fuzz_dims` checks it; extra dims are ignored."""
    default, _, _, sample = _row(theorem_id)
    dims = fuzz_dims(theorem_id, tuple(dims)[:len(default)])
    sizes = (dims[0], dims[-1])[:len(default)]
    out = sample(*sizes, seed)
    symbols = THEOREM_SYMBOLS[theorem_id]
    return Instance(dict(zip(symbols, out)), *out[len(symbols):])
