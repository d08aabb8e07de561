"""Seeded generators for structured instances satisfying theorem hypotheses.

Hypotheses that are linear in one unknown block are satisfied exactly by
sampling from the nullspace of the complex-linear constraint system, taken
from one complex thin SVD.  Its equations are read off the words of
``theorems._EQUATIONS``/``_VANISHING``: a word gives the term L X R, L and R
the products of the factors before and after the unknown X (the identity
for none), and of an equation's two words the one that ends in X gives the
first term, the other one's L negated (Sylvester form).  A hypothesis with X
starred is read through its adjoint, words reversed and stars toggled, which
is complex-linear with the same solutions: B*A = DB* as A*B = BD*, and
AC* = C*D as D*C = CA*.  The one nonlinear hypothesis, that the coupling
word ``theorems.COUPLING[id]`` is nilpotent, is handled by rejection with a
capped retry count and a guaranteed zero fallback, flagged as degenerate.
A drawn block has unit norm; multiply the whole instance to vary its scale.

Every generator is a pure function of its arguments: equal seeds give
bit-identical output.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_POLICY,
    _assemble,
    _eye,
    _factors,
    _inv,
    _Named,
    _power,
    _product,
    _qr,
    _rank_cut,
    _relative,
    _svd,
    frobenius,
    is_nilpotent_product,
)
from .inverses import _CoreEP
from .theorems import (COUPLING, THEOREM_SYMBOLS, _EQUATIONS, _VANISHING,
                       _derive)

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
    "gen_intertwined_4_1",
    "gen_intertwined_4_2",
    "gen_intertwined_4_3",
    "gen_intertwined_4_4",
    "gen_zero_product_4_5",
    "gen_zero_product_4_6",
    "fuzz_dims",
    "instance_for",
]

MAX_DIM = 16        # nullspace solves stay desk-scale below this
MAX_BLOCK_DIM = 8   # per-block cap for the 2x2 block samplers
_RETRY_CAP = 64

@dataclass
class Instance:
    """Generated matrices keyed by symbol name, plus a degeneracy flag."""

    matrices: dict
    degenerate: bool = False


def trial_seed(master_seed: int, trial: int) -> np.random.SeedSequence:
    """Per-trial seed derivation; trials are independent of scheduling order."""
    return np.random.SeedSequence((int(master_seed), int(trial)))


def _rng(seed):
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(np.random.SeedSequence(int(seed)))


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


def gen_with_index(n: int, k: int, r: int, seed) -> np.ndarray:
    """Matrix of dimension n with index exactly k and core rank r.

    Built as S (K + N) S^{-1}: K an r x r random invertible block with
    singular values clamped into [0.1, 10], N a nilpotent chain of order
    exactly max(k, 1), S well conditioned.  k = 0 requires r = n.
    """
    if not (1 <= n <= MAX_DIM):
        raise ValueError(f"n must lie in [1, {MAX_DIM}], got {n}")
    if k == 0:
        if r != n:
            raise ValueError("index 0 means invertible: r must equal n")
    elif not (1 <= k <= n and 0 <= r and r + k <= n):
        raise ValueError(f"infeasible (n={n}, k={k}, r={r}): need r + k <= n")
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
    _, s, Vh = _svd(np.vstack(rows), full=False)
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


def _word_system(theorem_id, unknown, shape, named):
    """Term lists, in report order, of the id's word hypotheses that name
    ``unknown`` (of the given shape) and otherwise only symbols in ``named``."""
    drawn, named = {unknown, *named}, _Named(named)
    system = []
    for _, *words in (*_VANISHING.get(theorem_id, ()),
                      *_EQUATIONS.get(theorem_id, ())):
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
            terms.append((-L if terms else L, R))
        system.append(terms)
    return system


# ---------------------------------------------------------------------------
# Single-matrix and pair generators


def gen_commutant_pair(n: int, seed, target_index=None):
    """(a, b) with ab = ba and a*b = ba* exactly, b sampled from the joint
    nullspace of the two stacked intertwining systems."""
    rg = _rng(seed)
    k, r = _draw_index_rank(rg, n, target_index)
    a = _with_index_rng(rg, n, k, r)
    b = _commutant_sample(rg, a)
    return a, b


def _commutant_sample(rg, a):
    # b under L2_1's commutation words, which L2_2, T3_1 and C3_2 share
    system = _word_system("L2_1", "b", a.shape, {"a": a})
    return _nullspace_sample(rg, a.shape, system)[0]


def gen_star_dmp(n: int, r: int, k: int, seed):
    """Unitary block sum of a normal invertible part and a nilpotent chain.

    Some power of the result has coinciding Moore-Penrose and group inverses.
    """
    if r + k > n or r < 0 or k < 0 or n < 1:
        raise ValueError(f"infeasible (n={n}, r={r}, k={k}): need r + k <= n")
    if k == 0 and r != n:
        raise ValueError("k = 0 leaves no nilpotent part: r must equal n")
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
    ab = ba = a*b = 0 exactly."""
    if n < 2:
        raise ValueError("need n >= 2 to split the space")
    rg = _rng(seed)
    W = _random_unitary(rg, n)
    s = int(rg.integers(1, n))
    P = W[:, :s] @ W[:, :s].conj().T
    Q = W[:, s:] @ W[:, s:].conj().T
    a = P @ _crandn(rg, n, n) @ P
    b = Q @ _crandn(rg, n, n) @ Q
    return a, b


def _coupling_terms(ra, d, m):
    """Linear terms (a^(i-1) a_pi, d^(m-i)), i = 1..m, of the coupling sum
    sum_i a^(i-1) a_pi X d^(m-i) in the unknown X, with ra the record of a."""
    products, _ = ra.nilpotent_powers(m)
    return [(P, _power(d, m - 1 - j))
            for j, P in enumerate(products)]


def gen_lemma_2_5_instance(na: int, nd: int, seed):
    """(a, b, d) with the triangular coupling sum vanishing at
    m = index(a) + index(d) + 1 by construction.

    Returns (a, b, d, degenerate); b = 0 with the flag set when the sum map
    has no nonzero solutions.
    """
    _check_block_dims(na, nd)
    rg = _rng(seed)
    ka, ra = _draw_index_rank(rg, na)
    kd, rd = _draw_index_rank(rg, nd)
    a = _with_index_rng(rg, na, ka, ra)
    d = _with_index_rng(rg, nd, kd, rd)
    terms = _coupling_terms(_CoreEP(a), d, ka + kd + 1)
    b, nullity = _nullspace_sample(rg, (na, nd), [terms])
    return a, b, d, nullity == 0


# ---------------------------------------------------------------------------
# Block samplers: a shared unitarily-reducing nilpotent block guarantees the
# intertwining systems have nonzero solutions (for unrelated diagonal blocks
# they only have the zero solution).


def _shared_block_pair(rg, nA, nD, keep_complement=False):
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


def _check_block_dims(nA, nD):
    if not (1 <= nA <= MAX_BLOCK_DIM and 1 <= nD <= MAX_BLOCK_DIM):
        raise ValueError(f"block dims must lie in [1, {MAX_BLOCK_DIM}]")


def _sample_b_then_c(rg, A, D, b_eqs, c_eqs, theorem_id):
    """Draw B from its equations, then redraw C from its own until the id's
    coupling word is nilpotent; C = 0 and degenerate after _RETRY_CAP draws
    or when C's solution space is trivial.  The word's letters derived from
    A and D are formed once, those whose words name C once per draw."""
    nA, nD = A.shape[0], D.shape[0]
    B, _ = _nullspace_sample(rg, (nA, nD), b_eqs)
    degenerate = frobenius(B) == 0.0
    named = _derive(theorem_id, _Named(A=A, B=B, D=D))
    C = None
    for _ in range(_RETRY_CAP):
        Cc, nullity = _nullspace_sample(rg, (nD, nA), c_eqs)
        if nullity == 0:
            break
        drawn = _derive(theorem_id, _Named(named, C=Cc))
        if is_nilpotent_product(_factors(COUPLING[theorem_id], drawn)):
            C = Cc
            break
    if C is None:
        C = np.zeros((nD, nA), dtype=np.complex128)
        degenerate = True
    return A, B, C, D, degenerate


def _intertwined(seed, nA, nD, theorem_id):
    """B, then C, drawn under the id's words; C is redrawn until the
    coupling product ``COUPLING[theorem_id]`` is nilpotent."""
    _check_block_dims(nA, nD)
    rg = _rng(seed)
    A, D = _shared_block_pair(rg, nA, nD)
    named = {"A": A, "D": D}
    return _sample_b_then_c(rg, A, D,
                            _word_system(theorem_id, "B", (nA, nD), named),
                            _word_system(theorem_id, "C", (nD, nA), named),
                            theorem_id)


def gen_intertwined_4_1(nA: int, nD: int, seed):
    """(A, B, C, D) with AB=BD, DC=CA, A*B=BD*, D*C=CA* exact and
    A_pc B D_pc C nilpotent; returns (..., degenerate)."""
    return _intertwined(seed, nA, nD, "T4_1")


def gen_intertwined_4_2(nA: int, nD: int, seed):
    """Same constraints as :func:`gen_intertwined_4_1` but the rejection
    tests nilpotency of B D_pc C A_pc."""
    return _intertwined(seed, nA, nD, "C4_2")


def gen_intertwined_4_3(nA: int, nD: int, seed):
    """(A, B, C, D) with AB=BD, DC=CA, B*A=DB* exact and
    B (CB)_pc D C (BC)_pc A nilpotent; returns (..., degenerate)."""
    return _intertwined(seed, nA, nD, "T4_3")


def gen_intertwined_4_4(nA: int, nD: int, seed):
    """(A, B, C, D) with AB=BD, DC=CA, AC*=C*D exact and
    A (BC)_pc B D (CB)_pc C nilpotent; returns (..., degenerate)."""
    return _intertwined(seed, nA, nD, "C4_4")


def _zero_product(seed, nA, nD, theorem_id, order, last_terms):
    """(A, B, C, D, degenerate) for T4_5 and C4_6: B and C drawn in the
    given order, each from the id's words on it, the second also under the
    term list ``last_terms(rA, D)`` (rA the record of A) when A has index
    >= 1.  Degenerate when either block is zero."""
    _check_block_dims(nA, nD)
    rg = _rng(seed)
    A, D = _shared_block_pair(rg, nA, nD, keep_complement=True)
    named, shapes = {"A": A, "D": D}, {"B": (nA, nD), "C": (nD, nA)}
    rA = _CoreEP(A)
    for X in order:
        equations = _word_system(theorem_id, X, shapes[X], named)
        if X == order[1] and rA.k >= 1:
            equations.append(last_terms(rA, D))
        named[X], _ = _nullspace_sample(rg, shapes[X], equations)
    B, C = named["B"], named["C"]
    return A, B, C, D, frobenius(B) == 0.0 or frobenius(C) == 0.0


def gen_zero_product_4_5(nA: int, nD: int, seed):
    """(A, B, C, D) with BC=0, CB=0, CA=DC, AC*=C*D and a vanishing coupling
    sum: C is sampled first, then B; returns (..., degenerate)."""
    return _zero_product(seed, nA, nD, "T4_5", "CB",
                         lambda rA, D: _coupling_terms(rA, D, rA.k))


def gen_zero_product_4_6(nA: int, nD: int, seed):
    """(A, B, C, D) with BC=0, CB=0, AB=BD, A*B=BD* and C annihilating the
    nilpotent-part powers of A; B sampled first, then C; returns
    (..., degenerate)."""
    return _zero_product(
        seed, nA, nD, "C4_6", "BC",
        lambda rA, D: [(_eye(D.shape[0]), rA.nilpotent_power_sum()[0])])


# ---------------------------------------------------------------------------
# Catalog samplers


def _l2_4_pair(n, seed):
    rg = _rng(seed)
    k, r = _draw_index_rank(rg, n)
    a = _with_index_rng(rg, n, k, r)
    if rg.integers(0, 2):
        X = _CoreEP(a).pcore_inverse()
        b = (X @ a) @ _crandn(rg, n, n)   # inside the range condition
    else:
        b = _crandn(rg, n, n)
    return a, b


def _c3_2_pair(n, seed):
    # (k, r) and b come from rg, a from gen_star_dmp's own stream of the seed
    rg = _rng(seed)
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
    return _assemble(a, b, np.zeros_like(b.T), d), na, degenerate


# id: (default fuzz dims, smallest and largest dim, sampler).  An id takes at
# most as many dims as its default has; one dim means square blocks.
# sample(*dims, seed) returns the values of the id's THEOREM_SYMBOLS
# in order, then the degeneracy flag if the sampler can raise it.
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
    "T4_1": ((3, 3), 1, MAX_BLOCK_DIM, gen_intertwined_4_1),
    "C4_2": ((3, 3), 1, MAX_BLOCK_DIM, gen_intertwined_4_2),
    "T4_3": ((3, 3), 1, MAX_BLOCK_DIM, gen_intertwined_4_3),
    "C4_4": ((3, 3), 1, MAX_BLOCK_DIM, gen_intertwined_4_4),
    "T4_5": ((3, 3), 1, MAX_BLOCK_DIM, gen_zero_product_4_5),
    "C4_6": ((3, 3), 1, MAX_BLOCK_DIM, gen_zero_product_4_6),
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
    if not (1 <= len(dims) <= count and all(lo <= d <= hi for d in dims)):
        takes = "one dim" if count == 1 else "one or two dims, each"
        raise ValueError(f"{theorem_id} takes {takes} in [{lo}, {hi}], "
                         f"got {list(dims)}")
    return dims


def instance_for(theorem_id: str, dims, seed) -> Instance:
    """Instance satisfying the named result's hypotheses, for fuzzing.

    Single-matrix ids read ``dims[0]``; block ids read ``dims[0]`` and
    ``dims[1]``, or square blocks when ``dims`` has one entry."""
    default, _, _, sample = _row(theorem_id)
    sizes = (dims[0], dims[1] if len(dims) > 1 else dims[0])[:len(default)]
    out = sample(*sizes, seed)
    symbols = THEOREM_SYMBOLS[theorem_id]
    return Instance(dict(zip(symbols, out)), *out[len(symbols):])
