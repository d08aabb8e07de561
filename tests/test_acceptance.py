"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Tolerances are pinned here and must not be loosened.
"""

import json
import time

import numpy as np
import pytest

from geninv.cli import main
from geninv.inverses import (
    InverseNotDefinedError,
    core_inverse,
    drazin,
    group_inverse,
    index,
    moore_penrose,
    one_three,
    pseudo_core,
)
from geninv.linalg import frobenius
from geninv.generators import (
    gen_annihilating_pair,
    gen_commutant_pair,
    gen_with_index,
    instance_for,
    trial_seed,
)
from geninv.theorems import (
    reproduce_example_3_3,
    run_check,
)

from oracles import (check, defining_triple_max_residual,
                     pseudo_core_linear_oracle)

EQ_TOL = 1e-8
RES_TOL = 1e-8


def crandn(rg, *shape):
    return (rg.standard_normal(shape) + 1j * rg.standard_normal(shape)) / np.sqrt(2)


def _report(name, detail, elapsed, budget):
    print(f"[PASS] {name}: {detail} ({elapsed:.2f}s < {budget:.0f}s)")


def _draw_structured(rg, n, kmax=3, seed=None):
    k = int(rg.integers(0, min(kmax, n) + 1))
    r = n if k == 0 else int(rg.integers(0, n - k + 1))
    draw = seed if seed is not None else int(rg.integers(0, 2**31))
    return gen_with_index(n, k, r, draw)


def test_example_3_3_reproduction():
    started = time.perf_counter()
    report = reproduce_example_3_3()
    elapsed = time.perf_counter() - started

    failed = [c.label for c in report.conclusion_checks if not c.passed]
    assert report.verdict == "pass", f"failed checks: {failed}"

    a_pc = report.witnesses["a_pcore"]
    b_pc = report.witnesses["b_pcore"]
    ann = report.witnesses["annihilation"]
    assert np.linalg.norm(a_pc - np.array([[-1j, 0], [0, 0]])) <= EQ_TOL
    assert np.linalg.norm(b_pc) <= EQ_TOL
    assert np.linalg.norm(ann - np.array([[0, 0], [-0.5, 0]])) <= EQ_TOL
    assert elapsed < 1.0
    _report("example-3-3 reproduction", "all 7 checks matched to 1e-8",
            elapsed, 1.0)


def test_oracle_equivalence():
    started = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rg = np.random.default_rng(trial_seed(20260810, trial))
        n = int(rg.integers(2, 5))
        A = _draw_structured(rg, n)
        computed = pseudo_core(A).inverse
        oracle, unique = pseudo_core_linear_oracle(A)
        assert unique, f"trial {trial}: stacked system not full rank"
        deviation = np.linalg.norm(computed - oracle) / max(
            1.0, np.linalg.norm(oracle))
        k = max(index(A), 1)
        assert defining_triple_max_residual(A, oracle, k) <= 1e-6, \
            f"trial {trial}: oracle solution violates the defining equations"
        worst = max(worst, deviation)
        assert deviation <= EQ_TOL, f"trial {trial}: deviation {deviation:.2e}"
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("oracle equivalence", f"200/200 agree, worst deviation {worst:.2e}",
            elapsed, 30.0)


def test_certificate_suite():
    started = time.perf_counter()
    worst = 0.0
    refused = 0
    for trial in range(500):
        rg = np.random.default_rng(trial_seed(31415, trial))
        n = int(rg.integers(2, 11))
        A = _draw_structured(rg, n)
        k = index(A)
        always = [moore_penrose(A), one_three(A), drazin(A), pseudo_core(A)]
        if k <= 1:
            always += [group_inverse(A), core_inverse(A)]
        else:
            for fn, kind in ((group_inverse, "group"), (core_inverse, "core")):
                with pytest.raises(InverseNotDefinedError):
                    fn(A)
                refused += 1
        for result in always:
            worst = max(worst, result.max_residual)
            assert result.max_residual <= RES_TOL, (
                f"trial {trial} kind {result.kind}: {result.residuals}")
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _report("certificate suite",
            f"500 matrices, worst residual {worst:.2e}, "
            f"{refused} correct refusals", elapsed, 60.0)


def test_lemma_fuzz():
    started = time.perf_counter()
    for trial in range(500):
        rg = np.random.default_rng(trial_seed(271828, trial))
        n = int(rg.integers(3, 9))
        a, b = gen_commutant_pair(n, trial_seed(271828, trial))
        r1 = check("L2_1", a, b)
        r2 = check("L2_2", a, b)
        assert r1.verdict == "pass", f"trial {trial}: L2_1 {r1.verdict}"
        assert r2.verdict == "pass", f"trial {trial}: L2_2 {r2.verdict}"
    for trial in range(500):
        rg = np.random.default_rng(trial_seed(161803, trial))
        n = int(rg.integers(3, 9))
        a, b = gen_annihilating_pair(n, trial_seed(161803, trial))
        r3 = check("L2_3", a, b)
        assert r3.verdict == "pass", f"trial {trial}: L2_3 {r3.verdict}"
    for trial in range(500):
        rg = np.random.default_rng(trial_seed(141421, trial))
        n = int(rg.integers(3, 9))
        a = _draw_structured(rg, n)
        b = crandn(rg, n, n) if rg.integers(0, 2) else (
            pseudo_core(a).inverse @ a @ crandn(rg, n, n))
        r4 = check("L2_4", a, b)
        assert r4.verdict == "pass", f"trial {trial}: L2_4 equivalence broken"
    elapsed = time.perf_counter() - started
    assert elapsed < 180.0
    _report("lemma fuzz", "3 x 500 instances, zero failures", elapsed, 180.0)


def test_lemma_2_5_both_directions():
    started = time.perf_counter()
    degenerate = 0
    for trial in range(300):
        seed = trial_seed(57721, trial)
        rg = np.random.default_rng(seed)
        na, nd = int(rg.integers(2, 6)), int(rg.integers(2, 6))
        inst = instance_for("L2_5a", (na, nd), seed)
        degenerate += inst.degenerate
        report = run_check("L2_5a", inst.matrices)
        assert report.verdict == "pass", f"forward trial {trial}"
    for trial in range(300):
        seed = trial_seed(69314, trial)
        rg = np.random.default_rng(seed)
        na, nd = int(rg.integers(2, 6)), int(rg.integers(2, 6))
        inst = instance_for("L2_5b", (na, nd), seed)
        report = check("L2_5b", inst.matrices["x"], inst.matrices["split"])
        assert report.verdict == "pass", f"converse trial {trial}"
        m_check = next(c for c in report.conclusion_checks
                       if c.label == "coupling_sum_vanishes")
        assert m_check.passed and m_check.value > 0, \
            f"converse trial {trial}: no exponent found in the window"
    elapsed = time.perf_counter() - started
    _report("lemma-2.5 both directions",
            f"300+300 instances, zero failures ({degenerate} degenerate fwd)",
            elapsed, 180.0)


def test_theorem_3_1_equivalence_and_corollary_3_2():
    started = time.perf_counter()
    non_ep = 0
    for trial in range(300):
        seed = trial_seed(30103, trial)
        rg = np.random.default_rng(seed)
        n = int(rg.integers(3, 8))
        target = int(rg.integers(1, min(3, n) + 1)) if trial % 2 else None
        a, b = gen_commutant_pair(n, seed, target_index=target)
        X = pseudo_core(a).inverse
        bracket = frobenius(a @ X - X @ a)
        if bracket > 1e-6 * max(1.0, frobenius(a) * frobenius(X)):
            non_ep += 1
        report = check("T3_1", a, b)
        assert report.verdict == "pass", (
            f"trial {trial}: equivalence broken, witnesses "
            f"lhs={report.witnesses['lhs']} rhs={report.witnesses['rhs']}")
    assert non_ep >= 100, f"only {non_ep} non-EP instances in the campaign"

    for trial in range(200):
        seed = trial_seed(60221, trial)
        inst = instance_for("C3_2", (6,), seed)
        report = run_check("C3_2", inst.matrices)
        assert report.verdict == "pass", f"C3_2 trial {trial}"
        bracket_check = next(c for c in report.conclusion_checks
                             if c.label == "pcore_commutes_with_a")
        assert bracket_check.passed
    elapsed = time.perf_counter() - started
    _report("theorem-3.1 equivalence + corollary-3.2",
            f"300 pairs ({non_ep} non-EP) and 200 star-DMP samples, "
            "zero violations", elapsed, 180.0)


def test_block_theorems():
    started = time.perf_counter()
    summary = []
    for family, theorem_id in enumerate(
            ("T4_1", "C4_2", "T4_3", "C4_4", "T4_5", "C4_6")):
        degenerate = 0
        for trial in range(200):
            # str hash() is salted per process; derive seeds positionally
            seed = trial_seed(40000 + family, trial)
            dims = (2 + trial % 4, 2 + (trial // 4) % 4)
            inst = instance_for(theorem_id, dims, seed)
            degenerate += inst.degenerate
            report = run_check(theorem_id, inst.matrices)
            assert report.verdict == "pass", (
                f"{theorem_id} trial {trial} dims {dims}: {report.verdict}")
            cert = next(c for c in report.conclusion_checks
                        if c.label == "m_certified")
            assert cert.value <= RES_TOL
            if theorem_id == "T4_3":
                q_check = next(c for c in report.conclusion_checks
                               if c.label == "antidiagonal_square_identity")
                assert q_check.passed, f"T4_3 trial {trial}: Q-identity broken"
        fraction = degenerate / 200
        assert fraction < 0.5, f"{theorem_id}: degenerate fraction {fraction}"
        summary.append(f"{theorem_id} deg {fraction:.0%}")
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    _report("block theorems", "6 x 200 instances certified; " + ", ".join(summary),
            elapsed, 300.0)


def test_fuzz_determinism(capsys):
    started = time.perf_counter()
    for argv in (
        ["fuzz", "--theorem", "L2_2", "--dim", "4", "--trials", "40",
         "--seed", "7"],
        ["fuzz", "--theorem", "T4_1", "--dims", "3,2", "--trials", "40",
         "--seed", "11"],
        ["fuzz", "--theorem", "L2_5a", "--dims", "3,3", "--trials", "40",
         "--seed", "13"],
    ):
        code1 = main(argv)
        first = capsys.readouterr().out
        code2 = main(argv)
        second = capsys.readouterr().out
        assert code1 == code2 == 0
        assert first == second, f"fuzz output differs for {argv}"
        json.loads(first)   # well-formed JSON
    elapsed = time.perf_counter() - started
    with capsys.disabled():
        _report("fuzz determinism", "3 commands byte-identical on repeat",
                elapsed, 60.0)
