"""Inputs, requests and expected outcomes of the three benchmark workloads.

Every input is a pure function of the workload seed.  Every request carries
the outcome that holds for it by construction (the generator's index, the
existence rule for group and core inverses, the hypotheses a generator
plants or a random draw breaks), fixed while the input is built and never by
running the code under test.  Mathematically each outcome is invariant under
a joint scaling of the input.  inverse-kinds runs every matrix at 1e-6, 1
and 1e6.  verify-instances times its files at unit scale only, because at
1e-6 and 1e6 the verdicts are wrong on about one verify in five (the scale
defect of ROADMAP item 2); ``scale_probe`` verifies those scaled copies
once, untimed, so that the traced run can count the defect.

The triangular ids (``L2_5a``, ``L2_5b``) run at block dims (4, 4) only: at
(3, 3) about one generated instance in 850 fails its own check at unit scale
(a pseudo-core that does not certify), and a workload must be one on which
no op fails.

The package is reached only through ``geninv.inverses.*``,
``geninv.cli.main`` and ``geninv.generators`` (``instance_for`` and
``gen_with_index``), looked up at call time so that the traced run can
rebind them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np

from geninv import cli, generators, inverses

INVERSE_SCALES = (1e-6, 1.0, 1e6)

# inverse-kinds: 5 matrices per (n, index) class
INVERSE_FNS = ("index", "moore_penrose", "one_three", "group_inverse",
               "drazin", "core_inverse", "pseudo_core")
INVERSE_DIMS = (4, 8, 16)
INVERSE_INDICES = (0, 1, 2, 3)
INVERSE_REPLICATES = 5
_INDEX_ONE_ONLY = ("group_inverse", "core_inverse")
_REPORTS_INDEX = ("drazin", "pseudo_core")

# fuzz-campaign: every catalog id at its default dims and a larger size
PAIR_IDS = ("L2_1", "L2_2", "L2_3", "L2_4", "T3_1", "C3_2")
TRIANGULAR_IDS = ("L2_5a", "L2_5b")
BLOCK_IDS = ("T4_1", "C4_2", "T4_3", "C4_4", "T4_5", "C4_6")
FUZZ_CONFIGS = (
    [(t, ("--dim", str(n))) for t in PAIR_IDS for n in (4, 8)]
    + [("T1_1", ("--dim", str(n))) for n in (4, 8, 16)]
    + [(t, ("--dims", "4,4")) for t in TRIANGULAR_IDS]
    + [(t, ("--dims", d)) for t in BLOCK_IDS for d in ("3,3", "4,4")]
    + [("EX3_3", ())]
)
FUZZ_TRIALS = 1
FUZZ_REPLICATES = 7     # campaigns per config and pass, each with its own seed

# verify-instances: default fuzz dims (triangular ids at (4, 4), see above);
# negatives only where a generic random draw breaks a commutation,
# intertwining or annihilation hypothesis
VERIFY_DIMS = dict(
    {t: (4,) for t in PAIR_IDS + ("T1_1",)},
    **{t: (4, 4) for t in TRIANGULAR_IDS},
    **{t: (3, 3) for t in BLOCK_IDS})
NEGATIVE_IDS = ("L2_1", "L2_2", "L2_3", "T3_1", "C3_2") + BLOCK_IDS
VERIFY_REPLICATES = 9
PROBE_SCALES = (1e-6, 1e6)   # scale_probe only


def _seq(*key):
    return np.random.SeedSequence([int(k) for k in key])


def _u32(*key):
    return int(_seq(*key).generate_state(1)[0])


def _scale_tag(c):
    return f"{c:.0e}"


class Request:
    """One closed-loop request: ``run`` is timed, ``judge`` is not.

    ``judge(out)`` returns ``(bad_ops, digest_bytes, verdicts)``: the number
    of this request's ops whose outcome differs from the constructed
    expectation, the bytes that the determinism digest covers, and the
    theorem verdicts seen (empty for library calls).
    """

    ops = 1

    def key(self):
        return (self.workload, self.name, _scale_tag(self.scale))

    def fingerprint(self):
        """Bytes that identify the request's input."""
        return repr(self.argv).encode()


class InverseCall(Request):
    workload = "inverse-kinds"

    def __init__(self, fn, A, n, k, scale):
        self.name, self.A, self.n, self.k, self.scale = fn, A, n, k, scale

    def key(self):
        return (self.workload, f"{self.name}[n={self.n},k={self.k}]",
                _scale_tag(self.scale))

    def fingerprint(self):
        return self.name.encode() + self.A.tobytes()

    def run(self):
        try:
            return getattr(inverses, self.name)(self.A)
        except inverses.InverseNotDefinedError as exc:
            return exc

    def judge(self, out):
        if self.name == "index":
            return int(out != self.k), repr(out).encode(), ()
        exists = self.k <= 1 or self.name not in _INDEX_ONE_ONLY
        if isinstance(out, inverses.InverseNotDefinedError):
            return int(exists), b"undefined", ()
        ok = exists and out.certified()
        if self.name in _REPORTS_INDEX:
            ok = ok and out.index_used == self.k
        digest = out.inverse.tobytes() + repr(sorted(out.residuals.items())).encode()
        return int(not ok), digest, ()


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


class FuzzCampaign(Request):
    workload = "fuzz-campaign"
    scale = 1.0
    ops = FUZZ_TRIALS

    def __init__(self, theorem, dim_args, seed):
        self.name = theorem + ("@" + dim_args[1] if dim_args else "")
        self.argv = ["fuzz", "--theorem", theorem, *dim_args,
                     "--trials", str(FUZZ_TRIALS), "--seed", str(seed)]

    def run(self):
        return _call_cli(self.argv)

    def judge(self, out):
        code, text = out
        try:
            verdicts = [r["verdict"] for r in json.loads(text)["results"]]
        except (ValueError, KeyError, TypeError):
            return self.ops, text.encode(), ()
        bad = sum(v != "pass" for v in verdicts) + (self.ops - len(verdicts))
        return bad, text.encode(), verdicts


class VerifyCall(Request):
    workload = "verify-instances"

    def __init__(self, theorem, path, expected, scale):
        self.name, self.expected, self.scale = theorem, expected, scale
        self.argv = ["verify", "--theorem", theorem, "--input", path]

    def fingerprint(self):
        with open(self.argv[-1], "rb") as fh:
            return repr(self.argv).encode() + fh.read()

    def run(self):
        return _call_cli(self.argv)

    def judge(self, out):
        code, text = out
        try:
            verdict = json.loads(text)["report"]["verdict"]
        except (ValueError, KeyError, TypeError):
            return 1, text.encode(), ()
        return int(verdict != self.expected), text.encode(), (verdict,)


def _matrix_obj(M):
    return {"rows": M.shape[0], "cols": M.shape[1],
            "data": [[[float(z.real), float(z.imag)] for z in row] for row in M]}


def _random_instance(rg, theorem):
    def crandn(p, q):
        return rg.standard_normal((p, q)) + 1j * rg.standard_normal((p, q))
    if theorem in PAIR_IDS:
        n = VERIFY_DIMS[theorem][0]
        return {"a": crandn(n, n), "b": crandn(n, n)}
    nA, nD = VERIFY_DIMS[theorem]
    return {"A": crandn(nA, nA), "B": crandn(nA, nD),
            "C": crandn(nD, nA), "D": crandn(nD, nD)}


def _inverse_kinds(seed, workdir):
    rg = np.random.default_rng(_seq(seed, 0))
    reqs = []
    for n in INVERSE_DIMS:
        for k in INVERSE_INDICES:
            for rep in range(INVERSE_REPLICATES):
                r = n if k == 0 else int(rg.integers(1, n - k + 1))
                A = generators.gen_with_index(n, k, r, _seq(seed, n, k, rep))
                reqs += [InverseCall(fn, c * A, n, k, c)
                         for c in INVERSE_SCALES for fn in INVERSE_FNS]
    return reqs, rg


def _fuzz_campaign(seed, workdir):
    rg = np.random.default_rng(_seq(seed, 1))
    reqs = [FuzzCampaign(t, dims, _u32(seed, i, rep))
            for i, (t, dims) in enumerate(FUZZ_CONFIGS)
            for rep in range(FUZZ_REPLICATES)]
    return reqs, rg


def _verify_instances(seed, workdir, scales=(1.0,)):
    rg = np.random.default_rng(_seq(seed, 2))
    cases = []
    for rep in range(VERIFY_REPLICATES):
        for i, theorem in enumerate(VERIFY_DIMS):
            inst = generators.instance_for(
                theorem, VERIFY_DIMS[theorem], _seq(seed, i, rep))
            cases.append((theorem, f"pos{rep}", inst.matrices, "pass"))
        for theorem in NEGATIVE_IDS:
            cases.append((theorem, f"neg{rep}", _random_instance(rg, theorem),
                          "hypotheses_not_met"))
    reqs = []
    for theorem, tag, matrices, expected in cases:
        for c in scales:
            obj = {s: _matrix_obj(c * v) if isinstance(v, np.ndarray) else v
                   for s, v in matrices.items()}
            name = f"{theorem}-{tag}-{_scale_tag(c)}.json"
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
            reqs.append(VerifyCall(theorem, name, expected, c))
    return reqs, rg


_BUILDERS = {
    "inverse-kinds": _inverse_kinds,
    "fuzz-campaign": _fuzz_campaign,
    "verify-instances": _verify_instances,
}


def build(workload, seed, workdir):
    """The workload's requests in a seeded shuffled order.

    ``workdir`` receives the instance files of verify-instances; their paths
    are passed relative to it, so the process must run from ``workdir``.
    """
    reqs, rg = _BUILDERS[workload](seed, workdir)
    return [reqs[i] for i in rg.permutation(len(reqs))]


def scale_probe(seed, workdir):
    """verify-instances' instances at the scales 1e-6 and 1e6, unshuffled.

    Not a workload: the traced run verifies them once, untimed, and reports
    the share of wrong verdicts.
    """
    return _verify_instances(seed, workdir, PROBE_SCALES)[0]


def determinism_probe(seed):
    """One fuzz request, for the in-process repeat check."""
    return FuzzCampaign("L2_2", ("--dim", "4"), _u32(seed, 99))
