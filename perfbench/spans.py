"""In-memory span tracer for the traced benchmark run.

A public function is wrapped by rebinding its name in every ``geninv``
module that holds it (and, for the numpy.linalg kernels, in
``numpy.linalg``), so calls made inside the package are caught as well as
calls from the benchmark.  Spans are recorded only while a request is open,
kept in memory as ``(name, start, end, parent, request)`` and aggregated at
the end; a span's self time is its duration minus the time its children
cover.  A name missing from its home module is reported as absent, and
``restore`` puts every original back.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

INVERSE_FNS = ("index", "moore_penrose", "one_three", "group_inverse",
               "drazin", "core_inverse", "pseudo_core", "is_star_dmp",
               "verify_defining_triple")
LINALG_FNS = ("numerical_rank", "power_rank_chain", "scaled_power",
              "is_nilpotent", "same_column_space", "product_with_scale")
KERNEL_FNS = ("svd", "solve", "matrix_power", "qr", "inv")

# (span name, home module, attribute)
TARGETS = (
    [("cli.main", "geninv.cli", "main"),
     ("matrixio.load_json", "geninv.matrixio", "load_json"),
     ("matrixio.parse_instance", "geninv.matrixio", "parse_instance"),
     ("matrixio.dumps_report", "geninv.matrixio", "dumps_report"),
     ("generators.instance_for", "geninv.generators", "instance_for"),
     ("theorems.run_check", "geninv.theorems", "run_check")]
    + [(f"inverses.{f}", "geninv.inverses", f) for f in INVERSE_FNS]
    + [(f"linalg.{f}", "geninv.linalg", f) for f in LINALG_FNS]
    + [(f"kernel.{f}", "numpy.linalg", f) for f in KERNEL_FNS]
)

REQUEST = "request"


class Tracer:
    def __init__(self):
        self.spans = []
        self.absent = []
        self.verdicts = Counter()
        self.degenerate = 0
        self.report_chars = 0
        self._stack = []
        self._request = None
        self._bound = []          # (module, attribute, original)

    # -- installation ------------------------------------------------------

    def install(self):
        self.absent = []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "geninv" or name.startswith("geninv."))]
        for span, home_name, attr in TARGETS:
            home = importlib.import_module(home_name)
            original = getattr(home, attr, None)
            if not callable(original):
                self.absent.append(span)
                continue
            wrapper = self._wrap(span, original)
            for module in modules + [home]:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._bound.append((module, key, original))

    def restore(self):
        while self._bound:
            module, key, original = self._bound.pop()
            setattr(module, key, original)

    def _wrap(self, span, fn):
        observe = {
            "theorems.run_check": self._observe_verdict,
            "generators.instance_for": self._observe_instance,
            "matrixio.dumps_report": self._observe_report,
        }.get(span)

        def traced(*args, **kwargs):
            if self._request is None:
                return fn(*args, **kwargs)
            result = self._timed(span, fn, args, kwargs)
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _timed(self, span, fn, args, kwargs):
        slot = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(slot)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[slot] = (span, start, end, parent, self._request)

    def _observe_verdict(self, report):
        self.verdicts[report.verdict] += 1

    def _observe_instance(self, instance):
        self.degenerate += bool(instance.degenerate)

    def _observe_report(self, text):
        self.report_chars += len(text)

    # -- requests ------------------------------------------------------------

    def request(self, request_id, fn):
        """Run ``fn()`` as one request under a root span."""
        self._request = request_id
        try:
            return self._timed(REQUEST, fn, (), {})
        finally:
            self._request = None

    # -- aggregation -----------------------------------------------------------

    def totals(self):
        """Per span name: calls, total seconds and self seconds."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for slot, (name, start, end, _, _) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[slot]
        return out
