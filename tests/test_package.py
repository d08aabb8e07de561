import ast
import functools
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import geninv
from geninv import inverses, linalg, theorems
from geninv.generators import (fuzz_dims, gen_with_index, instance_for,
                               trial_seed)
from geninv.matrixio import dumps_report
from geninv.theorems import THEOREM_SYMBOLS, run_check

MODULES = ("geninv", "geninv.linalg", "geninv.inverses", "geninv.theorems",
           "geninv.generators", "geninv.matrixio")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _geninv(*argv, flags=()):
    """``python [flags] -m geninv argv`` in a child process."""
    src = str(Path(geninv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *flags, "-m", "geninv", *argv],
                          env=env, capture_output=True, text=True, timeout=120)


def test_runs_as_module(tmp_path):
    # pytest's filterwarnings does not reach a child process, so each
    # command runs under the same filter here: a stray warning fails it
    strict = ("-W", "error::RuntimeWarning")
    done = _geninv("example33", flags=strict)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["report"]["verdict"] == "pass"
    lines = done.stderr.splitlines()
    assert all(line.startswith("  [ok] ") for line in lines[:-1])
    assert lines[-1].startswith("note: ")
    matrix, instance = tmp_path / "a.json", tmp_path / "inst.json"
    matrix.write_text(dumps_report(gen_with_index(4, 2, 2, 1)))
    instance.write_text(dumps_report(
        instance_for("L2_1", (4,), trial_seed(0, 0)).matrices))
    for argv in (["compute", "--kind", "pcore", "--input", str(matrix)],
                 ["verify", "--theorem", "L2_1", "--input", str(instance)]):
        done = _geninv(*argv, flags=strict)
        assert (done.returncode, done.stderr) == (0, "")
        assert json.loads(done.stdout)["command"] == argv[0]
    done = _geninv("fuzz", "--theorem", "T4_3", "--trials", "2", flags=strict)
    assert done.returncode == 0
    assert json.loads(done.stdout)["summary"]["pass"] == 2
    assert re.fullmatch(r"fuzz T4_3: \{.*\} in \d+\.\d\ds\n", done.stderr)
    done = _geninv("bogus")
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'bogus'" in done.stderr


def test_overflow_leaves_only_the_error_line(tmp_path):
    # finite entries whose products overflow: numpy's warnings, each with
    # its source line, once came before the error line
    matrices = instance_for("L2_3", (4,), trial_seed(0, 0)).matrices
    path = tmp_path / "inst.json"
    path.write_text(dumps_report({name: 1e300 * M
                                  for name, M in matrices.items()}))
    done = _geninv("verify", "--theorem", "L2_3", "--input", str(path))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: the product ab overflowed\n")


def test_underflowed_core_block_leaves_only_the_error_line(tmp_path):
    # subnormal entries whose core block T has pivots that underflow: the
    # LU solve of T failed with numpy's bare "Singular matrix"
    matrices = instance_for("L2_1", fuzz_dims("L2_1"),
                            trial_seed(5, 0)).matrices
    path = tmp_path / "inst.json"
    path.write_text(dumps_report({name: 2.0 ** -1070 * M
                                  for name, M in matrices.items()}))
    done = _geninv("verify", "--theorem", "L2_1", "--input", str(path),
                   flags=("-W", "error::RuntimeWarning"))
    assert (done.returncode, done.stdout, done.stderr) == (
        2, "", "error: the pseudo core inverse is not finite: the inverse "
        "of the core block T overflowed\n")


def test_readme_library_use_runs():
    # the README's library example runs as printed, and each value its
    # comments state holds
    readme = Path(geninv.__file__).resolve().parents[2] / "README.md"
    section = readme.read_text().split("## Library use\n", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    claims = dict(re.findall(r"^(\S.*?)\s+# (.*)$", block, re.M))
    assert claims == {
        "res.inverse": "0.5 * [[-1j, 1], [-1, -1j]]",
        "res.residuals": "{'pc1': …, 'pc2': …, 'pc3': …}",
        "res.certified()": "True",
        'inst = instance_for("T4_1", (3, 2), seed=7)':
            "hypotheses hold by construction",
        "report.verdict": "'pass'",
    }
    scope = {}
    exec(compile(block, str(readme), "exec"), scope)
    res, report = scope["res"], scope["report"]
    assert np.allclose(res.inverse, 0.5 * np.array([[-1j, 1], [-1, -1j]]),
                       rtol=0, atol=1e-14)
    assert list(res.residuals) == ["pc1", "pc2", "pc3"]
    assert res.certified() is True
    assert report.verdict == "pass"


def _private(name):
    return name.startswith("_") and not (name.startswith("__")
                                         and name.endswith("__"))


def test_every_private_definition_is_used_in_src():
    # a private module-level function or class, or a private method, that
    # nothing else in src/geninv names is dead code, even if tests call it
    src = Path(geninv.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            inner = node.body if isinstance(node, ast.ClassDef) else []
            for item in [node, *inner]:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                        and _private(item.name)):
                    defined.append((name, item))
    used = [(name, node.lineno, node.id if isinstance(node, ast.Name)
             else node.attr)
            for name, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]
    dead = [f"{name}:{item.lineno} {item.name}" for name, item in defined
            if not any(ref == item.name and not (
                where == name and item.lineno <= line <= item.end_lineno)
                for where, line, ref in used)]
    assert dead == []


def test_no_public_function_forwards_one_call():
    # a public function of generators or theorems whose body, after its
    # docstring, is a single return of a call to a package function is a
    # second name for that function; callers take the one way in instead
    src = Path(geninv.__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(src.glob("*.py"))}
    package = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.FunctionDef)}
    aliases = []
    for name in ("generators.py", "theorems.py"):
        for node in trees[name].body:
            if not isinstance(node, ast.FunctionDef) or _private(node.name):
                continue
            body = node.body[ast.get_docstring(node) is not None:]
            if (len(body) == 1 and isinstance(body[0], ast.Return)
                    and isinstance(body[0].value, ast.Call)
                    and getattr(body[0].value.func, "id", None) in package):
                aliases.append(f"{name}:{node.lineno} {node.name}")
    assert aliases == []


def test_every_public_linalg_name_is_read_in_src():
    # a name linalg exports must be imported from .linalg by a module of
    # src/geninv (geninv's re-exports among them) or read by another
    # function there; one that only tests call is dead code
    src = Path(geninv.__file__).resolve().parent
    trees = [ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))]
    imported = {alias.name for tree in trees for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "linalg"
                for alias in node.names}
    read = {node.id for tree in trees for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) for node in ast.walk(fn)
            if isinstance(node, ast.Name) and node.id != fn.name}
    assert [name for name in linalg.__all__
            if name not in imported | read] == []


def test_readme_names_resolve():
    # every geninv name the README puts in backticks, alone or called, is
    # real: a dotted name resolves attribute by attribute from a module or
    # a name of the package, a bare private name is defined in some module
    # (__missing__ is _Named's), and a bare snake_case name that no module
    # defines is at least a word of the source, such as a check's label
    root = Path(geninv.__file__).resolve().parents[2]
    text = re.sub(r"```.*?```", "", (root / "README.md").read_text(),
                  flags=re.S)
    modules = [importlib.import_module(name) for name in (*MODULES,
                                                          "geninv.cli")]
    named = {module.__name__.rpartition(".")[2]: module for module in modules}
    src = Path(geninv.__file__).resolve().parent
    words = set(re.findall(r"\w+", "".join(
        path.read_text() for path in src.glob("*.py"))))
    unresolved = []
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(?:\(.*\))?", span)
        if not match:
            continue
        head, *rest = match.group(1).split(".")
        if head == "__missing__":
            head, rest = "_Named", ["__missing__"]
        obj = named.get(head) or next(
            (getattr(m, head) for m in modules if hasattr(m, head)), None)
        if obj is None:
            if head.startswith("_") or (not rest and "_" in head
                                        and head not in words):
                unresolved.append(span)
            continue
        try:
            functools.reduce(getattr, rest, obj)
        except AttributeError:
            unresolved.append(span)
    assert unresolved == []


def _calls(node, where=""):
    """(enclosing definition, call) of each call under the node, the
    definition named by its dotted path, "" at module level."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            yield where, child
        inner = (f"{where}.{child.name}".lstrip(".") if isinstance(
            child, (ast.FunctionDef, ast.ClassDef)) else where)
        yield from _calls(child, inner)


def test_every_analysed_matrix_is_a_letter_of_its_instance(monkeypatch):
    # a check's or generator's core-EP record is formed only by
    # _Instance.record, and no check applies the involution itself: every
    # starred matrix is a key of the instance
    src = Path(geninv.__file__).resolve().parent
    stray = []
    for name in ("theorems.py", "generators.py"):
        for where, call in _calls(ast.parse((src / name).read_text())):
            func = call.func
            called = getattr(func, "id", getattr(func, "attr", None))
            if ((called == "_CoreEP" and where != "_Instance.record")
                    or (name == "theorems.py" and called in ("_adj", "conj"))):
                stray.append(f"{name}:{call.lineno} {where} {called}")
    assert stray == []

    # and no check calls a public inverse function, each of which builds
    # its own record
    def refused(*args, **kwargs):
        raise AssertionError("a public inverse function was called")

    monkeypatch.setattr(inverses, "_CoreEP", refused)
    for theorem_id in THEOREM_SYMBOLS:
        dims = fuzz_dims(theorem_id)
        run_check(theorem_id, instance_for(theorem_id, dims,
                                           trial_seed(1, 0)).matrices)


def _names(node, where=""):
    """(enclosing definition, name) of each name the node's subtree reads,
    imports or defines, the definition named by its dotted path; a
    definition's own name is given with its path."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = f"{where}.{child.name}".lstrip(".")
            yield inner, child.name
        elif isinstance(child, ast.alias):
            yield where, child.name
        elif isinstance(child, (ast.Name, ast.Attribute)):
            yield where, getattr(child, "id", getattr(child, "attr", None))
        yield from _names(child, inner)


def test_the_involution_is_named_only_by_the_word_map():
    # linalg._adj reaches a matrix only through _Named, the one place a star
    # is applied: src/geninv names it only in linalg, where it is defined
    # and in _Named.__missing__
    src = Path(geninv.__file__).resolve().parent
    sites = {f"{path.name}:{where}"
             for path in sorted(src.glob("*.py"))
             for where, name in _names(ast.parse(path.read_text()))
             if name == "_adj"}
    assert sites == {"linalg.py:_adj", "linalg.py:_Named.__missing__"}


# The tables whose parsed words a check judges as vanishing or nilpotent
# products.
_PRODUCT_TABLES = {"_VANISHING", "COUPLING", "_CORNER", "_ANNIHILATIONS"}


def _table_words(stmt):
    """The names a definition binds to words of ``_PRODUCT_TABLES``: the
    targets of each loop or comprehension over one of them."""
    for node in ast.walk(stmt):
        if (isinstance(node, (ast.For, ast.comprehension))
                and _PRODUCT_TABLES & {n.id for n in ast.walk(node.iter)
                                       if isinstance(n, ast.Name)}):
            yield from (n.id for n in ast.walk(node.target)
                        if isinstance(n, ast.Name))


def _is_table_word(node, bound):
    """Is the node a table word: a table, an entry of one, or a name bound
    to a word of one?"""
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and (node.id in _PRODUCT_TABLES
                                           or node.id in bound)


def _judged_outside_the_words(tree):
    """Each site of a module where a product is formed or judged other than
    through the word readers: an @ or matmul outside ``_DERIVED`` and
    ``_sums``, a zero_product or is_nilpotent_product call on anything but
    a parsed word of ``_PRODUCT_TABLES`` and the instance ``named``, and
    rel_residual outside EX3_3's comparisons with its constants."""
    for stmt in tree.body:
        where = getattr(stmt, "name", None) or ast.unparse(
            getattr(stmt, "targets", [stmt])[0])
        bound = set(_table_words(stmt))
        for node in ast.walk(stmt):
            if ((isinstance(node, ast.BinOp)
                 and isinstance(node.op, ast.MatMult))
                    or getattr(node, "attr", None) == "matmul"):
                if where not in ("_DERIVED", "_sums"):
                    yield f"{node.lineno} {where} @"
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  in ("zero_product", "is_nilpotent_product")):
                word, named = node.args[:2]
                if (not _is_table_word(word, bound)
                        or getattr(named, "id", None) != "named"):
                    yield f"{node.lineno} {where} {node.func.id}"
            elif (isinstance(node, ast.Name) and node.id == "rel_residual"
                  and where != "_example_3_3"):
                yield f"{node.lineno} {where} rel_residual"


def test_every_judged_product_is_a_word():
    # a check judges an equation or a vanishing product only as words of
    # its instance, read by the readers its hypotheses use
    src = Path(geninv.__file__).resolve().parent
    tree = ast.parse((src / "theorems.py").read_text())
    assert list(_judged_outside_the_words(tree)) == []
    calls = [call.func.id for _, call in _calls(tree)
             if getattr(call.func, "id", None)
             in ("zero_product", "is_nilpotent_product")]
    assert sorted(set(calls)) == ["is_nilpotent_product", "zero_product"]


def _norm_products(tree):
    """Each site of a module where a product of norms is formed from
    ``frobenius`` calls: a ``*`` with one as an operand, or a ``math.prod``
    whose argument calls or maps it."""
    for stmt in tree.body:
        where = getattr(stmt, "name", "")
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Call)
                    and getattr(node.func, "attr", None) == "prod"
                    and any(getattr(n, "id", None) == "frobenius"
                            for n in ast.walk(node))):
                yield f"{node.lineno} {where} prod"
            elif (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                  and any(getattr(getattr(side, "func", None), "id", None)
                          == "frobenius" for side in (node.left, node.right))):
                yield f"{node.lineno} {where} *"


def test_every_factor_norm_is_read_from_the_instance():
    # a factor's norm in a product scale is read through _Named.norm, which
    # forms it once per instance, never multiplied from frobenius calls
    src = Path(geninv.__file__).resolve().parent
    tree = ast.parse((src / "theorems.py").read_text())
    assert list(_norm_products(tree)) == []


def _catalog_hooks(tree):
    """The id -> hook name of each ``_CATALOG`` entry that names a hook."""
    for stmt in tree.body:
        if (isinstance(stmt, ast.Assign)
                and getattr(stmt.targets[0], "id", None) == "_CATALOG"):
            return {key.value: value.elts[1].id
                    for key, value in zip(stmt.value.keys, stmt.value.values)
                    if len(value.elts) > 1}


def test_checks_are_rows_and_hooks():
    # run_check is the one way into a check: theorems defines no public
    # check_* function; a certificate is judged only by _report and by the
    # hooks; and an id without a hook is rows of the tables alone
    src = Path(geninv.__file__).resolve().parent
    tree = ast.parse((src / "theorems.py").read_text())
    assert [node.name for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and node.name.startswith("check")] == []
    assert not [name for name in theorems.__all__ if name.startswith("check")]
    hooks = _catalog_hooks(tree)
    assert set(hooks.values()) <= {
        node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    stray = [f"{call.lineno} {where}" for where, call in _calls(tree)
             if getattr(call.func, "id", None) == "_certified"
             and where.split(".")[0] not in ("_report", *hooks.values())]
    assert stray == []
    for theorem_id, symbols in THEOREM_SYMBOLS.items():
        if theorem_id in hooks:
            continue
        assert theorems._CATALOG[theorem_id] == (symbols,), theorem_id
        assert all(source is not None
                   for _, source in theorems._WITNESSES.get(theorem_id, ()))
        rows = [label for label, *_ in (
            *theorems._VANISHING.get(theorem_id, ()),
            *theorems._EQUATIONS.get(theorem_id, ()),
            *theorems._EQUALITIES.get(theorem_id, ()),
            *theorems._CERTIFICATES.get(theorem_id, ()))]
        rows += ["coupling_nilpotent"] * (theorem_id in theorems.COUPLING)
        instance = instance_for(theorem_id, fuzz_dims(theorem_id),
                                trial_seed(1, 0)).matrices
        report = run_check(theorem_id, instance)
        labels = [c.label for c in
                  report.hypothesis_checks + report.conclusion_checks]
        assert sorted(labels) == sorted(rows), theorem_id
        assert list(report.witnesses) == [
            key for key, _ in theorems._WITNESSES[theorem_id]]


def test_every_record_takes_a_validated_matrix():
    # _CoreEP scans no input: each record is built from a matrix that
    # _require_square or _finite_product has just validated; and every
    # matrix signature but L2_5b's and EX3_3's is validated by its row of
    # _SHAPES
    src = Path(geninv.__file__).resolve().parent
    unchecked = [f"{path.name}:{call.lineno} {where}"
                 for path in sorted(src.glob("*.py"))
                 for where, call in _calls(ast.parse(path.read_text()))
                 if getattr(call.func, "id", None) == "_CoreEP"
                 and getattr(getattr(call.args[0], "func", None), "id", None)
                 not in ("_require_square", "_finite_product")]
    assert unchecked == []
    assert set(THEOREM_SYMBOLS.values()) - {(), ("x", "split")} <= set(
        theorems._SHAPES)
