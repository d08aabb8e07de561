import ast
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import geninv
from geninv import inverses, theorems
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
        2, "", "error: matrix entries must all be finite\n")


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


def _judged_outside_the_words(tree):
    """Each site of a module where a product is formed or judged other than
    through the word readers: an @ or matmul outside ``_DERIVED`` and
    ``_sums``, a zero_product or is_nilpotent_product call on factors that
    are not ``_factors(...)``, and rel_residual outside EX3_3's comparisons
    with its constants."""
    for stmt in tree.body:
        where = getattr(stmt, "name", None) or ast.unparse(
            getattr(stmt, "targets", [stmt])[0])
        for node in ast.walk(stmt):
            if ((isinstance(node, ast.BinOp)
                 and isinstance(node.op, ast.MatMult))
                    or getattr(node, "attr", None) == "matmul"):
                if where not in ("_DERIVED", "_sums"):
                    yield f"{node.lineno} {where} @"
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                  in ("zero_product", "is_nilpotent_product")):
                factors = node.args[0]
                if getattr(getattr(factors, "func", None), "id",
                           None) != "_factors":
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
