import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geninv

MODULES = ("geninv", "geninv.linalg", "geninv.inverses", "geninv.theorems",
           "geninv.generators", "geninv.matrixio")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_runs_as_module():
    src = str(Path(geninv.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "geninv", "example33"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["report"]["verdict"] == "pass"
    done = subprocess.run([sys.executable, "-m", "geninv", "bogus"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 2 and done.stdout == ""
    assert "invalid choice: 'bogus'" in done.stderr
