"""The example scripts import only names the package still provides."""

import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


@pytest.mark.parametrize("name", ["closed_form_run", "manufactured_convergence"])
def test_script_imports(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # main() runs only under __main__
    assert callable(module.main)
