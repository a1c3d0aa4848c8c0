"""The package imports numpy only, and its validation route, ``propagate``, runs on
numpy alone; scipy is needed by the tests and the benchmark, not by clams.  Each
public name is declared once, in its module's ``__all__``, and the package's
``__all__`` is built from those lists."""
import ast
import json
from pathlib import Path

import clams
from clams import effective, level_system, liouvillian, rates, spectrum, units
from conftest import run_python

SCIPY_MODULES = "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"


def scipy_modules_after(code):
    return json.loads(run_python(f"import json, sys; {code}; {SCIPY_MODULES}"))


def test_import_does_not_load_scipy():
    assert scipy_modules_after("import clams, clams.cli") == []


def test_propagate_does_not_load_scipy():
    code = (
        "import numpy as np; import clams; "
        "g = clams.CouplingGraph(2, np.zeros((2, 2)), ((1, 0, 1.0),)); "
        "rho = clams.propagate(clams.build_generator(g), "
        "clams.DensityMatrix(np.diag([0.0, 1.0]).astype(complex)), 2.0); "
        "assert abs(rho.matrix[1, 1] - np.exp(-2.0)) < 1e-8"
    )
    assert scipy_modules_after(code) == []


def test_public_names_are_declared_once_per_module():
    modules = (level_system, liouvillian, effective, rates, spectrum, units)
    declared = [name for module in modules for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert clams.__all__ == ["__version__", *declared]
    for name in clams.__all__:
        assert getattr(clams, name) is not None, name


def test_init_holds_no_hand_written_name_list():
    tree = ast.parse(Path(clams.__file__).read_text())
    strings = {node.value for node in ast.walk(tree)
               if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    assert strings <= {ast.get_docstring(tree, clean=False), "__version__", clams.__version__}
