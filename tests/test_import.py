"""The package imports numpy only, and its validation route, ``propagate``, runs on
numpy alone; scipy is needed by the tests and the benchmark, not by clams."""
import json

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
