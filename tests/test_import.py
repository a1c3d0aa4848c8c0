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

BENCH_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
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


def test_traced_functions_resolve_after_importing_the_cli():
    # the benchmark's tracer looks up each (module, function) of its TRACED table, and
    # solve_ivp in clams.liouvillian, in sys.modules once the CLI is imported: a deletion
    # or a lazy import that would break a traced benchmark run fails here
    code = (
        "import importlib.util, json, sys; "
        "spec = importlib.util.spec_from_file_location('tracer', sys.argv[1]); "
        "tracer = importlib.util.module_from_spec(spec); spec.loader.exec_module(tracer); "
        "import clams.cli; "
        "targets = [(m, f) for _, m, f in tracer.TRACED] + [('clams.liouvillian', 'solve_ivp')]; "
        "missing = [t for t in targets if not callable(getattr(sys.modules.get(t[0]), t[1], None))]; "
        "print(json.dumps([len(targets), missing]))"
    )
    count, missing = json.loads(run_python(code, str(BENCH_TRACER)))
    assert count > 1 and missing == []


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
