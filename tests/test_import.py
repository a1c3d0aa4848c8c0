"""The package imports numpy only; scipy is loaded on demand by ``propagate``."""
import json
import os
import subprocess
import sys
from pathlib import Path

import clams


def test_import_does_not_load_scipy():
    src = str(Path(clams.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = (
        "import json, sys; import clams, clams.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert json.loads(out.stdout) == []
