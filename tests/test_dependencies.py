"""The runtime needs numpy and the standard library, nothing else."""

import os
import subprocess
import sys
from pathlib import Path

import fbrnn


def loaded_modules(imports):
    """Top-level names in `sys.modules` after a fresh interpreter runs `import <imports>`."""
    src = str(Path(fbrnn.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = f"import sys, {imports}; print('\\n'.join(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    return {name.split(".")[0] for name in proc.stdout.split()}


def test_fbrnn_and_its_cli_load_only_numpy_and_the_standard_library():
    extra = loaded_modules("fbrnn, fbrnn.cli, numpy") - loaded_modules("numpy")
    assert "fbrnn" in extra
    assert {m for m in extra if m != "fbrnn" and m not in sys.stdlib_module_names} == set()
