"""The package imports and runs with numpy as its one runtime dependency."""

import os
import subprocess
import sys

import fpmon

# run in a fresh interpreter whose import hook refuses the test-only
# packages; argv: the directory that holds fpmon, a stream file to write
CHILD = """
import importlib, pkgutil, sys

BLOCKED = {"scipy", "hypothesis", "pytest"}


class Block:
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in BLOCKED:
            raise ImportError(f"{name} is not a runtime dependency of fpmon")
        return None


sys.meta_path.insert(0, Block())
sys.path.insert(0, sys.argv[1])
from fpmon import *
import fpmon
for info in pkgutil.iter_modules(fpmon.__path__):
    importlib.import_module(f"fpmon.{info.name}")
code = fpmon.cli.main(["gen-stream", "--kind", "uniform", "--m", "16", "--k", "2",
                       "--n", "20", "--out", sys.argv[2]])
print(code, sorted({name.partition(".")[0] for name in sys.modules} & BLOCKED))
"""


def test_package_imports_and_runs_without_test_dependencies(tmp_path):
    # pyproject lists numpy alone; `import *` also fails on a stale __all__ name
    out = tmp_path / "s.txt"
    done = subprocess.run([sys.executable, "-c", CHILD,
                           os.path.dirname(os.path.dirname(fpmon.__file__)), str(out)],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "0 []\n"
    assert out.read_text().startswith("16 2 20\n")
