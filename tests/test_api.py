"""The public surface that other code relies on: the export list, and every
package attribute the benchmark harness under ``perfbench/`` reads. The
harness is scanned, not restated, so a deletion that breaks it fails here."""

import ast
import importlib
import re
from pathlib import Path

import pytest

import wassmean

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# ``wm`` and ``wassmean`` name the package, ``cli`` its CLI module; tracing
# reaches other modules as ``modules["<module>"].<attr>``.
_ALIAS = {"wm": "wassmean", "wassmean": "wassmean", "cli": "wassmean.cli"}
_DOTTED = re.compile(r"\b(wm|wassmean|cli)\.([A-Za-z_]\w*)")
_INDEXED = re.compile(r'\bmodules\["(\w+)"\]\.([A-Za-z_]\w*)')


def _harness_reads():
    reads = set()
    for text in (path.read_text() for path in PERFBENCH.glob("*.py")):
        reads |= {(_ALIAS[alias], attr) for alias, attr in _DOTTED.findall(text)}
        reads |= {(f"wassmean.{mod}", attr) for mod, attr in _INDEXED.findall(text)}
    return sorted(reads)


def _tracing_constant(name):
    """The literal value of a module-level constant of ``perfbench/tracing.py``."""
    tree = ast.parse((PERFBENCH / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(f"perfbench/tracing.py defines no {name}")


def test_every_exported_name_resolves():
    assert len(set(wassmean.__all__)) == len(wassmean.__all__)
    missing = [name for name in wassmean.__all__ if not hasattr(wassmean, name)]
    assert missing == []


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from wassmean import *", namespace)
    assert set(wassmean.__all__) <= set(namespace)


def test_harness_reads_are_found():
    # The scan itself works: these reads are known to be in the harness.
    reads = _harness_reads()
    assert ("wassmean", "wasserstein_mean") in reads
    assert ("wassmean.cli", "main") in reads
    assert ("wassmean.checks", "CHECK_REGISTRY") in reads
    assert ("wassmean.barycenter", "Ensemble") in reads


@pytest.mark.parametrize("module, attr", _harness_reads())
def test_harness_read_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr)


def test_traced_modules_and_kernels_exist():
    for name in _tracing_constant("MODULE_LAYER"):
        importlib.import_module(f"wassmean.{name}")
    kernels = importlib.import_module("wassmean._kernels")
    missing = [k for k in _tracing_constant("KERNELS") if not callable(getattr(kernels, k, None))]
    assert missing == []
