"""The public surface that other code relies on: the export list, and every
package attribute the benchmark harness under ``perfbench/`` reads. The
harness is scanned, not restated, so a deletion that breaks it fails here."""

import ast
import importlib
import json
import os
import re
import subprocess
import symtable
import sys
import textwrap
from pathlib import Path

import pytest

import wassmean

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

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


def _loaded_after(code, *argv, package="wassmean"):
    """The modules of ``package`` that a fresh interpreter has loaded after
    running ``code`` with ``sys.argv[1:]`` set to ``argv``; a non-zero exit
    fails."""
    probe = (
        "import json, sys\ntry:\n" + textwrap.indent(code, "    ") + "\n"
        "except SystemExit as exc:\n    if exc.code:\n        raise\n"
        f"print(json.dumps(sorted(m for m in sys.modules if m.partition('.')[0] == {package!r})),"
        " file=sys.stderr)\n"
    )
    done = subprocess.run([sys.executable, "-c", probe, *argv], cwd=ROOT, capture_output=True,
                          text=True, check=True, env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    return json.loads(done.stderr.splitlines()[-1])


_GEOMETRY = ["wassmean", "wassmean._kernels", "wassmean.barycenter", "wassmean.bures",
             "wassmean.hermitian", "wassmean.means", "wassmean.products"]


def test_import_loads_only_the_geometry_and_the_solver():
    assert _loaded_after("import wassmean") == _GEOMETRY


def test_the_mean_command_loads_neither_the_suite_nor_the_generators():
    loaded = _loaded_after(
        "import runpy\nrunpy.run_module('wassmean', run_name='__main__')",
        "mean", "fixtures/two_point_commuting.json",
    )
    # runpy runs ``__main__.py`` as ``__main__``, not as wassmean.__main__.
    assert loaded == sorted(_GEOMETRY + ["wassmean.cli", "wassmean.io"])


def test_the_suite_and_the_generators_never_load_numpy_random():
    # Seeded draws come from ``seeded._uniforms``, a counter-based stream in
    # plain numpy; loading numpy.random for them cost about 6 MB of memory.
    code = (
        "import os\nfrom wassmean import cli\nfrom wassmean.seeded import random_ensemble\n"
        "assert cli.main(['verify', '--checks', 'all', '--seed-count', '2',"
        " '--out', os.devnull]) == 0\n"
        "assert cli.main(['generate', '--m', '3', '--n', '4', '--out', os.devnull]) == 0\n"
        "random_ensemble(3, 4, 7)"
    )
    loaded = _loaded_after(code, package="numpy")
    assert "numpy.linalg" in loaded
    assert "numpy.random" not in loaded


@pytest.mark.parametrize("name, module", [("run_suite", "checks"), ("random_spd", "seeded")])
def test_reading_a_lazy_export_loads_its_module(name, module):
    loaded = _loaded_after(f"import wassmean\nwassmean.{name}")
    assert f"wassmean.{module}" in loaded
    assert {"wassmean.io", "wassmean.cli"}.isdisjoint(loaded)


def test_star_import_in_a_fresh_interpreter_binds_every_export():
    code = (
        "from wassmean import *\nimport wassmean\n"
        "missing = [n for n in wassmean.__all__ if n not in globals()]\n"
        "assert missing == [], missing\n"
        "assert set(wassmean.__all__) <= set(dir(wassmean))"
    )
    assert {"wassmean.checks", "wassmean.seeded"} <= set(_loaded_after(code))


# Exports kept for what they are rather than for a caller: the paper's
# objects a user computes, the types results come back as, the per-input
# check a user runs, the suite's default instances and the seeded generators.
_PAPER_OBJECTS = (
    "geometric_mean", "loewner_leq", "commuting_closed_form",
    "CheckReport", "SolverReport", "LoewnerResult",
    "check", "default_plan",
    "random_isometry_map", "random_spd", "random_unitary",
)


def _global_reads(table):
    """The names that the block ``table`` and the blocks nested in it read
    from the module's namespace. A name that a function binds (a parameter
    or a local) is read from the function, not the module, even where it
    shares an export's name."""
    names = {symbol.get_name() for symbol in table.get_symbols() if symbol.is_referenced()
             and (table.get_type() == "module" or symbol.is_global())}
    for child in table.get_children():
        names |= _global_reads(child)
    return names


def _package_uses():
    """The ids of the objects that package modules other than ``__init__.py``
    (and ``__main__.py``, which runs the CLI on import) read: a bare name
    resolved in the module's namespace, or an attribute of a package module.
    Names resolve to objects, so a re-export counts as its original
    (``hermitian.hermitianize`` is ``_kernels.hermitianize``), and two objects
    of one name in two modules stay apart. A name that a function-level
    ``from .x import y`` binds, which the module's namespace never holds, is
    read as ``x.y``."""
    used = set()
    for path in (ROOT / "src" / "wassmean").glob("*.py"):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        module = importlib.import_module(f"wassmean.{path.stem}")
        source = path.read_text()
        used |= {id(getattr(module, name))
                 for name in _global_reads(symtable.symtable(source, str(path), "exec"))
                 if hasattr(module, name)}
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if (isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                    and node not in tree.body):
                imported = importlib.import_module(f"wassmean.{node.module}")
                used |= {id(getattr(imported, alias.name)) for alias in node.names}
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = getattr(module, node.value.id, None)
                if (getattr(owner, "__name__", "").startswith("wassmean.")
                        and hasattr(owner, node.attr)):
                    used.add(id(getattr(owner, node.attr)))
    return used


def test_every_export_is_used_or_a_paper_object():
    # An export stays when the package, the CLI or the suite reads it, when
    # the benchmark harness reads it, or when it is one of _PAPER_OBJECTS: a
    # wrapper that nothing calls cannot come back silently.
    assert set(_PAPER_OBJECTS) <= set(wassmean.__all__)
    harness = {attr for module, attr in _harness_reads() if module == "wassmean"}
    used = _package_uses()
    unused = [
        name for name in wassmean.__all__
        if id(getattr(wassmean, name)) not in used and name not in harness | set(_PAPER_OBJECTS)
    ]
    assert unused == []


def test_a_name_a_function_binds_is_no_module_read():
    # A parameter named ``check`` used to count as a read of the export.
    source = "def f(check):\n    return [check for _ in check]\n\ng = lambda: run_suite\n"
    assert _global_reads(symtable.symtable(source, "m", "exec")) == {"run_suite"}


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


def test_traced_check_names_are_the_default_checks():
    # A renamed or added check would drop out of the checks.<name>_ms metrics.
    assert _tracing_constant("CHECK_NAMES") == wassmean.DEFAULT_CHECKS


def test_traced_modules_and_kernels_exist():
    for name in _tracing_constant("MODULE_LAYER"):
        importlib.import_module(f"wassmean.{name}")
    kernels = importlib.import_module("wassmean._kernels")
    missing = [k for k in _tracing_constant("KERNELS") if not callable(getattr(kernels, k, None))]
    assert missing == []


def test_readme_quickstart_runs():
    # The README's first example stays runnable as written.
    section = (ROOT / "README.md").read_text().split("\n## Library quickstart\n", 1)[1]
    block = re.match(r"\s*```python\n(.*?)\n```\n", section, re.S).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert all(r.holds for r in namespace["reports"])


def test_each_check_has_one_entry_point():
    # A check is described once, by its _CHECKS entry, and run by
    # check(name, ...): a public check_<name> twin would describe it again.
    checks = importlib.import_module("wassmean.checks")
    assert [name for name in vars(checks) if name.startswith("check_")] == []
    assert re.findall(r"\bcheck_\w+\(", (ROOT / "README.md").read_text()) == []


def _imported_modules(path):
    """The package modules that ``path`` imports, by their short names."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level == 0 and not base.startswith("wassmean"):
                continue
            base = base.removeprefix("wassmean").lstrip(".")
            if base:
                names.add(base.split(".")[0])
            else:
                names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {
                alias.name.split(".")[1]
                for alias in node.names if alias.name.startswith("wassmean.")
            }
    return names


def test_file_formats_and_the_cli_sit_on_top():
    # io, the file formats, builds on barycenter and hermitian (and reads a
    # suite plan through checks, imported when a plan is read), and cli on
    # all of them: io is imported by cli alone, and cli by the ``python -m``
    # entry (``__main__.py``) alone, so the layers form no import cycle.
    imports = {
        path.name: _imported_modules(path)
        for path in sorted((ROOT / "src" / "wassmean").glob("*.py"))
    }
    assert "io" in imports["cli.py"] and "cli" in imports["__main__.py"]
    assert [name for name, used in imports.items() if "io" in used] == ["cli.py"]
    assert [name for name, used in imports.items() if "cli" in used] == ["__main__.py"]


def test_seeded_inputs_have_one_home():
    # Every seeded input is drawn, and described as its request, in seeded.py:
    # a generator or a request type anywhere else would describe one again.
    owned = re.compile(r"^(?:def|class) (random_\w+|_Draw|_Apply|_built)\b", re.M)
    homes = {}
    for path in sorted((ROOT / "src" / "wassmean").glob("*.py")):
        text = path.read_text()
        names = owned.findall(text) + re.findall(r"\b_uniforms\b|\bnp\.random\b", text)
        if names:
            homes[path.name] = set(names)
    assert list(homes) == ["seeded.py"]
    assert {"_Draw", "_Apply", "_built", "_uniforms", "random_ensemble"} <= homes["seeded.py"]
