"""Module boundaries: every exported name resolves, no module of the
package reaches into another module's private names, every module-level
definition is exported or used, every dataclass field is read, and
importing the package leaves out what only one experiment needs."""
import ast
import importlib
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = ["wsdepth", "wsdepth.analytic", "wsdepth.depth", "wsdepth.ot_core", "wsdepth.sim"]
PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wsdepth"
TESTS = pathlib.Path(__file__).resolve().parent


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _dotted(node):
    """``a.b.c`` for a chain of names and attributes, else ``None``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def _private_reach_ins(source: str) -> list:
    """``(line, name)`` for each private name taken from another package
    module: ``from .x import _name``, or ``x._name`` where ``x`` was bound by
    importing a package module."""
    tree = ast.parse(source)
    modules = set()  # local names bound to the package or its modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "wsdepth"
        ):
            for alias in node.names:
                if _private(alias.name):
                    found.append((node.lineno, alias.name))
                if node.module in (None, "wsdepth"):  # from . import x
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "wsdepth":
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        base = _dotted(node.value) if isinstance(node, ast.Attribute) else None
        if base is not None and base.split(".")[0] in modules and _private(node.attr):
            found.append((node.lineno, f"{base}.{node.attr}"))
    return sorted(found)


def test_no_module_reaches_into_another_modules_private_names():
    found = {
        path.name: _private_reach_ins(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(found) >= len(MODULES)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_reach_in_check_sees_both_forms():
    source = (
        "from .ot_core import Cloud, _path\n"
        "from . import depth\n"
        "import wsdepth.sim as sim\n"
        "depth.check_threads, depth._field, sim._CASES, depth.__all__\n"
        "import wsdepth.ot_core\n"
        "wsdepth.ot_core._BLOCK_ENTRIES\n"
    )
    assert _private_reach_ins(source) == [
        (1, "_path"), (4, "depth._field"), (4, "sim._CASES"),
        (6, "wsdepth.ot_core._BLOCK_ENTRIES"),
    ]


def _unused_imports(source: str) -> list:
    """``(line, name)`` for each module-level import that the module never
    uses and does not list in ``__all__``."""
    tree = ast.parse(source)
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                imported.append((node.lineno, alias.asname or alias.name.split(".")[0]))
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported = set(ast.literal_eval(node.value))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in imported if name not in used | exported]


def test_no_module_keeps_an_unused_import():
    found = {
        path.name: _unused_imports(path.read_text())
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert len(found) >= len(MODULES)
    assert {name: hits for name, hits in found.items() if hits} == {}


def test_the_unused_import_check_sees_a_leftover():
    source = (
        "from __future__ import annotations\n"
        "from operator import index, itemgetter\n"
        "import scipy.sparse\n"
        "import numpy as np\n"
        "from .errors import WsdError\n"
        "__all__ = ['WsdError']\n"
        "index(scipy.sparse.csr_matrix)\n"
    )
    assert _unused_imports(source) == [(2, "itemgetter"), (4, "np")]


def _dead_definitions(sources: dict) -> list:
    """``module.name`` for each module-level function or class that its
    module leaves out of ``__all__`` and that no other code of the package
    refers to, by name, attribute or import."""
    defined, exported, refs = [], set(), {}  # refs: top-level node -> names
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name, node))
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                exported |= {(module, n) for n in ast.literal_eval(node.value)}
            names = set()
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    names.add(sub.id)
                elif isinstance(sub, ast.Attribute):
                    names.add(sub.attr)
                elif isinstance(sub, ast.alias):
                    names.add(sub.name)
            refs[node] = names
    return [
        f"{module}.{name}"
        for module, name, node in defined
        if (module, name) not in exported
        and not any(name in names for other, names in refs.items() if other is not node)
    ]


def test_every_definition_is_exported_or_used():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) >= len(MODULES)
    assert _dead_definitions(sources) == []


def test_the_dead_definition_check_sees_a_leftover():
    sources = {
        "a": (
            "__all__ = ['shown']\n"
            "def shown(): return _helper()\n"
            "def _helper(): return 1\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class Orphan: pass\n"
        ),
        "b": "from .a import shown\ndef _called(): pass\n_TABLE = {'x': _called}\n",
    }
    assert _dead_definitions(sources) == ["a._recursive", "a.Orphan"]


def _unread_fields(sources: dict, readers: list) -> list:
    """``module.Class.field`` for each field of a ``@dataclass`` in
    ``sources`` whose name no source in ``readers`` loads as an attribute
    (``x.field``).

    The check goes by name: a field counts as read wherever any object's
    attribute of that name is loaded.  So it cannot see a field whose name
    another object also uses, such as a ``seed``, ``tag`` or
    ``threshold_quantile`` that some other class reads.
    """
    read = {
        node.attr
        for source in readers
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, ast.ClassDef) or not any(
                _dotted(d.func if isinstance(d, ast.Call) else d)
                in ("dataclass", "dataclasses.dataclass")
                for d in node.decorator_list
            ):
                continue
            unread += [
                f"{module}.{node.name}.{item.target.id}"
                for item in node.body
                if isinstance(item, ast.AnnAssign)
                and isinstance(item.target, ast.Name)
                and item.target.id not in read
            ]
    return unread


def test_every_dataclass_field_is_read():
    sources = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    readers = list(sources.values()) + [
        path.read_text() for path in sorted(TESTS.glob("*.py"))
    ]
    assert len(sources) >= len(MODULES)
    assert _unread_fields(sources, readers) == []


def test_the_unread_field_check_sees_a_leftover():
    sources = {
        "a": (
            "from dataclasses import dataclass\n"
            "import dataclasses\n"
            "@dataclass(frozen=True)\n"
            "class Kept:\n"
            "    shown: int\n"
            "    hidden: int = 0\n"
            "    def total(self): return self.shown\n"
            "@dataclasses.dataclass\n"
            "class Result:\n"
            "    rows: tuple\n"
            "    config: object\n"
            "class Plain:\n"
            "    ignored: int\n"
        ),
    }
    readers = [sources["a"], "result.rows\nresult.config = 1\n"]
    assert _unread_fields(sources, readers) == ["a.Kept.hidden", "a.Result.config"]


def test_importing_the_package_leaves_scipy_stats_to_the_experiment_using_it():
    # scipy.stats adds about a third of a second to every process's import;
    # only run_location_equivalence uses it (spearmanr), and imports it on call
    code = (
        "import math, sys\n"
        "import wsdepth, wsdepth.cli\n"
        "print([m for m in sys.modules if m.startswith('scipy.stats')])\n"
        "from wsdepth.sim import ExperimentConfig, run_location_equivalence\n"
        "config = ExperimentConfig('location_equivalence', case=4, n=5, m=6,"
        " repetitions=2)\n"
        "corrs = run_location_equivalence(config).rank_correlations\n"
        "print(len(corrs), all(map(math.isfinite, corrs)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == ["[]", "2 True"]


_HEAVY = ("scipy.optimize", "scipy.spatial", "scipy.special", "scipy.linalg",
          "scipy.sparse", "scipy.stats")
_COMPILED = ("scipy.optimize._lsap", "scipy.optimize._highspy._core",
             "scipy.spatial._distance_pybind")
# the objects wsdepth.ot_core holds, against those SciPy's packages hold
_SAME_OBJECTS = (
    "import scipy.optimize, scipy.spatial.distance\n"
    "from wsdepth import ot_core\n"
    "print(scipy.optimize.linear_sum_assignment is ot_core.linear_sum_assignment,"
    " sys.modules['scipy.optimize._highspy._core'] is ot_core._highs,"
    " sys.modules['scipy.optimize._highspy._highs_wrapper']._h is ot_core._highs,"
    " scipy.spatial.distance._distance_pybind.cdist_sqeuclidean"
    " is ot_core._cdist_sqeuclidean)\n"
)


def _run(code: str) -> list:
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.splitlines()


def test_importing_the_package_loads_scipy_compiled_modules_alone():
    # the packages around the three compiled modules wsdepth calls take most
    # of a second to import; the modules load from their files instead
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import wsdepth, wsdepth.cli\n"
        f"heavy, compiled = {_HEAVY!r}, {_COMPILED!r}\n"
        "def loaded(prefix):\n"
        "    return [m for m in sys.modules if m.split('.')[:2] == prefix.split('.')\n"
        "            and not m.startswith(compiled)]\n"
        "print([m for p in heavy for m in loaded(p)], all(map(sys.modules.get, compiled)))\n"
        "from wsdepth.sim import query_cloud\n"
        "query_cloud(3, 0.0, 16)\n"
        "print('scipy.special' in sys.modules)\n"
        + _SAME_OBJECTS +
        "from scipy.optimize import linprog\n"
        "from scipy.spatial.distance import cdist\n"
        "lp = linprog([1.0, 2.0], A_eq=[[1.0, 1.0]], b_eq=[1.0], method='highs')\n"
        "print(lp.status, lp.x.tolist())\n"
        "x, y = np.random.default_rng(3).normal(size=(2, 7, 4))\n"
        "print(cdist(x, y, 'sqeuclidean').tobytes() == ot_core.cost_matrix(x, y).tobytes())\n"
    )
    want = ["[] True", "True", "True True True True", "0 [1.0, 0.0]", "True"]
    assert _run(code) == want


def test_importing_scipy_first_binds_the_same_compiled_modules():
    code = (
        "import sys\n"
        "import scipy.optimize, scipy.spatial.distance\n"
        "import wsdepth, wsdepth.cli\n"
    ) + _SAME_OBJECTS
    assert _run(code) == ["True True True True"]
