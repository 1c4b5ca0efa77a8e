"""Import hygiene: every name a package module imports is used in that module,
every name a module lists in ``__all__`` is defined there, the command line
runs on numpy alone, and one function forks, pipes and reaps."""

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import flagshift

PACKAGE = Path(flagshift.__file__).parent


def _imported_names(tree: ast.Module) -> dict[str, int]:
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        # Names listed in __all__ are re-exports and count as used.
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    return [
        f"{path.name}:{line}: {name}"
        for name, line in sorted(_imported_names(tree).items(), key=lambda item: item[1])
        if name not in used
    ]


def test_package_has_no_unused_imports():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    unused = [entry for path in modules for entry in unused_imports(path)]
    assert unused == []


def test_checker_flags_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from typing import Iterable, Sequence\n"
        "__all__ = ['Sequence']\n"
        "def f(x: os.PathLike):\n"
        "    return x\n"
    )
    assert unused_imports(probe) == ["probe.py:3: Iterable"]


def undefined_exports(module: types.ModuleType) -> list[str]:
    return [
        f"{module.__name__}.{name}"
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]


def test_every_export_is_defined():
    modules = [flagshift] + [
        importlib.import_module(f"flagshift.{path.stem}")
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "__init__"
    ]
    assert [entry for module in modules for entry in undefined_exports(module)] == []


def test_checker_flags_a_dangling_export():
    probe = types.ModuleType("probe")
    exec("__all__ = ['kept', 'removed']\nkept = 1\n", probe.__dict__)
    assert undefined_exports(probe) == ["probe.removed"]


PROCESS_CALLS = ("fork", "pipe", "waitpid")


def process_calls(path: Path) -> list[str]:
    """``module.function: os.call`` for each call of an ``os`` process primitive, by the top-level function it is in."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            func = getattr(node, "func", None)
            if (isinstance(node, ast.Call) and isinstance(func, ast.Attribute) and func.attr in PROCESS_CALLS
                    and isinstance(func.value, ast.Name) and func.value.id == "os"):
                where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "<module>"
                found.append(f"{path.stem}.{where}: os.{func.attr}")
    return found


def test_one_function_forks_pipes_and_reaps():
    calls = sorted({entry for path in sorted(PACKAGE.glob("*.py")) for entry in process_calls(path)})
    assert calls == [f"dynamics.background: os.{name}" for name in PROCESS_CALLS]


def test_checker_finds_a_process_call_in_a_nested_function(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import os\n"
        "def outer():\n"
        "    def inner():\n"
        "        return os.waitpid(0, 0)\n"
        "    return inner, os.getpid()\n"
        "pid = os.fork()\n"
    )
    assert process_calls(probe) == ["probe.outer: os.waitpid", "probe.<module>: os.fork"]


NO_SCIPY_SNIPPET = """
import os, sys
def loaded(*packages):
    return sorted(name for name in sys.modules if name.split(".")[0] in packages)
os.sched_getaffinity = lambda pid: {0, 1}  # fork on a one-CPU runner too
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
from flagshift.cli import main
PROCESS_PACKAGES = ("multiprocessing", "concurrent", "subprocess")
at_import = loaded(*PROCESS_PACKAGES)
out = sys.argv[1]
codes = [
    main(["certify", "--algebra", "su2", "--n", "3", "--claims", "all", "--out", out + "/cert.json"]),
    main(["certify", "--algebra", "su2", "--n", "3", "--claims", "lemma1,thm3", "--out", out + "/slice.json"]),
    main(["flow", "--algebra", "su2", "--n", "3", "--csv", out + "/flow.csv"]),
]
try:
    left = os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    left = "no child left"
print(codes, loaded("scipy"), at_import, loaded(*PROCESS_PACKAGES), len(forks), left)
"""


def test_cli_loads_no_scipy(tmp_path):
    # A fresh process: this one has scipy loaded by the tests' oracles.
    # certify's child, which runs its last claim, and the flow's stepper are
    # bare os.forks, so neither the import nor a run loads a process-pool or
    # subprocess module, which would cost start-up, and no child outlives
    # its command.
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SNIPPET, str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] [] [] [] 3 no child left"
