"""The package holds what its commands use, plus a declared verification API.

Every public top-level function and class of ``src/hitchin_limits`` must be
referred to by package code outside its own definition, or be one of the
checks in VERIFICATION_API, which only the acceptance suite calls; every
private top-level function must be referred to by package code.  A helper
that only tests reach belongs in the tests (see ``oracles.py``).

The package needs numpy alone at run time: importing scipy would double a
command's start-up time and add about 25 MB to its peak memory.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hitchin_limits import errors

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "hitchin_limits"

# (module, name) of the checks the acceptance suite calls and no command does
VERIFICATION_API = (
    ("wang", "pointwise_lower_bound_check"),
    ("wang", "error_field"),
    ("building", "flat_isometry_check"),
    ("building", "ambient_separation"),
    ("building", "sector_image_angle"),
    ("polygon", "leading_term"),
)


def _modules():
    return {path.stem: ast.parse(path.read_text())
            for path in sorted(PACKAGE.glob("*.py"))}


def _defined(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]


def _references(module, tree, defined):
    """(module, name) of every package definition that ``tree`` refers to
    outside that definition itself: bare names resolve to the module's own
    definitions or to ``from .x import name``; ``alias.name`` resolves when
    the alias is a package module imported with ``from . import x``.  The
    imports are read at module level and inside function bodies alike (the
    CLI imports a module in the command that runs it)."""
    names = {name: (module, name) for name in defined[module]}
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                bound = alias.asname or alias.name
                if node.module is None:
                    aliases[bound] = alias.name
                else:
                    names[bound] = (node.module, alias.name)
    found = set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        own = (module, getattr(node, "name", None))
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                target = names.get(sub.id)
            elif isinstance(sub, ast.Attribute) \
                    and isinstance(sub.value, ast.Name) \
                    and sub.value.id in aliases:
                target = (aliases[sub.value.id], sub.attr)
            else:
                continue
            if target is not None and target != own:
                found.add(target)
    return found


def _package_uses():
    """(modules, defined, used): the parsed modules, the names each defines
    and the (module, name) pairs package code refers to."""
    modules = _modules()
    defined = {name: _defined(tree) for name, tree in modules.items()}
    used = set()
    for name, tree in modules.items():
        used |= _references(name, tree, defined)
    return modules, defined, used


def test_every_public_name_is_used_by_the_package_or_declared():
    _, defined, used = _package_uses()
    public = {(module, name) for module, names in defined.items()
              for name in names if not name.startswith("_")}
    assert sorted(public - used - set(VERIFICATION_API)) == []
    # a declared check that disappears, or that a command comes to call,
    # leaves the list
    assert sorted(set(VERIFICATION_API) - (public - used)) == []


def test_every_private_function_is_used_by_the_package():
    modules, _, used = _package_uses()
    private = {(module, node.name) for module, tree in modules.items()
               for node in tree.body if isinstance(node, ast.FunctionDef)
               and node.name.startswith("_")}
    assert sorted(private - used) == []


def test_one_function_steps_and_multiplies_out_transport():
    # transport and arcs reach the RK4 step formula and the chunk product
    # through one shared core, so a second step loop cannot come back
    modules, defined, _ = _package_uses()
    users = {}
    for module, tree in modules.items():
        imports = [node for node in tree.body
                   if isinstance(node, (ast.Import, ast.ImportFrom))]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                part = ast.Module(body=imports + [node], type_ignores=[])
                for target in _references(module, part, defined):
                    users.setdefault(target, set()).add(node.name)
    for name in ("_rk4_steps", "FrameTransport"):
        assert users[("frame", name)] == {"_remainder_transport"}, name


def test_every_error_type_is_a_raised_numerical_failure():
    # bad input raises ValueError (exit 1) and the errors module holds only
    # the numerical failures (exit 2), each raised by name somewhere in the
    # package, so no input, warning or dead type comes back there
    modules = _modules()
    defined = _defined(modules["errors"])
    raised = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) \
                    else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert [name for name in defined if not issubclass(
        getattr(errors, name), errors.HitchinLimitsError)] == []
    assert sorted(set(defined) - raised) == ["HitchinLimitsError"]


def _is_dataclass(decorator):
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def test_every_dataclass_field_is_read():
    """Every field of a package dataclass is read as an attribute (an AST
    Load) by package code or by a test.  Reads are matched by name only, so
    a field that shares its name with an attribute read elsewhere passes
    unread: a field ``rs`` would pass on the reads of ``sol.rs``."""
    modules = _modules()
    tests = [ast.parse(path.read_text())
             for path in sorted((ROOT / "tests").glob("*.py"))]
    read = {node.attr for tree in [*modules.values(), *tests]
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    fields = [(module, node.name, item.target.id)
              for module, tree in modules.items() for node in tree.body
              if isinstance(node, ast.ClassDef)
              and any(map(_is_dataclass, node.decorator_list))
              for item in node.body if isinstance(item, ast.AnnAssign)
              and isinstance(item.target, ast.Name)]
    assert fields
    assert [f for f in fields if f[2] not in read] == []


def _fresh_python(code):
    """The stdout of ``code`` run in a fresh interpreter that imports the
    package from ``src``."""
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent),
                                         os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=path))
    assert run.returncode == 0, run.stderr
    return run.stdout


def test_commands_and_solvers_import_no_scipy():
    # a fresh interpreter: the CLI module, the Titeica frame and one Wang
    # solve leave no scipy module behind
    code = ("import sys\n"
            "import hitchin_limits.cli\n"
            "from hitchin_limits import frame, wang\n"
            "frame.titeica_frame()\n"
            "wang.solve_disk(1, 1e2, 1.0)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    assert _fresh_python(code).strip() == "[]"


@pytest.mark.parametrize("argv, code, layers", [
    (["verify", "sweep", "--k", "1", "--s", "1e2"], 0, []),
    (["wang", "solve", "--k", "1", "--s", "1e2"], 0, []),
    (["--help"], 0, []),
    (["verify", "sweep", "--s", "1e2"], 1, []),
    (["verify", "arc", "--k", "1", "--s", "1e2"], 0, ["polygon"]),
    (["trigroup", "boundary"], 0, ["surface", "trigroup"]),
], ids=["sweep", "wang", "help", "usage-error", "arc", "trigroup"])
def test_a_command_loads_only_the_modules_it_runs(argv, code, layers):
    # a process compiles every package module it imports, so one running
    # the verification stack (frame, tropical, wang) loads none of the
    # surface, polygon, building and trigroup layers, and another command
    # only those it calls
    script = ("import contextlib, io, json, sys\n"
              "from hitchin_limits import cli\n"
              "with contextlib.redirect_stdout(io.StringIO()), "
              "contextlib.redirect_stderr(io.StringIO()):\n"
              "    try:\n"
              f"        code = cli.main({argv!r})\n"
              "    except SystemExit as stop:\n"
              "        code = stop.code\n"
              "print(json.dumps([code, [m for m in sys.modules\n"
              "    if m.startswith('hitchin_limits.')]]))\n")
    exit_code, loaded = json.loads(_fresh_python(script))
    assert exit_code == code
    assert sorted({name.rpartition(".")[2] for name in loaded}
                  - {"cli", "errors", "frame", "tropical", "wang"}) == layers


def test_runtime_dependencies_are_numpy_only():
    tomllib = pytest.importorskip("tomllib")
    meta = tomllib.loads((ROOT / "pyproject.toml").read_text())
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group()
             for dep in meta["project"]["dependencies"]]
    assert names == ["numpy"]
