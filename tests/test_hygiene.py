"""Source hygiene that no installed linter checks: every imported name and
every dataclass field is read, the package never unpickles a file and
never transposes a stored weight, diffcore's kernels never use ``@``, and
one class in the package forks processes."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "hgchat").glob("*.py"))
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = SOURCES + sorted((ROOT / "perfbench").glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by an import and never read; ``__all__`` entries count as
    read, and ``from __future__`` imports are exempt."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            read.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in read)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}.{p.stem}")
def test_every_imported_name_is_read(path):
    assert unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from __future__ import annotations\nimport os\nimport sys as system\n"
                     "from math import pi, tau\n__all__ = ['tau']\nprint(system.argv)\n")
    assert unused_imports(tree) == ["os (line 2)", "pi (line 4)"]


def unread_fields(fields_in: ast.Module, readers: list[ast.Module]) -> list[str]:
    """Fields of the ``@dataclass`` classes in ``fields_in`` that no module
    in ``readers`` loads as an attribute."""
    read = {node.attr for tree in readers for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = []
    for cls in ast.walk(fields_in):
        if not isinstance(cls, ast.ClassDef) or not any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in cls.decorator_list):
            continue
        unread.extend(f"{cls.name}.{stmt.target.id} (line {stmt.lineno})" for stmt in cls.body
                      if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                      and stmt.target.id not in read)
    return unread


def test_every_dataclass_field_is_read():
    readers = [ast.parse(path.read_text(encoding="utf-8")) for path in READERS]
    unread = [f"{path.stem}.{field}" for path, tree in zip(READERS, readers)
              if path.parent.name == "hgchat" for field in unread_fields(tree, readers)]
    assert unread == []


def test_the_scan_sees_an_unread_field():
    tree = ast.parse("from dataclasses import dataclass\n@dataclass(frozen=True)\nclass P:\n"
                     "    x: int\n    y: int\n    z = 0\nclass Q:\n    w: int\n"
                     "@dataclass\nclass R:\n    v: int\nprint(P(1, 2).x, R(3).v)\n")
    other = ast.parse("def f(p):\n    p.y = 2\n")  # a store is not a read
    assert unread_fields(tree, [tree, other]) == ["P.y (line 5)"]


def pickle_loads(tree: ast.Module) -> list[str]:
    """``np.load`` (or ``numpy.load``) calls that do not pass the literal
    ``allow_pickle=False``."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "load" and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and not any(kw.arg == "allow_pickle" and isinstance(kw.value, ast.Constant)
                        and kw.value.value is False for kw in node.keywords)]


def test_every_np_load_in_the_package_refuses_pickles():
    # a checkpoint is untrusted input, and unpickling it runs its code
    found = [f"{path.stem} {line}" for path in PACKAGE
             for line in pickle_loads(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_sees_a_load_that_allows_pickles():
    tree = ast.parse("import json\nimport numpy\nimport numpy as np\n"
                     "a = np.load(p)\nb = numpy.load(p, allow_pickle=True)\n"
                     "c = np.load(p, allow_pickle=False)\nd = json.load(f)\n"
                     "e = np.load(p, allow_pickle=flag)\n")
    assert pickle_loads(tree) == ["line 4", "line 5", "line 8"]


def transposed_params(tree: ast.Module) -> list[str]:
    """``transpose`` calls whose argument is a ``params[...]`` subscript: a
    weight the forward pass reshapes on every call, where it could be
    stored as the forward pass reads it."""
    return [f"line {node.lineno}" for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "transpose"
            and any(isinstance(arg, ast.Subscript)
                    and getattr(arg.value, "id", getattr(arg.value, "attr", None)) == "params"
                    for arg in node.args)]


def test_no_parameter_is_transposed_in_the_package():
    found = [f"{path.stem} {line}" for path in PACKAGE
             for line in transposed_params(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == []


def test_the_scan_sees_a_transposed_parameter():
    tree = ast.parse("a = transpose(params['w'])\nb = dc.transpose(self.params['w'])\n"
                     "c = transpose(k)\nd = transpose(matmul(x, params['w']))\n"
                     "e = np.transpose(params['w'].values)\nf = transpose(table['w'])\n")
    assert transposed_params(tree) == ["line 1", "line 2"]


def matmul_operators(tree: ast.Module) -> list[str]:
    """Uses of the ``@`` operator, as ``a @ b`` or ``a @= b``."""
    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult))]


def test_diffcore_calls_dot_and_never_the_matmul_operator():
    # ``@`` goes through the matmul ufunc's dispatch, which at the model's
    # sizes costs about as much as the product; ``ndarray.dot`` does not
    path = ROOT / "src" / "hgchat" / "diffcore.py"
    assert matmul_operators(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_the_scan_sees_a_matmul_operator():
    tree = ast.parse("a = x @ w\nb = x.dot(w)\nc @= d\ne = f((x @ y) + z)\n"
                     "g = np.matmul(x, y)\nh = x * w\n")
    assert matmul_operators(tree) == ["line 1", "line 3", "line 4"]


FORKING_NAMES = {"get_context", "Process", "Pipe"}


def forking_sites(tree: ast.Module, helper: str) -> list[str]:
    """Uses of ``get_context``, ``Process`` or ``Pipe``, and ``signal.signal``
    calls that pass ``SIG_IGN``, outside the class named ``helper``."""
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == helper for node in ast.walk(cls)}

    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    return [f"line {line}" for line in sorted(
        node.lineno for node in ast.walk(tree) if id(node) not in inside and (
            isinstance(node, (ast.Attribute, ast.Name)) and name(node) in FORKING_NAMES
            or isinstance(node, ast.Call) and name(node.func) == "signal"
            and any(name(arg) == "SIG_IGN" for arg in node.args)))]


def test_only_the_fork_helper_creates_processes_or_pipes():
    # one place owns the fork context, the pipes, the children's signal
    # handling and their reaping
    found = [f"{path.stem} {site}" for path in PACKAGE
             for site in forking_sites(ast.parse(path.read_text(encoding="utf-8")), "Forked")]
    assert found == []


def test_the_scan_sees_a_fork_outside_the_helper():
    tree = ast.parse("import multiprocessing as mp, signal\n"
                     "class Forked:\n"
                     "    def f(self):\n"
                     "        ctx = mp.get_context('fork')\n"
                     "        signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
                     "        return ctx.Process, ctx.Pipe\n"
                     "ctx = mp.get_context('fork')\n"
                     "a, b = ctx.Pipe()\n"
                     "p = Process(target=print)\n"
                     "signal.signal(signal.SIGINT, signal.SIG_IGN)\n"
                     "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
                     "class Other:\n"
                     "    pipe = mp.Pipe\n")
    assert forking_sites(tree, "Forked") == ["line 7", "line 8", "line 9", "line 10", "line 13"]
