"""Source hygiene checks that need no import of the scanned modules."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _unused_imports(path: Path) -> list[str]:
    """Names a module imports and never reads (``from __future__`` aside)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in imported.items() if name not in used]


def test_no_unused_imports():
    # __init__.py imports names to re-export them, so it is not scanned.
    files = [p for p in sorted((ROOT / "src" / "qeuler").glob("*.py")) if p.name != "__init__.py"]
    files += sorted((ROOT / "tests").glob("*.py"))
    unused = [entry for path in files for entry in _unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def _defined_names(path: Path) -> dict[str, int]:
    """Module-level names and class members a module defines, dunders aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    defined: dict[str, int] = {}
    scopes = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for body in scopes:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = node.lineno
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined[target.id] = node.lineno
    return {name: line for name, line in defined.items() if not name.startswith("__")}


def _docstrings(tree: ast.Module) -> set[ast.Constant]:
    """The docstring nodes: the first-statement strings of the module, classes and functions."""
    return {node.body[0].value for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node, clean=False) is not None}


def _referenced_names(path: Path) -> set[str]:
    """Names read, attributes read, names imported, and words of string constants
    other than docstrings, since PLAN rows and the tracer name their targets by string."""
    tree = ast.parse(path.read_text(), filename=str(path))
    docstrings = _docstrings(tree)
    refs: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs.update(alias.name for alias in node.names)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node not in docstrings):
            refs.update(re.findall(r"\w+", node.value))
    return refs


# Names that nothing in src/ or perfbench/ uses but that stay, with the reason.
UNREFERENCED_BY_DESIGN = {
    "from_json_obj": "Poly's reader of the documented wire format",
    "_make": "CheckedTuple's override, which the named tuple's own _replace calls",
}


def test_every_src_name_is_referenced():
    # Code that only tests use is dead code, so tests/ does not count as a user.
    # __init__.py re-exports names, which is no use of them.  The _chk_* checks
    # are looked up by name for the plan.PLAN rows that verify.AGREEMENTS does
    # not hold, which test_verify_plan.py covers.
    src = [p for p in sorted((ROOT / "src" / "qeuler").glob("*.py")) if p.name != "__init__.py"]
    files = src + sorted((ROOT / "perfbench").glob("*.py"))
    refs = set().union(*map(_referenced_names, files))
    unreferenced = [f"{path.relative_to(ROOT)}:{line} {name}"
                    for path in src for name, line in _defined_names(path).items()
                    if name not in refs and not name.startswith("_chk_")
                    and name not in UNREFERENCED_BY_DESIGN]
    assert not unreferenced, "names nothing refers to:\n" + "\n".join(unreferenced)


def _defaulted_parameters(path: Path) -> list[tuple[str, str, int | None, int]]:
    """(callee name, parameter, position in a call or None, line) per defaulted parameter.

    A method's position leaves out self or cls, and __init__ and __new__ are called
    by their class name.
    """
    found = []

    def visit(node: ast.AST, cls: ast.ClassDef | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                skip = 0 if cls is None else 1
                constructor = cls is not None and child.name in ("__init__", "__new__")
                name = cls.name if constructor else child.name
                positional = args.posonlyargs + args.args
                first = len(positional) - len(args.defaults)
                found.extend((name, arg.arg, i - skip, child.lineno)
                             for i, arg in enumerate(positional) if i >= first)
                found.extend((name, arg.arg, None, child.lineno)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(child, None)
            else:
                visit(child, cls)

    visit(ast.parse(path.read_text(), filename=str(path)), None)
    return found


def _passed_arguments(paths: list[Path]) -> dict[str, set[str | int | None]]:
    """Per called name: the keywords and positions its calls pass; None marks * or **."""
    passed: dict[str, set[str | int | None]] = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            else:
                continue
            got = passed.setdefault(name, set())
            got.update(kw.arg for kw in node.keywords)  # kw.arg is None for **
            got.update(range(len(node.args)))
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                got.add(None)
    return passed


def test_every_default_is_passed_somewhere():
    # A default that no call overrides is a constant in disguise.
    src = sorted((ROOT / "src" / "qeuler").glob("*.py"))
    files = src + sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    passed = _passed_arguments(files)
    never = [f"{path.relative_to(ROOT)}:{line} {name}({param})"
             for path in src for name, param, pos, line in _defaulted_parameters(path)
             if not passed.get(name, set()) & {None, param, pos}]
    assert not never, "defaults no call passes:\n" + "\n".join(never)
