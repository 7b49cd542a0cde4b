"""Source hygiene checks that need no import of the scanned modules."""

import ast
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
