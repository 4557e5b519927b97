"""The package has no runtime dependencies: every absolute import in
``src/normcolour`` names a standard-library module (or ``__future__``)."""
import ast
import sys
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "normcolour"


def _absolute_imports(path: Path) -> list[str]:
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return names


def test_every_absolute_import_is_from_the_standard_library():
    files = sorted(SOURCE.glob("*.py"))
    assert files
    outside = [
        f"{path.name}: {name}"
        for path in files
        for name in _absolute_imports(path)
        if name != "__future__" and name.split(".")[0] not in sys.stdlib_module_names
    ]
    assert not outside
