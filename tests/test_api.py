"""The package exports no name that the package itself or the benchmark
never uses: a public function, class or constant without a caller in
src/mgbench or perfbench is dead weight to keep working."""
import ast
import types
from pathlib import Path

import mgbench

ROOT = Path(__file__).resolve().parents[1]


def _used_names():
    """Every ast.Name id and ast.Attribute attr read or set in the package
    modules (without __init__.py) and the benchmark scripts."""
    files = [p for p in (ROOT / "src" / "mgbench").glob("*.py")
             if p.name != "__init__.py"]
    files += (ROOT / "perfbench").glob("*.py")
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_caller():
    public = {name for name in mgbench.__all__
              if not isinstance(getattr(mgbench, name), types.ModuleType)}
    assert sorted(public - _used_names()) == []
