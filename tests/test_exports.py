"""The package's public surface: `__all__` is sorted and lists exactly the names `__init__.py` imports."""

import ast
from pathlib import Path

import minmaxmst


def test_all_lists_the_imported_names_sorted():
    tree = ast.parse(Path(minmaxmst.__file__).read_text())
    imported = [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert minmaxmst.__all__ == sorted(minmaxmst.__all__) == sorted(imported)
    namespace = {}
    exec("from minmaxmst import *", namespace)
    assert sorted(name for name in namespace if name != "__builtins__") == minmaxmst.__all__
