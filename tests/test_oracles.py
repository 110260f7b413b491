"""The oracles stay independent of the package they check."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parent / "oracles.py"


def test_oracles_import_nothing_from_hassett():
    imported = []
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            # a relative import could reach a test module that imports hassett
            assert node.level == 0, f"relative import of {node.module!r}"
            imported.append(node.module)
    assert imported, "no imports parsed"
    assert [m for m in imported if m.split(".")[0] == "hassett"] == []
