import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "toricnets"


def test_no_assert_statements_in_package():
    # ``python -O`` strips asserts, so no check in the package may be one
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert sorted(SRC.glob("*.py"))
    assert found == []
