"""Source-level gates on the package."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "tripaths"


def test_no_assert_statements_in_the_package():
    # gates that guard certificates must hold under python -O, which strips asserts
    paths = sorted(SRC.glob("*.py"))
    assert paths, SRC
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], found
