"""``docs/model.md`` names a tier-1 test for each rule; every one exists."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_test_the_model_statement_names_exists():
    named = set(re.findall(r"`(tests/\w+\.py)::(\w+)`",
                           (ROOT / "docs" / "model.md").read_text()))
    assert len(named) >= 8
    defined = {}
    for path in {path for path, _ in named}:
        tree = ast.parse((ROOT / path).read_text())
        defined[path] = {node.name for node in tree.body
                         if isinstance(node, ast.FunctionDef)}
    missing = sorted(f"{path}::{name}" for path, name in named
                     if not name.startswith("test_") or name not in defined[path])
    assert not missing
