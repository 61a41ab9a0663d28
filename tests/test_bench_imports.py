"""Every name that the benchmark imports from the package still resolves.

``bench/`` is versioned with the benchmark, not with the package, so a name
moved inside ``src/`` must stay importable where ``bench/`` looks for it.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_every_name_bench_imports_from_wpansim_resolves():
    imports = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.ImportFrom) and node.module
                    and node.module.split(".")[0] == "wpansim"):
                imports += [(path.name, node.module, alias.name)
                            for alias in node.names]
    assert {module for _, module, _ in imports} >= {"wpansim", "wpansim.experiment"}
    for file, module_name, name in imports:
        module = importlib.import_module(module_name)
        found = hasattr(module, name) or (
            hasattr(module, "__path__")    # a package: the name may be a module
            and importlib.util.find_spec(f"{module_name}.{name}") is not None)
        assert found, f"bench/{file}: from {module_name} import {name}"
