"""Every package name the benchmark harness reads exists in the package.

perfbench/ runs outside tier-1, so a package name it reads that goes missing
would fail only a benchmark run.  Its files are read with ast: none is imported,
and perfbench/.work/ (checkouts the harness builds) is not read.
"""

import ast
import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("catalog", "model", "solver", "lie", "conservation", "wavefront", "cli")


def perfbench_names(paths) -> set:
    """(module, name) of each attribute read off a MODULES import and each COUNTED pair."""
    pairs = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        bound = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.module == "trafficflow"
                 for alias in node.names if alias.name in MODULES}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in bound):
                pairs.add((bound[node.value.id], node.attr))
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "COUNTED" for t in node.targets):
                pairs |= {tuple(pair) for pair in ast.literal_eval(node.value)}
    return pairs


def test_every_package_name_perfbench_reads_exists():
    pairs = perfbench_names(sorted(PERFBENCH.glob("*.py")))
    # worker.py's COUNTED and the catalog list check of workloads.py are both read
    assert {("model", "pde_residual"), ("solver", "step"), ("catalog", "ENTRY_PARAMS")} <= pairs
    missing = sorted((module, name) for module, name in pairs
                     if not hasattr(importlib.import_module(f"trafficflow.{module}"), name))
    assert missing == []


def test_a_name_read_off_an_aliased_import_or_listed_in_counted_is_found(tmp_path):
    bench = tmp_path / "bench.py"
    bench.write_text("from trafficflow import catalog as cat, lie\n"
                     "COUNTED = [('model', 'gone')]\n"
                     "cat.make_entry('T1'); lie.nothing_here; other.ignored\n")
    assert perfbench_names([bench]) == {("catalog", "make_entry"), ("lie", "nothing_here"),
                                        ("model", "gone")}
