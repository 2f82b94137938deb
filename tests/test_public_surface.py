"""Every exported name has a caller outside the tests, every module reads
what it imports, and small work leaves the large-graph engines unimported.

A name counts as used when it appears in the package's own modules (other
than ``__init__.py``), a demo, a benchmark script or the README.  Its own
``def``/``class``/assignment line and quoted ``__all__`` entries do not
count, so an export that only tests reach fails here.
"""
import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import recsubgraph

ROOT = Path(__file__).resolve().parent.parent
_SOURCES = [
    *(p for p in sorted((ROOT / "src" / "recsubgraph").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "demos").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "README.md",
]
_ALL_BLOCK = re.compile(r"^__all__\s*=\s*\[.*?\]", re.DOTALL | re.MULTILINE)
# The defining part of a line: a def/class head or an assignment target.
_DEFINITION = re.compile(r"^\s*(?:(?:def|class)\s+\w+|\w+\s*(?::[^=]*)?=(?!=))")


def _usage_text() -> str:
    lines = []
    for path in _SOURCES:
        text = _ALL_BLOCK.sub("", path.read_text(encoding="utf-8"))
        lines.extend(_DEFINITION.sub("", line) for line in text.splitlines())
    return "\n".join(lines)


def test_every_export_has_a_caller_outside_tests():
    text = _usage_text()
    unused = [
        name for name in recsubgraph.__all__
        if not re.search(rf"\b{re.escape(name)}\b", text)
    ]
    assert unused == []


def _unread_imports(path: Path) -> list[str]:
    """Names ``path`` imports but never reads; one in ``__all__`` counts as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import | ast.ImportFrom)
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else []
        if [getattr(t, "id", None) for t in targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_every_module_reads_what_it_imports():
    unread = {
        path.name: names
        for path in sorted((ROOT / "src" / "recsubgraph").glob("*.py"))
        if (names := _unread_imports(path))
    }
    assert unread == {}


# Solves every algorithm and a matching on a tiny graph after importing the
# CLI, then prints which engines it imported and whether they still exist.
_SMALL_WORK = """
import importlib.util, sys
import recsubgraph.cli
from recsubgraph import ALGORITHMS, ProblemParams, SolverConfig, build_graph, hopcroft_karp, solve
g = build_graph(3, 4, [(0, 0), (0, 1), (1, 1), (1, 1), (2, 3)])
for algo in ALGORITHMS:
    solve(g, algo, SolverConfig(ProblemParams(c=2, a=1)))
hopcroft_karp(g)
engines = ["recsubgraph._layered", "recsubgraph._waves"]
print([name for name in engines if name in sys.modules])
print([importlib.util.find_spec(name) is not None for name in engines])
"""


def test_small_work_leaves_large_graph_engines_unimported():
    # The layered matching and the greedy waves are imported on first use.
    # A process that writes no bytecode compiles every module it imports, so
    # an engine imported by small work would cost every such process.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    proc = subprocess.run(
        [sys.executable, "-c", _SMALL_WORK],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "[True, True]"]
