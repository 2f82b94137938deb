"""Every exported name has a caller outside the tests.

A name counts as used when it appears in the package's own modules (other
than ``__init__.py``), a demo, a benchmark script or the README.  Its own
``def``/``class``/assignment line and quoted ``__all__`` entries do not
count, so an export that only tests reach fails here.
"""
import re
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
