"""``src/`` keeps no public name that only tests call.

A public top-level function, class or UPPER-case constant of ``src/rstboost`` must
appear on another line of ``src/``, or be named in ``perfbench/*.py``, whose tracer
and worker pin the names the benchmark measures.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONSTANT = re.compile(r"[A-Z][A-Z0-9_]*\Z")


def public_definitions(path):
    """(name, line) of each public top-level def, class and UPPER-case constant."""
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            if not node.name.startswith("_"):
                yield node.name, node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Name) and CONSTANT.match(target.id):
                    yield target.id, node.lineno


def unused_public_names():
    """Public names of ``src/`` that appear on no line of ``src/`` but their own."""
    sources = sorted((ROOT / "src" / "rstboost").glob("*.py"))
    lines_of = defaultdict(set)
    for path in sources:
        for no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            for word in re.findall(r"\w+", line):
                lines_of[word].add((path, no))
    return {name for path in sources for name, no in public_definitions(path)
            if lines_of[name] <= {(path, no)}}


def test_every_public_name_is_used_in_src_or_pinned_by_the_benchmark():
    pinned = set(re.findall(r"\w+", "\n".join(
        path.read_text(encoding="utf-8") for path in (ROOT / "perfbench").glob("*.py"))))
    test_only = sorted(unused_public_names() - pinned)
    assert not test_only, f"public names in src/ that only tests use: {test_only}"
