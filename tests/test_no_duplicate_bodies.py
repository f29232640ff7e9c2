"""Guard against copy-pasted code: no two functions of five or more lines
under ``prom_tsdb_copyer_ray/`` may have identical bodies.  A census, a
per-batch projection or a kernel used twice lives once, in a shared
module (censuses and projections in ``pipelines/qsubstrate.py``)."""

from __future__ import annotations

import ast
import collections
import pathlib

PKG = pathlib.Path(__file__).resolve().parent.parent / "prom_tsdb_copyer_ray"
MIN_LINES = 5


def _body_key(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> str:
    body = fn.body
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        body = body[1:]  # docstrings may differ
    return "\n".join(ast.dump(stmt) for stmt in body)


def duplicate_groups(root: pathlib.Path = PKG) -> list[list[str]]:
    """Groups of ``path:line name`` locations whose function bodies are
    identical, for functions spanning at least ``MIN_LINES`` lines."""
    seen: dict[str, list[str]] = collections.defaultdict(list)
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if node.end_lineno - node.lineno + 1 < MIN_LINES:
                continue
            key = _body_key(node)
            if key:
                seen[key].append(
                    f"{path.relative_to(root.parent)}:{node.lineno} {node.name}")
    return [locs for locs in seen.values() if len(locs) > 1]


def test_no_duplicate_function_bodies():
    groups = duplicate_groups()
    report = "\n".join("  " + " == ".join(g) for g in groups)
    assert not groups, (
        f"{len(groups)} groups of identical function bodies; move each "
        f"into one shared function:\n{report}")


def test_guard_sees_a_copy(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    body = '    """{doc}"""\n    a = x + 1\n    b = a * 2\n    c = b - 3\n    return c\n'
    (pkg / "m.py").write_text(
        "def f(x):\n" + body.format(doc="one")
        + "\n\ndef g(x):\n" + body.format(doc="two")
        + "\n\ndef h(x):\n    return x\n")
    assert duplicate_groups(pkg) == [["pkg/m.py:1 f", "pkg/m.py:9 g"]]
