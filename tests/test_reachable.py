"""Every top-level function and class of ``src/macwt`` is used there."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "macwt"
# perfbench's row and query checks call these two; no command does
CALLED_FROM_PERFBENCH = {"esa_case_id", "esa_cj_case_label"}


def _is_command(node):
    """Registered by ``@main.command()``: click runs it, no code calls it."""
    return any(ast.unparse(d) == "main.command()"
               for d in node.decorator_list)


def test_every_definition_is_referenced():
    # __init__.py only re-exports: an export is not a use
    modules = {p.name: ast.parse(p.read_text(encoding="utf-8"))
               for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}
    defs = [(name, node) for name, tree in modules.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))]
    used = {}  # name -> the nodes that read it
    for tree in modules.values():
        aliases = {}  # `from .m import f as g`: a read of g reads f
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                aliases.update((a.asname, a.name) for a in node.names
                               if a.asname)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            used.setdefault(aliases.get(name, name), []).append(node)
    unused = []
    for module, node in defs:
        if _is_command(node) or node.name in CALLED_FROM_PERFBENCH:
            continue
        own = {id(n) for n in ast.walk(node)}  # recursion is not a use
        if not any(id(n) not in own for n in used.get(node.name, ())):
            unused.append(f"{module}:{node.lineno} {node.name}")
    assert not unused, "defined but never used in src/macwt: " + ", ".join(
        unused)
