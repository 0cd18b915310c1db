import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "weakhyp"

#: names kept without a production caller, and why
ALLOWED = {
    "lower_matrix": "ROADMAP item 5",
    "transformed_data": "ROADMAP item 5",
    "full_principal": "ROADMAP item 5",
}


def _definitions(tree):
    """Top-level functions and classes, and the non-dunder methods of the
    classes, as (name, first line, last line)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) \
                        and not re.fullmatch(r"__\w+__", item.name):
                    yield item.name, item.lineno, item.end_lineno


def test_every_src_name_has_a_production_caller():
    """Each name defined in a package module occurs in the package or the
    benchmark outside its own definition; the exports in ``__init__`` do
    not count, and neither do the tests.

    The check is coarse: it matches whole words, so a name that appears in
    a docstring or a comment, or that shares its spelling with another
    name, counts as used.
    """
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    callers = modules + sorted((ROOT / "perfbench").glob("*.py"))
    lines = {p: p.read_text(encoding="utf-8").splitlines() for p in callers}
    unused = []
    for module in modules:
        tree = ast.parse("\n".join(lines[module]))
        for name, first, last in _definitions(tree):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line)
                       for path, text in lines.items()
                       for number, line in enumerate(text, 1)
                       if not (path == module and first <= number <= last))
            if not used and name not in ALLOWED:
                unused.append(f"{module.name}: {name}")
    assert not unused, "no production caller: " + ", ".join(unused)
