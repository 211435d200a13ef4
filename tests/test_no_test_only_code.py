"""No definition under ``src/repro`` is reached only from ``tests/``.

A definition is a module-level function, class or assignment, or a
method of a module-level class.  It is *used* when its name appears as
a ``Name`` or ``Attribute`` node, or as a string constant that is an
identifier (``getattr(obj, "name")``), anywhere on a user path:
``src/repro``, ``benchmarks/``, ``examples/``, ``perfbench/`` (its own
tests aside) and the CI workflows.  Package ``__init__`` re-exports and
``__all__`` lists do not count as uses, docstrings do not count, and a
definition's mention of its own name inside its body does not count.

Matching is by name, so a name that some other object also uses counts
as used: the scan can miss test-only code, and it flags live code only
when a user path reaches it without writing its name.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"

# Read-only accessors that tests use to watch state kept by code that
# runs on a user path, and test doubles or references defined beside
# the code they stand in for.
ALLOWED = {
    # accessors of live state
    "in_use", "free_bytes", "holds", "free_at", "is_dirty",
    "resident_lines", "idle", "tags_in_use", "table_bytes",
    "allocated_bytes",
    # test doubles
    "FixedLatencyTarget",
}

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# Decorators that leave a definition reachable only through its name;
# any other decorator (a registry, a CLI hook) is a use in itself.
PLAIN_DECORATORS = {"property", "staticmethod", "classmethod",
                    "cached_property", "dataclass", "setter"}


def _user_files():
    yield from sorted(SRC.rglob("*.py"))
    for sub in ("benchmarks", "examples", "perfbench"):
        for path in sorted((ROOT / sub).rglob("*.py")):
            if "tests" not in path.relative_to(ROOT / sub).parts:
                yield path


def _docstrings(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                yield body[0].value


def _decorator_name(node):
    while isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _registered(node):
    return any(_decorator_name(d) not in PLAIN_DECORATORS
               for d in getattr(node, "decorator_list", ()))


def _definitions(tree):
    """``(name, first line, last line, node)`` for each definition."""
    def entry(name, node):
        return name, node.lineno, node.end_lineno, node

    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield entry(node.name, node)
        elif isinstance(node, ast.ClassDef):
            yield entry(node.name, node)
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield entry(item.name, item)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                if isinstance(target, ast.Name):
                    yield entry(target.id, node)


def _uses(tree):
    """``(name, line)`` for each use of a name in one file."""
    skip = {id(doc) for doc in _docstrings(tree)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            skip.update(id(n) for n in ast.walk(node.value))
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip and IDENTIFIER.match(node.value)):
            yield node.value, node.lineno


def find_test_only_definitions():
    """Definitions under ``src/repro`` that no user path names."""
    parsed = {path: ast.parse(path.read_text(), str(path))
              for path in _user_files()}
    uses = {}
    for path, tree in parsed.items():
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    for workflow in sorted((ROOT / ".github" / "workflows").glob("*.y*ml")):
        for name in WORD.findall(workflow.read_text()):
            uses.setdefault(name, []).append((workflow, 0))

    found = []
    for path, tree in parsed.items():
        if SRC not in path.parents:
            continue
        for name, first, last, node in _definitions(tree):
            if (name.startswith("__") and name.endswith("__")) \
                    or name in ALLOWED or _registered(node):
                continue
            if not any(p != path or not first <= line <= last
                       for p, line in uses.get(name, ())):
                found.append(f"{path.relative_to(ROOT)}:{first} {name}")
    return found


def test_no_definition_is_reached_only_from_tests():
    found = find_test_only_definitions()
    assert not found, (
        "definitions no user path reaches (give each a caller, delete "
        "it with its tests, or allowlist a kept accessor):\n"
        + "\n".join(found))
