"""Import hygiene: every imported name and module constant is read, and ``__all__`` is exact.

No lint tool is needed.  ``symtable`` parses each module into its scopes
and marks, per scope, the names it imports and the names it reads; a
local variable that shadows an imported name does not count as a read.
"""

import ast
import re
import symtable
from collections import Counter
from pathlib import Path

import pytest

import slabflow

MODULES = sorted(p for p in Path(slabflow.__file__).parent.glob("*.py") if p.name != "__init__.py")
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def reads_from_outside(table):
    """Names that a scope nested in ``table`` reads from an enclosing scope."""
    names = set()
    for child in table.get_children():
        names |= {s.get_name() for s in child.get_symbols()
                  if s.is_referenced() and (s.is_global() or s.is_free())}
        names |= reads_from_outside(child)
    return names


def unused_imports(table):
    """Imported names that neither their scope nor a nested one reads."""
    nested = reads_from_outside(table)
    unused = [s.get_name() for s in table.get_symbols()
              if s.is_imported() and not s.is_referenced() and s.get_name() not in nested]
    for child in table.get_children():
        unused += unused_imports(child)
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_every_imported_name_is_read(path):
    unused = unused_imports(symtable.symtable(path.read_text(), str(path), "exec"))
    assert unused == [], f"{path.name} imports names it never reads: {sorted(unused)}"


def module_constants(tree):
    """Upper-case names that a module's top-level assignments bind."""
    targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
    targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
    return {t.id for t in targets if isinstance(t, ast.Name) and CONSTANT.fullmatch(t.id)}


def read_names(tree):
    """Names a module reads, bare or as an attribute (``slice_solver.MAX_NEWTON``)."""
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_module_constant_is_read():
    """A constant left behind when the policy it held moves elsewhere is caught here."""
    trees = {p.name: ast.parse(p.read_text()) for p in MODULES}
    read = set().union(*map(read_names, trees.values()))
    unread = sorted(f"{name}: {c}" for name, tree in trees.items() for c in module_constants(tree) - read)
    assert unread == [], f"module constants nothing in the package reads: {unread}"


def test_all_names_resolve_and_appear_once():
    counts = Counter(slabflow.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in counts if not hasattr(slabflow, name)] == []


def test_init_imports_exactly_the_names_in_all():
    tree = ast.parse(Path(slabflow.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == set(slabflow.__all__)
