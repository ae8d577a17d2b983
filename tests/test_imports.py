"""Import hygiene: every imported name is read, and ``__all__`` is exact.

No lint tool is needed.  ``symtable`` parses each module into its scopes
and marks, per scope, the names it imports and the names it reads; a
local variable that shadows an imported name does not count as a read.
"""

import ast
import symtable
from collections import Counter
from pathlib import Path

import pytest

import slabflow

MODULES = sorted(p for p in Path(slabflow.__file__).parent.glob("*.py") if p.name != "__init__.py")


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


def test_all_names_resolve_and_appear_once():
    counts = Counter(slabflow.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
    assert [name for name in counts if not hasattr(slabflow, name)] == []


def test_init_imports_exactly_the_names_in_all():
    tree = ast.parse(Path(slabflow.__file__).read_text())
    imported = {alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert imported == set(slabflow.__all__)
