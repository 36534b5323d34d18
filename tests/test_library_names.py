"""Every public library name has a caller in the library itself.

A public function or class of a `qest` module that only tests call belongs in
the tests (see tests/oracles.py), not in the package.  The scan reads the
modules' syntax trees: a name counts as called when some module other than
``__init__.py`` references it as a ``Name`` or an ``Attribute`` outside its
own definition.  Imports, docstrings and comments do not count.

The public members of a public class are held to the same rule: its public
methods and properties, and the fields of a dataclass.  A member counts as
used when such a module reads it as an attribute, outside the member's own
definition.

No module keeps state between calls through a ``global`` or ``nonlocal``
statement either: a result that a later call needs is passed to it
explicitly.
"""

import ast
from pathlib import Path

import qest

SRC = Path(qest.__file__).parent


def _modules():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"}


def _public_definitions(tree):
    return {node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}


def _references(tree):
    """Names and attributes read anywhere in the module, outside the definition they name."""
    found = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else (
                node.attr if isinstance(node, ast.Attribute) else None)
            if name is not None and name != own:
                found.add(name)
    return found


def uncalled_names(modules):
    referenced = set().union(*(_references(tree) for tree in modules.values()))
    return sorted(f"{stem}.{name}" for stem, tree in modules.items()
                  for name in _public_definitions(tree) - referenced)


def _is_dataclass(cls):
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def _public_members(cls):
    """Public methods and properties of a class, and the fields of a dataclass."""
    for node in cls.body:
        if isinstance(node, ast.FunctionDef):
            name = node.name
        elif isinstance(node, ast.AnnAssign) and _is_dataclass(cls):
            name = node.target.id
        else:
            continue
        if not name.startswith("_"):
            yield name


def _attribute_reads(tree):
    """Attributes read anywhere in the module, outside the method they name."""
    found = set()
    for stmt in tree.body:
        parts = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for part in parts:
            own = part.name if isinstance(part, ast.FunctionDef) else None
            found.update(node.attr for node in ast.walk(part)
                         if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                         and node.attr != own)
    return found


def unread_members(modules):
    read = set().union(*(_attribute_reads(tree) for tree in modules.values()))
    return sorted(f"{stem}.{cls.name}.{name}" for stem, tree in modules.items()
                  for cls in tree.body
                  if isinstance(cls, ast.ClassDef) and not cls.name.startswith("_")
                  for name in _public_members(cls) if name not in read)


def test_every_public_name_has_a_library_caller():
    assert uncalled_names(_modules()) == []


def test_scan_flags_a_name_only_its_own_body_uses():
    modules = {
        "a": ast.parse("def used():\n    return 1\n\n"
                       "def lonely(n):\n    '''used()'''\n    return lonely(n - 1)\n"),
        "b": ast.parse("from .a import lonely\n\nclass Thing:\n    pass\n\n"
                       "def caller():\n    return used() + Thing()\n"),
    }
    assert uncalled_names(modules) == ["a.lonely", "b.caller"]


def test_every_public_member_is_read_by_the_library():
    assert unread_members(_modules()) == []


def test_scan_flags_members_no_module_reads():
    modules = {
        "a": ast.parse(
            "from dataclasses import dataclass\n\n"
            "@dataclass(frozen=True)\nclass Point:\n    x: float\n    spare: float\n"
            "    _hidden: float\n\n"
            "    @property\n    def norm(self):\n        return abs(self.x)\n\n"
            "    def scaled(self, k):\n        return self.scaled(k - 1)\n\n"
            "    def __len__(self):\n        return 1\n\n"
            "@dataclass\nclass _Private:\n    unused: int\n\n"
            "class Plain:\n    label: str\n\n    def read(self):\n        return 'spare'\n"),
        "b": ast.parse("def caller(p, q):\n    q.read()\n    p.spare = 1\n    return p.norm\n"),
    }
    assert unread_members(modules) == ["a.Point.scaled", "a.Point.spare"]


def state_statements(modules):
    """Every ``global`` and ``nonlocal`` statement, as ``<module>:<line>``."""
    return sorted(f"{stem}:{node.lineno}" for stem, tree in modules.items()
                  for node in ast.walk(tree) if isinstance(node, (ast.Global, ast.Nonlocal)))


def test_no_module_has_a_global_or_nonlocal_statement():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "__init__" in modules and "control" in modules
    assert state_statements(modules) == []


def test_scan_flags_global_and_nonlocal_statements():
    modules = {
        "a": ast.parse("_memo = None\n\ndef f(x):\n    global _memo\n    _memo = x\n"),
        "b": ast.parse("def g():\n    n = 0\n\n    def h():\n        nonlocal n\n"
                       "        n += 1\n    return h\n"),
        "c": ast.parse('# global x\nx = 1\n\ndef f():\n    """global x"""\n    return x\n'),
    }
    assert state_statements(modules) == ["a:4", "b:5"]
