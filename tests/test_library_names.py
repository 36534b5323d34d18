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

Every parameter with a default is set by some caller in the library: a
defaulted parameter of a public function, of a public method or of a
public class's ``__init__``, and a dataclass field with a default, count as
set when such a module calls that name with an argument in its position or
with its keyword, outside the callee's own definition.  A call of a class
counts for its ``__init__`` or its fields.  ``cli.main``, the console entry
point, is exempt.

No module keeps state between calls through a ``global`` or ``nonlocal``
statement either: a result that a later call needs is passed to it
explicitly.

No module reads another module's private (``_name``) names, by import or as
an attribute of the imported module: what another module needs is public,
and so held to the rules above.
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


def _defaulted(params, skip):
    """(position, name) of each parameter with a default; keyword-only ones have no position."""
    positional = params.posonlyargs + params.args
    first = len(positional) - len(params.defaults)
    for i, arg in enumerate(positional[skip:], start=skip):
        if i >= first:
            yield i - skip, arg.arg
    for arg, default in zip(params.kwonlyargs, params.kw_defaults):
        if default is not None:
            yield None, arg.arg


def _defaulted_parameters(modules):
    """(label, callee name, position, keyword) of every defaulted parameter the rule covers."""
    for stem, tree in modules.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                if f"{stem}.{node.name}" != "cli.main":
                    for pos, name in _defaulted(node.args, 0):
                        yield f"{stem}.{node.name}.{name}", node.name, pos, name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield from _class_parameters(stem, node)


def _class_parameters(stem, cls):
    fields = [part for part in cls.body
              if isinstance(part, ast.AnnAssign) and _is_dataclass(cls)]
    for pos, field in enumerate(fields):
        if field.value is not None:
            yield f"{stem}.{cls.name}.{field.target.id}", cls.name, pos, field.target.id
    for part in cls.body:
        if not isinstance(part, ast.FunctionDef):
            continue
        if part.name == "__init__":
            callee = cls.name
        elif not part.name.startswith("_"):
            callee = part.name
        else:
            continue
        # a call passes no argument for self or cls
        for pos, name in _defaulted(part.args, 1):
            yield f"{stem}.{cls.name}.{part.name}.{name}", callee, pos, name


def _calls(tree):
    """Every call as (callee name, positional count, keywords), outside the callee's own
    definition; a ``*`` argument sets every position and a ``**`` argument every keyword."""
    found = []
    for stmt in tree.body:
        parts = stmt.body if isinstance(stmt, ast.ClassDef) else [stmt]
        for part in parts:
            own = part.name if isinstance(part, (ast.FunctionDef, ast.ClassDef)) else None
            for node in ast.walk(part):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                if name is None or name == own:
                    continue
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                found.append((name, float("inf") if starred else len(node.args), keywords))
    return found


def unset_parameters(modules):
    calls = [call for tree in modules.values() for call in _calls(tree)]
    return sorted(label for label, callee, pos, name in _defaulted_parameters(modules)
                  if not any(called == callee and (
                      (pos is not None and count > pos) or name in keywords or None in keywords)
                      for called, count, keywords in calls))


def test_every_defaulted_parameter_has_a_library_caller_that_sets_it():
    assert unset_parameters(_modules()) == []


def test_scan_flags_defaulted_parameters_no_caller_sets():
    modules = {
        "a": ast.parse(
            "from dataclasses import dataclass\n\n"
            "def run(n, step=1.0, *, cap=10, tol=1e-9, spare=0):\n"
            "    return run(n, 2.0, spare=1)\n\n"
            "def spread(x, y=0, z=0):\n    return x\n\n"
            "def packed(x, y=0):\n    return x\n\n"
            "def main(argv=None):\n    return 0\n\n"
            "def _private(x, y=0):\n    return x\n\n"
            "@dataclass(frozen=True)\nclass Config:\n    n: int\n    scale: float = 1.0\n"
            "    shift: float = 0.0\n    label: str = ''\n\n"
            "    def scaled(self, k=2.0, offset=0.0):\n        return self.scaled(k, 1.0)\n\n"
            "class Counter:\n    def __init__(self, start=0, stop=None):\n        self.n = start\n"),
        "b": ast.parse(
            "from .a import Config, Counter, run\n\n"
            "def caller(c, args, opts):\n"
            "    run(3, tol=1e-6)\n    spread(*args)\n    packed(1, **opts)\n"
            "    c.scaled(3.0)\n    Counter(stop=4)\n"
            "    return Config(1, 2.0, label='x')\n"),
        "cli": ast.parse("def main(argv=None):\n    return 0\n"),
    }
    assert unset_parameters(modules) == [
        "a.Config.scaled.offset", "a.Config.shift", "a.Counter.__init__.start", "a.main.argv",
        "a.run.cap", "a.run.spare", "a.run.step"]


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


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def private_reads(modules):
    """Every read of another ``qest`` module's private name, as ``<module>:<owner>.<name>``:
    imported from that module, or read as an attribute of the module imported whole."""
    found = set()
    for stem, tree in modules.items():
        imported = {}  # name bound -> qest module imported whole
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or not (
                    node.level or (node.module or "").split(".")[0] == "qest"):
                continue
            for alias in node.names:
                if node.module in (None, "qest"):
                    imported[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.add(f"{stem}:{node.module.split('.')[-1]}.{alias.name}")
        found.update(f"{stem}:{imported[node.value.id]}.{node.attr}" for node in ast.walk(tree)
                     if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                     and node.value.id in imported and _private(node.attr))
    return sorted(found)


def test_no_module_reads_another_modules_private_names():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "__init__" in modules and "harness" in modules
    assert private_reads(modules) == []


def test_scan_flags_private_names_read_across_modules():
    modules = {
        "a": ast.parse("from .b import _helper, public\nfrom . import c\nfrom .d import __all__\n"
                       "\ndef f(self):\n    return c._state + c.ok + self._own + _mine()\n"),
        "b": ast.parse("from qest import c as other\nfrom qest.c import _table\n"
                       "import numpy as np\n\ndef _helper():\n"
                       "    return other._state, np._core, other.__name__\n"),
    }
    assert private_reads(modules) == ["a:b._helper", "a:c._state", "b:c._state", "b:c._table"]
