"""Every public module-level function, class and constant of the package
has a reference in the package outside its own definition, and every
public dataclass field is read somewhere in the package.

A reference is a Name, an Attribute or an imported name; the re-exports
in ``__init__.py`` do not count, so a definition only tests call fails.
A field is read by an Attribute load of its name.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "qboson"

# public definitions kept without a caller in the package, with the reason
ALLOWED: dict = {}


# public dataclass fields kept without a reader in the package, with the
# reason
ALLOWED_FIELDS = {
    "TrajectoryResult.hist": "ROADMAP item 7 reports it, and tests check the "
                             "kernel's stationary marginal through it",
}


def _referenced_names(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            for alias in sub.names:
                yield alias.name


def _scan():
    """Public definitions as (module, name), and references as
    (module, enclosing top-level definition or None, name)."""
    definitions, references = [], []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                owner = stmt.name
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                # a constant: one name bound at module level
                targets = (stmt.targets if isinstance(stmt, ast.Assign)
                           else [stmt.target])
                if len(targets) == 1 and isinstance(targets[0], ast.Name):
                    owner = targets[0].id
            if owner is not None and not owner.startswith("_"):
                definitions.append((module, owner))
            references += [(module, owner, name)
                           for name in _referenced_names(stmt)]
    return definitions, references


def test_every_public_definition_has_a_caller():
    definitions, references = _scan()
    uncalled = sorted(
        f"{module}.{name}" for module, name in definitions
        if name not in ALLOWED and not any(
            ref == name and (ref_module, owner) != (module, name)
            for ref_module, owner, ref in references))
    assert uncalled == []
    assert set(ALLOWED) <= {name for _, name in definitions}


def _is_dataclass(cls):
    """Decorated by ``@dataclass`` or ``@dataclass(...)``."""
    return any(isinstance(name, ast.Name) and name.id == "dataclass"
               for name in (getattr(d, "func", d)
                            for d in cls.decorator_list))


def test_every_public_dataclass_field_is_read():
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
                fields += [f"{cls.name}.{stmt.target.id}" for stmt in cls.body
                           if isinstance(stmt, ast.AnnAssign)
                           and not stmt.target.id.startswith("_")]
        read |= {sub.attr for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute)
                 and isinstance(sub.ctx, ast.Load)}
    unread = sorted(f for f in fields if f not in ALLOWED_FIELDS
                    and f.split(".")[1] not in read)
    assert unread == []
    assert set(ALLOWED_FIELDS) <= set(fields)
