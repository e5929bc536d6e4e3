"""Code that only tests reach becomes a test oracle, is wired into an output,
or is deleted: every top-level function and class in the package must be
named by package code other than its own body and the ``__init__``
re-exports, unless it is an entry point below, and every dataclass field
must be read by package code other than its class's ``__post_init__``,
unless it is listed below."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "wavesel"

#: (module, name) of the entry points that only callers outside the package
#: reach. The PAC-Bayes evaluators stay here until a report command reads
#: them.
ENTRY_POINTS = {
    ("cli", "main"),
    ("harness", "load_config"),
    ("harness", "serialize_config"),
    ("harness", "run_experiment"),
    ("harness", "aggregate_directory"),
    ("metrics", "pac_bayes_single"),
    ("metrics", "pac_bayes_meta"),
}

#: (class, field) of the dataclass fields no package code reads after
#: construction, with the reason each is kept.
UNREAD_FIELDS = {
    # the constructor's input: __post_init__ checks it and derives the
    # running row sums that every step reads
    ("StateProcess", "transition"),
    # the episode's latent parameter draw; test_fstc.py checks its law
    ("FstcInstance", "theta"),
}


def _definitions_and_references():
    """The package's top-level (module, name) definitions, and how often
    each name is read as a variable or an attribute outside the body that
    defines it and outside ``__init__``."""
    definitions, references = set(), Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                definitions.add((path.stem, owner))
            if path.stem == "__init__":
                continue
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    references[name] += 1
    return definitions, references


def test_every_definition_has_a_caller_in_the_package():
    definitions, references = _definitions_and_references()
    unreached = sorted(
        (module, name) for module, name in definitions - ENTRY_POINTS
        if not references[name]
    )
    assert not unreached, (
        f"only tests reach {unreached}: move them to tests/oracles.py, "
        "wire them into an output, or delete them"
    )


def test_every_entry_point_exists():
    definitions, _ = _definitions_and_references()
    assert ENTRY_POINTS <= definitions


def _attribute_reads(tree) -> Counter:
    return Counter(
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    )


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Name) and d.id == "dataclass"
        or isinstance(d, ast.Call) and getattr(d.func, "id", None) == "dataclass"
        for d in cls.decorator_list
    )


def _unread_fields():
    """(class, field) of every dataclass field that package code never reads
    as an attribute outside its class's ``__post_init__``."""
    trees = [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]
    reads = sum(map(_attribute_reads, trees), Counter())
    unread = set()
    for tree in trees:
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            post_init = Counter()
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                    post_init = _attribute_reads(item)
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    name = item.target.id
                    if reads[name] == post_init[name]:
                        unread.add((cls.name, name))
    return unread


def test_every_dataclass_field_is_read_in_the_package():
    unread = sorted(_unread_fields() - UNREAD_FIELDS)
    assert not unread, (
        f"no package code reads {unread} after construction: read them, "
        "or delete them"
    )


def test_every_listed_unread_field_is_still_unread():
    assert UNREAD_FIELDS <= _unread_fields()
