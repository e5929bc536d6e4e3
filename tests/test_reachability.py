"""Code that only tests reach becomes a test oracle, is wired into an output,
or is deleted: every top-level function and class in the package must be
named by package code other than its own body and the ``__init__``
re-exports, unless it is an entry point below."""

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
