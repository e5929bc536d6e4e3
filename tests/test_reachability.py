"""Code that only tests reach becomes a test oracle, is wired into an output,
or is deleted: every top-level function and class in the package must be
named by package code other than its own body and the ``__init__``
re-exports, unless it is an entry point below, and every dataclass field
must be read by package code other than its class's ``__post_init__``,
unless it is listed below. No dataclass of the package but the config
declares a field named after a config key unless it is listed below: the
config is the one holder of its values. No module of the package or its
tests imports a name it never uses."""

from __future__ import annotations

import ast
from collections import Counter
from dataclasses import fields
from pathlib import Path

from wavesel.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wavesel"
TESTS = ROOT / "tests"

#: (module, name) of the entry points that only callers outside the package
#: reach. The PAC-Bayes evaluators stay here until a report command reads
#: them. ``harness.run`` is here because the benchmark's worker calls it,
#: one replicate at a time, while the package runs seed blocks. The per-CPI
#: steps ``run_track`` inlines are here because bench/tracing.py wraps them
#: by name until ROADMAP item 1 re-cuts the spans.
ENTRY_POINTS = {
    ("bandit", "agent_contexts"),
    ("bandit", "pick_argmax"),
    ("gaussmath", "sample_gaussian"),
    ("cli", "main"),
    ("harness", "load_config"),
    ("harness", "serialize_config"),
    ("harness", "run"),
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

#: (class, field) of the dataclass fields, outside ``ExperimentConfig``,
#: named after a config key, with the reason each is kept.
CONFIG_NAMED_FIELDS = {
    # the belief carries the hierarchy's two variances, under their config
    # names, because the benchmark's tracer calls meta_update(mp, data) with
    # exactly those two arguments
    ("MetaPosterior", "sigma0_sq"),
    ("MetaPosterior", "sigma_sq"),
    # the episode's theta-scaled noise floor, drawn per track, not the
    # config's base value
    ("FstcInstance", "noise_var"),
    # the observation kernel of the chain, kept with the drawn transition
    # table it reads, so the scene walk and the tests step one object
    ("StateProcess", "obs_flip_prob"),
    # the drawn table's state count, which every step reads
    ("StateProcess", "n_states"),
    # a PAC-Bayes bound's per-task sample count, not the config's track count
    ("BoundInputs", "m"),
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


def _package_trees() -> list:
    return [
        ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.glob("*.py")) if path.stem != "__init__"
    ]


def _set_in_post_init(item) -> list:
    """Names a ``__post_init__`` sets with ``object.__setattr__(self, "name",
    ...)``, as a frozen dataclass sets a derived attribute."""
    if not (isinstance(item, ast.FunctionDef) and item.name == "__post_init__"):
        return []
    return [
        node.args[1].value for node in ast.walk(item)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__" and len(node.args) == 3
        and isinstance(node.args[1], ast.Constant)
    ]


def _declared_fields(tree):
    """(class node, field name) of every field a module's dataclasses
    declare, and of every other attribute their ``__post_init__`` sets."""
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls):
            names = []
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.append(item.target.id)
                names.extend(_set_in_post_init(item))
            for name in dict.fromkeys(names):
                yield cls, name


def _unread_fields():
    """(class, field) of every dataclass field that package code never reads
    as an attribute outside its class's ``__post_init__``."""
    trees = _package_trees()
    reads = sum(map(_attribute_reads, trees), Counter())
    unread = set()
    for tree in trees:
        for cls, name in _declared_fields(tree):
            post_init = Counter()
            for item in cls.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__post_init__":
                    post_init = _attribute_reads(item)
            if reads[name] == post_init[name]:
                unread.add((cls.name, name))
    return unread


def test_field_scan_sees_attributes_a_frozen_post_init_sets():
    source = (
        "@dataclass(frozen=True)\n"
        "class A:\n"
        "    x: int\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'x', int(self.x))\n"
        "        object.__setattr__(self, 'derived', 2 * self.x)\n"
        "        for key in ('y',):\n"
        "            object.__setattr__(self, key, 0)\n"
        "    def other(self):\n"
        "        object.__setattr__(self, 'late', 1)\n"
        "class B:\n"
        "    def __post_init__(self):\n"
        "        object.__setattr__(self, 'plain', 1)\n"
    )
    found = [(cls.name, name) for cls, name in _declared_fields(ast.parse(source))]
    assert found == [("A", "x"), ("A", "derived")]


def test_every_dataclass_field_is_read_in_the_package():
    unread = sorted(_unread_fields() - UNREAD_FIELDS)
    assert not unread, (
        f"no package code reads {unread} after construction: read them, "
        "or delete them"
    )


def test_every_listed_unread_field_is_still_unread():
    assert UNREAD_FIELDS <= _unread_fields()


def _all_fields() -> set:
    return {
        (cls.name, name) for tree in _package_trees()
        for cls, name in _declared_fields(tree)
    }


def test_no_dataclass_holds_a_config_value_again():
    keys = {f.name for f in fields(ExperimentConfig)}
    copies = sorted(
        (cls, name) for cls, name in _all_fields() - CONFIG_NAMED_FIELDS
        if cls != "ExperimentConfig" and name in keys
    )
    assert not copies, (
        f"{copies} hold config keys: read the value from the config where "
        "it is used, or list the field with the reason it is kept"
    )


def test_every_listed_config_named_field_still_exists():
    assert CONFIG_NAMED_FIELDS <= _all_fields()


def _unused_imports(source: str) -> list:
    """(line, name) of every name a module's imports bind and the module
    never reads. ``__future__`` imports and the names the module lists in
    ``__all__``, such as the ``__init__`` re-exports, are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_unused_import_scan_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "import scipy.linalg\n"
        "from math import pi, tau\n"
        "from .errors import Kept\n"
        "__all__ = ['Kept']\n"
        "def f():\n"
        "    return np.zeros(1) * pi + scipy.linalg.norm(1)\n"
    )
    assert _unused_imports(source) == [(2, "os"), (4, "tau")]


def test_no_module_imports_a_name_it_never_uses():
    unused = [
        f"{path.relative_to(ROOT)}:{line} {name}"
        for path in sorted([*SRC.glob("*.py"), *TESTS.glob("*.py")])
        for line, name in _unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert not unused, f"imported and never used: {unused}"
