"""The package's public names."""

import ast
from functools import cached_property
from pathlib import Path

import subgamelab
from subgamelab import GameSpec


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from subgamelab import *", namespace)
    assert len(subgamelab.__all__) == len(set(subgamelab.__all__))
    assert set(subgamelab.__all__) <= namespace.keys()


ROOT = Path(__file__).resolve().parents[1]
# exported names kept without a caller, each with its reason
UNUSED_EXPORTS = {
    "oracle_weight": "ROADMAP direction 1 gives it a caller: oracle weights as a metric variant",
}


def _uses(path: Path) -> set[str]:
    """Names a module reads, attributes it takes and strings it holds.

    Uses inside a top-level ``def`` or ``class`` of the same name do not
    count. Strings count because ``perfbench/tracer.py`` binds spans by name.
    """
    found = set()
    for top in ast.parse(path.read_text(), str(path)).body:
        here = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                here.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                here.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                here.add(node.value)
        if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
            here.discard(top.name)
        found |= here
    return found


def _used_by_the_program() -> set[str]:
    files = [p for p in sorted((ROOT / "src" / "subgamelab").glob("*.py"))
             if p.name != "__init__.py"] + sorted((ROOT / "perfbench").glob("*.py"))
    return set().union(*(_uses(p) for p in files))


def test_every_exported_name_has_a_use_outside_its_definition():
    used = _used_by_the_program()
    unused = {name for name in subgamelab.__all__ if name not in used}
    assert unused == set(UNUSED_EXPORTS)


def test_every_game_property_has_a_reader():
    properties = {name for name, value in vars(GameSpec).items()
                  if isinstance(value, (property, cached_property)) and not name.startswith("_")}
    assert properties  # the scan sees the class's properties at all
    assert properties - _used_by_the_program() == set()
