"""The public import surface: every exported name resolves, removed names stay gone."""

import dataclasses
import importlib

import textcomp
from textcomp import ComponentSequence

MODULES = ("cli", "evaluate", "frames", "geometry", "ingest", "losses", "matching", "piou", "synth")

# Names that no stage calls and that were removed from the package.
REMOVED = {
    "geometry": ("Point2", "ComponentQuad", "polygon_area", "bbox", "point_in_polygon"),
    "matching": ("seq_match_cost",),
}


def test_every_exported_name_resolves():
    assert len(set(textcomp.__all__)) == len(textcomp.__all__)
    for name in textcomp.__all__:
        assert hasattr(textcomp, name), f"textcomp.{name}"
    for short in MODULES:
        module = importlib.import_module(f"textcomp.{short}")
        assert len(set(module.__all__)) == len(module.__all__)
        for name in module.__all__:
            assert hasattr(module, name), f"textcomp.{short}.{name}"


def test_package_reexports_module_objects():
    for short in MODULES:
        module = importlib.import_module(f"textcomp.{short}")
        for name in set(module.__all__) & set(textcomp.__all__):
            assert getattr(textcomp, name) is getattr(module, name)


def test_removed_names_are_not_exported():
    for short, names in REMOVED.items():
        module = importlib.import_module(f"textcomp.{short}")
        for name in names:
            assert name not in module.__all__
            assert not hasattr(module, name), f"textcomp.{short}.{name}"
            assert name not in textcomp.__all__
            assert not hasattr(textcomp, name), f"textcomp.{name}"


def test_component_sequence_has_two_fields():
    assert [f.name for f in dataclasses.fields(ComponentSequence)] == ["quads", "scores"]
