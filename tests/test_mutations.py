"""Mutation grids over the catalog reader: every one-field change is caught.

Each grid changes one node of a JSON document at a time: every object
value and the first 3 items of every list, containers included, is set to
each of null, true, "x", 1.5, [] and {}, and every object key is dropped.
A catalog mutation must end in a SchemaError naming the mutated file, in
FAIL rows, or in PASS for a change listed here: one that leaves the value
as it was or as its default gives it, drops an optional record, or renames
a configuration. The catalog grid runs in memory: the files are read once
and `read_json` hands the loaders the mutated copy.
"""
from __future__ import annotations

import collections
import copy
import json

import pytest

import dpdelta.catalog
import dpdelta.config
from dpdelta import SchemaError, catalog_root, load_case, verify_case

VALUES = (None, True, "x", 1.5, [], {})
DROP = object()


def _paths(doc, path=()):
    """Every node below the root; only the first 3 items of a list."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc[:3])
    else:
        return
    for key, value in items:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _node(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _mutations(doc):
    """(path, value) pairs; the value DROP deletes an object key."""
    for path in _paths(doc):
        yield from ((path, value) for value in VALUES)
        if isinstance(_node(doc, path[:-1]), dict):
            yield path, DROP


def _mutated(doc, path, value):
    doc = copy.deepcopy(doc)
    parent = _node(doc, path[:-1])
    if value is DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _label(path, value) -> tuple[str, str]:
    """("points[2].incidences", "{}"): the field path and the new value."""
    text = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
    return text.lstrip("."), "drop" if value is DROP else json.dumps(value)


# Mutations after which the case still verifies.
PASSING = {
    "A2-nodal": {
        # the value it holds, or the default an absent field gets
        ("config_base.json", "smooth_surface", "true"),
        ("config_base.json", "discrepancy", "{}"),
        ("config_base.json", "discrepancy", "drop"),
        ("config_base.json", "points[0].different", "drop"),
        ("config_base.json", "points[1].different", "drop"),
        ("config_base.json", "points[2].incidences", "{}"),
        ("config_base.json", "points[2].incidences", "drop"),
        ("config_base.json", "points[2].different", "drop"),
        ("config_blowup.json", "smooth_surface", "true"),
        ("config_blowup.json", "points[0].different", "drop"),
        ("config_blowup.json", "points[1].different", "drop"),
        ("config_blowup.json", "points[2].incidences", "{}"),
        ("config_blowup.json", "points[2].incidences", "drop"),
        ("config_blowup.json", "points[2].different", "drop"),
        # a configuration no blowup names may take any name
        ("config_base.json", "name", '"x"'),
        # optional records dropped
        ("expected.json", "configs[1].blowup", "drop"),
        ("expected.json", "flags[0].points", "[]"),
        ("expected.json", "flags[0].points", "drop"),
        ("expected.json", "flags[0].chambers", "drop"),
        ("expected.json", "flags[1].points", "[]"),
        ("expected.json", "flags[1].points", "drop"),
        ("expected.json", "flags[1].chambers", "drop"),
        ("expected.json", "class_bounds", "[]"),
        ("expected.json", "class_bounds", "drop"),
        ("expected.json", "class_bounds[0].covers", "[]"),
        ("expected.json", "class_bounds[0].covers", "drop"),
    },
    "A1-cuspidal": {
        # the value it holds, or the default an absent field gets
        ("config_base.json", "points[0].different", "drop"),
        ("config_base.json", "points[1].incidences", "{}"),
        ("config_base.json", "points[1].incidences", "drop"),
        ("config_base.json", "points[2].incidences", "{}"),
        ("config_base.json", "points[2].incidences", "drop"),
        ("expected.json", "flags[0].chambers.list[0].support", "[]"),
        ("expected.json", "flags[0].chambers.list[0].n_coeffs", "{}"),
        # a configuration no blowup names may take any name
        ("config_base.json", "name", '"x"'),
        # optional records dropped
        ("expected.json", "flags[0].points", "[]"),
        ("expected.json", "flags[0].points", "drop"),
        ("expected.json", "flags[0].chambers", "drop"),
    },
}


@pytest.mark.parametrize(
    "case, size", [("A2-nodal", 1588), ("A1-cuspidal", 590)], ids=["A2-nodal", "A1-cuspidal"]
)
def test_every_catalog_mutation_is_caught(case, size, monkeypatch):
    """Covers blowups, stored chambers, class bounds, discrepancies and orbifold data."""
    paths = sorted((catalog_root() / case).glob("*.json"))
    files = {path: json.loads(path.read_text(encoding="utf-8")) for path in paths}
    reading = dict(files)
    monkeypatch.setattr(dpdelta.catalog, "read_json", reading.__getitem__)
    monkeypatch.setattr(dpdelta.config, "read_json", reading.__getitem__)
    assert verify_case(load_case(case)).passed

    outcomes = collections.Counter()
    passing, unnamed = set(), []
    for path, doc in files.items():
        for where, value in _mutations(doc):
            reading[path] = _mutated(doc, where, value)
            try:
                passed = verify_case(load_case(case)).passed
            except SchemaError as exc:
                outcomes["SchemaError"] += 1
                if str(path) not in str(exc):
                    unnamed.append((path.name, *_label(where, value), str(exc)))
                continue
            outcomes["PASS" if passed else "FAIL"] += 1
            if passed:
                passing.add((path.name, *_label(where, value)))
        reading[path] = doc
    assert sum(outcomes.values()) == size, outcomes
    assert unnamed == []
    assert passing == PASSING[case]
