"""The pickled layout of a serve-cache entry is pinned to its schema.

An entry stamped with another ``SCHEMA_VERSION`` is deleted at load, so
a layout change that bumps the schema needs no upgrade path in ``src/``.
This test makes the bump hard to forget: it pickles a solved ``figure1``
prefix and its plan payload as the service stores them, records for
every ``repro.*`` object the pickle reaches the attribute names of its
state, and compares them with ``tests/golden/cache_layout.json``, which
stores the schema number beside the layout.  After a deliberate layout
change, bump ``SCHEMA_VERSION`` and re-pin with ``pytest --update-golden``.
The tests after it change a copy of the entries (a field added, a field
dropped, a slotted state grown) and check that the pin names the class.
"""

from __future__ import annotations

import io
import json
import pickle

import pytest

from conftest import GOLDEN_DIR
from repro.serve import SCHEMA_VERSION, PlanService, ServeRequest


class LayoutPickler(pickle.Pickler):
    """Pickles to memory, recording each ``repro.*`` object's state keys
    (``vars()``, or the ``__getstate__`` of a slotted class) per class."""

    def __init__(self) -> None:
        super().__init__(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL)
        self.layout: dict[str, set[str]] = {}

    def reducer_override(self, obj):
        cls = type(obj)
        if isinstance(obj, type) or not cls.__module__.startswith("repro."):
            return NotImplemented
        reduced = obj.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
        state = reduced[2] if isinstance(reduced, tuple) and len(reduced) > 2 else None
        names = self.layout.setdefault(f"{cls.__module__}.{cls.__qualname__}", set())
        names.update(state_names(state))
        return reduced


def state_names(state) -> list[str]:
    """The attribute names of a pickled state; ``[i]`` for a position."""
    if state is None:
        return []
    if isinstance(state, dict):
        return list(state)
    if (
        isinstance(state, tuple)
        and len(state) == 2
        and isinstance(state[1], dict)
        and (state[0] is None or isinstance(state[0], dict))
    ):
        return [*(state[0] or {}), *state[1]]  # (__dict__, slots)
    return [f"[{i}]" for i in range(len(state))]


def cached_entries(source: str, tmp_path) -> list:
    """The plan and prefix entries a service stores for ``source``."""
    with PlanService(cache_dir=str(tmp_path)) as svc:
        assert svc.handle(ServeRequest("figure1", source, nprocs=4)).ok
    entries = sorted(tmp_path.glob("*/*.pkl"))
    assert [path.parent.name for path in entries] == ["plan", "prefix"]
    return [pickle.loads(path.read_bytes()) for path in entries]


def layout_of(entries) -> dict[str, list[str]]:
    pickler = LayoutPickler()
    for entry in entries:
        pickler.dump(entry)
    return {name: sorted(names) for name, names in sorted(pickler.layout.items())}


def changed_classes(layout, stored) -> list[str]:
    """The classes whose state names differ between two layouts."""
    return sorted(
        name
        for name in layout.keys() | stored.keys()
        if layout.get(name) != stored.get(name)
    )


def test_the_cached_layout_is_pinned_to_the_schema_version(
    golden, corpus_kernels, tmp_path
):
    layout = layout_of(cached_entries(corpus_kernels["figure1"], tmp_path))
    assert "repro.distrib.costmodel.CommProfile" in layout
    assert "repro.passes.core.PlanContext" in layout
    path = GOLDEN_DIR / "cache_layout.json"
    stored = json.loads(path.read_text()) if path.exists() else {"schema": None}
    if not golden.update and stored["schema"] == SCHEMA_VERSION:
        changed = changed_classes(layout, stored["layout"])
        if changed:
            pytest.fail(
                f"the pickled layout of {changed} changed under SCHEMA_VERSION "
                f"{SCHEMA_VERSION}: bump it, so that old entries are deleted "
                "at load, and re-pin with --update-golden"
            )
    golden.check("cache_layout", {"schema": SCHEMA_VERSION, "layout": layout})


# -- the pin catches a layout change ------------------------------------------


@pytest.fixture(scope="module")
def figure1_entries(corpus_kernels, tmp_path_factory) -> bytes:
    """``figure1``'s stored entries, pickled together; each test mutates
    its own copy."""
    entries = cached_entries(corpus_kernels["figure1"], tmp_path_factory.mktemp("c"))
    return pickle.dumps(entries, protocol=pickle.HIGHEST_PROTOCOL)


def instances(entries, qualname: str) -> list:
    """Every object of the named ``repro.*`` class the entries reach."""
    found = []

    class Finder(LayoutPickler):
        def reducer_override(self, obj):
            cls = type(obj)
            if f"{cls.__module__}.{cls.__qualname__}" == qualname:
                found.append(obj)
            return super().reducer_override(obj)

    finder = Finder()
    for entry in entries:
        finder.dump(entry)
    assert found, qualname
    return found


def stored_layout() -> dict[str, list[str]]:
    stored = json.loads((GOLDEN_DIR / "cache_layout.json").read_text())
    assert stored["schema"] == SCHEMA_VERSION
    return stored["layout"]


def ids(rows) -> list[str]:
    return [f"{qualname.rsplit('.', 1)[1]}.{field}" for qualname, field in rows]


#: The fields that schema 4 dropped: each is caught if it comes back
#: without a bump.
DROPPED_IN_4 = [
    ("repro.passes.align_passes.AlignOptions", "backend"),
    ("repro.passes.core.PlanContext", "_nonce"),
    ("repro.distrib.costmodel.CommProfile", "_front_tensors"),
    ("repro.distrib.costmodel.CommProfile", "_hops_cache"),
]


@pytest.mark.parametrize("qualname, field", DROPPED_IN_4, ids=ids(DROPPED_IN_4))
def test_a_field_added_without_a_bump_fails_the_pin(figure1_entries, qualname, field):
    entries = pickle.loads(figure1_entries)
    for obj in instances(entries, qualname):
        object.__setattr__(obj, field, None)  # AlignOptions is frozen
    assert changed_classes(layout_of(entries), stored_layout()) == [qualname]


#: Fields the layout keeps whose loss drops no class from the reach.
KEPT = [
    ("repro.distrib.costmodel.CommProfile", "window"),
    ("repro.passes.core.PlanContext", "trace"),
]


@pytest.mark.parametrize("qualname, field", KEPT, ids=ids(KEPT))
def test_a_field_dropped_without_a_bump_fails_the_pin(figure1_entries, qualname, field):
    entries = pickle.loads(figure1_entries)
    for obj in instances(entries, qualname):
        del vars(obj)[field]
    assert changed_classes(layout_of(entries), stored_layout()) == [qualname]


def test_a_slotted_state_change_without_a_bump_fails_the_pin(
    figure1_entries, monkeypatch
):
    """A slotted class is read through its ``__getstate__``: one more
    position in ``AffineForm``'s state is a layout change."""
    from repro.ir.affine import AffineForm

    entries = pickle.loads(figure1_entries)
    before = AffineForm.__getstate__
    monkeypatch.setattr(AffineForm, "__getstate__", lambda f: (*before(f), None))
    assert changed_classes(layout_of(entries), stored_layout()) == [
        "repro.ir.affine.AffineForm"
    ]
