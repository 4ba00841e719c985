"""The pickled layout of a serve-cache entry, and the plans it holds,
are pinned to its schema.

An entry stamped with another ``SCHEMA_VERSION`` is deleted at load, so
a layout change that bumps the schema needs no upgrade path in ``src/``.
These tests make the bump hard to forget.  The first pickles a solved
``figure1`` prefix and its plan payload as the service stores them,
records for every ``repro.*`` object the pickle reaches the attribute
names of its state, and compares them with the ``layout`` section of
``tests/golden/cache_layout.json``, which stores the schema number
beside it.  The second compares the SHA-256 of each of the 16 kernels'
plan payloads, pickled as the service stores them, with its
``payloads`` section: a change that moves a plan under the same schema
would leave a stored cache answering the old plan.  After a deliberate
change, bump ``SCHEMA_VERSION`` and re-pin with ``pytest
--update-golden``.  The tests after them change a copy of the entries
(a field added, a field dropped, a slotted state grown, a plan moved)
and check that the pin names the class or the kernel.
"""

from __future__ import annotations

import hashlib
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


def changed_keys(pinned, stored) -> list[str]:
    """The keys (classes, kernels) whose values differ between two pins."""
    return sorted(
        name
        for name in pinned.keys() | stored.keys()
        if pinned.get(name) != stored.get(name)
    )


def check_pinned(golden, section: str, pinned: dict, what: str) -> None:
    """Compare ``pinned`` with ``section`` of the golden file, pinned
    under the schema number it stores; ``--update-golden`` rewrites the
    section and the number."""
    path = GOLDEN_DIR / "cache_layout.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    if golden.update:
        stored.update({"schema": SCHEMA_VERSION, section: pinned})
        path.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
        return
    if stored.get("schema") != SCHEMA_VERSION:
        pytest.fail(
            f"{path} is pinned under schema {stored.get('schema')}, not "
            f"SCHEMA_VERSION {SCHEMA_VERSION}: re-pin with --update-golden"
        )
    changed = changed_keys(pinned, stored.get(section, {}))
    if changed:
        pytest.fail(
            f"{what} of {changed} changed under SCHEMA_VERSION {SCHEMA_VERSION}: "
            "bump SCHEMA_VERSION, so that old entries are deleted at load, "
            "and re-pin with --update-golden"
        )


def test_the_cached_layout_is_pinned_to_the_schema_version(
    golden, corpus_kernels, tmp_path
):
    layout = layout_of(cached_entries(corpus_kernels["figure1"], tmp_path))
    assert "repro.distrib.costmodel.CommProfile" in layout
    assert "repro.passes.core.PlanContext" in layout
    check_pinned(golden, "layout", layout, "the pickled layout")


@pytest.fixture(scope="module")
def kernel_payloads(corpus_kernels) -> dict[str, dict]:
    """Kernel name -> the plan payload a service stores for it on 16
    processors."""
    with PlanService() as svc:
        out = {}
        for name, source in corpus_kernels.items():
            response = svc.handle(ServeRequest(name, source, nprocs=16))
            assert response.ok and response.cached is None
            out[name] = response.plan
    return out


def payload_digests(payloads) -> dict[str, str]:
    return {
        name: hashlib.sha256(
            pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        ).hexdigest()
        for name, payload in payloads.items()
    }


def test_the_plan_payloads_are_pinned_to_the_schema_version(golden, kernel_payloads):
    assert len(kernel_payloads) == 16
    check_pinned(golden, "payloads", payload_digests(kernel_payloads), "the plan payload")


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


def stored_pin(section: str) -> dict:
    stored = json.loads((GOLDEN_DIR / "cache_layout.json").read_text())
    assert stored["schema"] == SCHEMA_VERSION
    return stored[section]


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
    assert changed_keys(layout_of(entries), stored_pin("layout")) == [qualname]


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
    assert changed_keys(layout_of(entries), stored_pin("layout")) == [qualname]


def test_a_slotted_state_change_without_a_bump_fails_the_pin(
    figure1_entries, monkeypatch
):
    """A slotted class is read through its ``__getstate__``: one more
    position in ``AffineForm``'s state is a layout change."""
    from repro.ir.affine import AffineForm

    entries = pickle.loads(figure1_entries)
    before = AffineForm.__getstate__
    monkeypatch.setattr(AffineForm, "__getstate__", lambda f: (*before(f), None))
    assert changed_keys(layout_of(entries), stored_pin("layout")) == [
        "repro.ir.affine.AffineForm"
    ]


def test_a_plan_moved_without_a_bump_fails_the_pin(kernel_payloads):
    moved = {name: dict(payload) for name, payload in kernel_payloads.items()}
    moved["figure1"]["total_cost"] += "1"
    assert changed_keys(payload_digests(moved), stored_pin("payloads")) == ["figure1"]
