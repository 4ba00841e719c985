"""Format oracles for the observability renderers, and small readers.

``check_exposition`` validates Prometheus text format 0.0.4 from
scratch (no Prometheus client library is needed): line grammar,
name/label syntax, float parsing, one ``TYPE`` per family declared
before its samples, counter non-negativity, and histogram-family
invariants (monotone cumulative buckets, mandatory
``+Inf``/``_sum``/``_count``, ``+Inf == _count``).
``validate_chrome_trace`` checks the subset of the Chrome trace-event
format ``repro.obs.export`` emits and Perfetto requires to load a file.
The renderer tests compare the renderers' output against these.
"""

from __future__ import annotations

import json
import math
import re
import socket
from typing import Optional

from repro.obs.metrics import Histogram

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")
_TYPES = {"counter", "gauge", "histogram", "summary", "untyped"}
_KNOWN_PHASES = {"X", "B", "E", "I", "i", "M", "C"}


def _parse_value(text: str) -> Optional[float]:
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    if text == "NaN":
        return math.nan
    try:
        return float(text)
    except ValueError:
        return None


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?\s*$"
)
_LABEL_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*'
    r'"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _family(sample_name: str) -> str:
    """The metric family a sample belongs to (histogram samples carry
    ``_bucket``/``_sum``/``_count`` suffixes on the family name)."""
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            return sample_name[: -len(suffix)]
    return sample_name


def _parse_labels(text: str) -> Optional[dict]:
    labels: dict[str, str] = {}
    pos = 0
    while pos < len(text):
        m = _LABEL_RE.match(text, pos)
        if m is None:
            return None
        labels[m.group("name")] = m.group("value")
        pos = m.end()
    return labels


def check_exposition(text: str) -> list[str]:
    """Every format violation found; empty list = valid exposition."""
    errors: list[str] = []
    if not text:
        return ["empty exposition"]
    if not text.endswith("\n"):
        errors.append("exposition must end with a newline")
    types: dict[str, str] = {}
    sampled_families: set[str] = set()
    # histogram family accounting: family -> list of (le, value), sums, counts
    hist_buckets: dict[str, list[tuple[float, float]]] = {}
    hist_sum: dict[str, float] = {}
    hist_count: dict[str, float] = {}
    counter_samples: dict[str, float] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line:
            continue
        where = f"line {lineno}"
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) < 2 or parts[1] not in ("TYPE", "HELP"):
                continue  # free-form comment: legal
            if parts[1] == "HELP":
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    errors.append(f"{where}: malformed HELP line")
                continue
            if len(parts) != 4:
                errors.append(f"{where}: malformed TYPE line")
                continue
            _, _, fam, kind = parts
            if not _NAME_RE.match(fam):
                errors.append(f"{where}: bad metric name {fam!r} in TYPE")
                continue
            if kind not in _TYPES:
                errors.append(f"{where}: unknown metric type {kind!r}")
                continue
            if fam in types:
                errors.append(f"{where}: duplicate TYPE for {fam}")
                continue
            if fam in sampled_families:
                errors.append(
                    f"{where}: TYPE for {fam} after its samples"
                )
            types[fam] = kind
            continue
        m = _SAMPLE_RE.match(line)
        if m is None:
            errors.append(f"{where}: unparseable sample line {line!r}")
            continue
        name = m.group("name")
        labels_text = m.group("labels")
        labels: dict[str, str] = {}
        if labels_text is not None:
            parsed = _parse_labels(labels_text)
            if parsed is None:
                errors.append(f"{where}: malformed labels {{{labels_text}}}")
                continue
            labels = parsed
            for ln in labels:
                if not _LABEL_NAME_RE.match(ln):
                    errors.append(f"{where}: bad label name {ln!r}")
        value = _parse_value(m.group("value"))
        if value is None:
            errors.append(f"{where}: bad sample value {m.group('value')!r}")
            continue
        fam = _family(name)
        declared = types.get(fam) or types.get(name)
        sampled_families.add(fam)
        sampled_families.add(name)
        if declared == "counter":
            if value < 0:
                errors.append(f"{where}: counter {name} is negative")
            counter_samples[name] = value
        if declared == "histogram":
            if name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    errors.append(f"{where}: {name} sample lacks an le label")
                    continue
                bound = _parse_value(le)
                if bound is None:
                    errors.append(f"{where}: bad le bound {le!r}")
                    continue
                hist_buckets.setdefault(fam, []).append((bound, value))
            elif name.endswith("_sum"):
                hist_sum[fam] = value
            elif name.endswith("_count"):
                hist_count[fam] = value
            else:
                errors.append(
                    f"{where}: histogram family {fam} has a bare sample"
                )
    # Histogram family invariants.
    for fam, kind in types.items():
        if kind != "histogram":
            continue
        buckets = hist_buckets.get(fam)
        if fam not in sampled_families and not buckets:
            continue  # declared but never sampled: tolerated
        if not buckets:
            errors.append(f"{fam}: histogram without _bucket samples")
            continue
        bounds = [b for b, _ in buckets]
        if bounds != sorted(bounds):
            errors.append(f"{fam}: bucket le bounds not sorted")
        counts = [v for _, v in buckets]
        if any(b > a for a, b in zip(counts[1:], counts)):
            errors.append(f"{fam}: bucket counts not cumulative")
        if not any(b == math.inf for b in bounds):
            errors.append(f"{fam}: missing le=\"+Inf\" bucket")
        if fam not in hist_sum:
            errors.append(f"{fam}: missing _sum sample")
        if fam not in hist_count:
            errors.append(f"{fam}: missing _count sample")
        if fam in hist_count and any(b == math.inf for b in bounds):
            inf_count = [v for b, v in buckets if b == math.inf][-1]
            if inf_count != hist_count[fam]:
                errors.append(
                    f"{fam}: le=\"+Inf\" bucket ({inf_count:g}) != _count "
                    f"({hist_count[fam]:g})"
                )
    return errors


def validate_chrome_trace(obj: object) -> list[str]:
    """Every schema violation found in a parsed trace; empty = valid."""
    errors: list[str] = []
    if isinstance(obj, list):
        events = obj  # the array form is legal Chrome trace JSON too
    elif isinstance(obj, dict):
        events = obj.get("traceEvents")
        if not isinstance(events, list):
            return ["top-level object lacks a 'traceEvents' list"]
    else:
        return [f"trace must be an object or array, not {type(obj).__name__}"]
    if not events:
        errors.append("traceEvents is empty")
        return errors
    saw_complete = False
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if not isinstance(ph, str) or ph not in _KNOWN_PHASES:
            errors.append(f"{where}: bad phase {ph!r}")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            errors.append(f"{where}: missing/empty 'name'")
        for field in ("pid", "tid"):
            if not isinstance(ev.get(field), int):
                errors.append(f"{where}: '{field}' must be an int")
        if "args" in ev and not isinstance(ev["args"], dict):
            errors.append(f"{where}: 'args' must be an object")
        if ph == "M":
            continue  # metadata events carry no timestamps
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: 'ts' must be a non-negative number")
        if ph == "X":
            saw_complete = True
            dur = ev.get("dur")
            if (
                not isinstance(dur, (int, float))
                or isinstance(dur, bool)
                or dur < 0
            ):
                errors.append(f"{where}: 'dur' must be a non-negative number")
    if not saw_complete:
        errors.append("no complete ('X') duration events in trace")
    return errors


def check_file(path: str) -> list[str]:
    try:
        with open(path) as f:
            obj = json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"{path}: {exc}"]
    return validate_chrome_trace(obj)


def scrape(host: str, port: int, timeout: float = 5.0) -> str:
    """Fetch one exposition from a serve daemon's ``/metrics`` line mode."""
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(b"/metrics\n")
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8")


def by_program(recorder) -> dict[str, list]:
    """A merged trace's root spans grouped by their ``program`` tag."""
    out: dict[str, list] = {}
    for root in recorder.roots:
        out.setdefault(str(root.tags.get("program", "")), []).append(root)
    return out


def bucket_histogram(values) -> Histogram:
    """A histogram of ``values`` that knows their extremes only at bucket
    resolution: ``min``/``max`` are the lower edge of the lowest occupied
    bucket (0 with a zero) and the upper edge of the highest.  That is
    all a difference of two cumulative snapshots can know, so this is
    the reference such a difference reads equal to."""
    h = Histogram("reference")
    for v in values:
        h.observe(v)
    if h.count:
        base = 2.0 ** 0.25
        h.min = 0.0 if h.zeros else base ** (min(h.buckets) - 1)
        h.max = base ** max(h.buckets) if h.buckets else 0.0
    return h
