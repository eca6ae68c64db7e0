"""Core data types for tag cloud layout.

A cloud is a list of weighted tags with pixel box dimensions, a target
line width, and an inter-tag space width.  Layout results are either a
list of lines (inline layout) or absolute pixel placements (2-D
placement).  Relations between tags are plain weighted graphs over tag
indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class CloudError(Exception):
    """Base class for layout engine errors."""


class InvalidInputError(CloudError, ValueError):
    """Input data or arguments violate an operation's contract."""


class InfeasibleLineError(InvalidInputError):
    """A line holding two or more tags exceeds the target width."""


class InternalError(CloudError, RuntimeError):
    """An internal invariant broke; indicates a bug, not bad input."""


def raise_problems(problems: list[str]) -> None:
    """Raise one InvalidInputError listing every problem, if there are any."""

    if problems:
        raise InvalidInputError("; ".join(problems))


def _clip(text: str) -> str:
    """How messages quote a value: cut to 40 characters, then ``…``."""

    return text if len(text) <= 40 else text[:40] + "…"


def show_value(value) -> str:
    """How messages quote a caller's value: its ``str``, cut like a
    label.  An int past Python's digit limit for ``str``, which would
    make ``str`` raise, shows its sign and bit length instead."""

    try:
        return _clip(str(value))
    except ValueError:
        return f"{'-' if value < 0 else ''}<{value.bit_length()}-bit int>"


def _edge(a, b) -> str:
    return f"edge ({show_value(a)},{show_value(b)})"


# Font scale: weight v in 0..9 renders at (8 + 4*v) pt.
WEIGHT_LEVELS = 10
MIN_FONT_PT = 8
FONT_STEP_PT = 4

DEFAULT_SPACE_WIDTH = 4
DEFAULT_TARGET_WIDTH = 550

# Largest accepted width or height in pixels.  Widths and heights are
# integers, so tag areas are integers of at most 2**48 px^2, and split
# arithmetic on them is exact.
MAX_PIXELS = 1 << 24


def font_size_pt(weight: int) -> int:
    return MIN_FONT_PT + FONT_STEP_PT * weight


@dataclass(frozen=True)
class TagBox:
    """One tag: display label, weight level 0..9, and its pixel box."""

    label: str
    weight: int
    width: int
    height: int

    def area(self) -> int:
        return self.width * self.height


@dataclass(frozen=True)
class Cloud:
    """Tags to lay out, the target line width and the inter-tag space.

    A Cloud checks itself when it is built: one that breaks any
    constraint raises InvalidInputError listing every problem (see
    :func:`validate_cloud`), so every Cloud a layout gets is valid.
    """

    tags: tuple[TagBox, ...]
    target_width: int
    space_width: int = DEFAULT_SPACE_WIDTH

    def __post_init__(self):
        raise_problems(validate_cloud(self))


# Largest accepted edge strength, and largest accepted sum of all of
# them.  Min-cut adds strengths into cut weights and pulls, and scales
# fractional ones by 1000 to integer gains; under this bound all of
# those stay finite.
MAX_TOTAL_STRENGTH = 1e300


def _check_edge(a, b, s) -> None:
    """Raise InvalidInputError for the first rule a raw edge breaks, in
    a fixed order: endpoint types, self-loop, strength type, strength
    range, negative endpoint."""

    if type(a) is not int or type(b) is not int:  # bool is no endpoint
        raise InvalidInputError(f"{_edge(a, b)}: endpoints must be integers")
    if a == b:
        raise InvalidInputError(f"self-loop on tag {show_value(a)}")
    if not isinstance(s, (int, float)) or isinstance(s, bool):
        raise InvalidInputError(f"{_edge(a, b)}: strength must be a number")
    if not 0 < s <= MAX_TOTAL_STRENGTH:  # also false for NaN
        raise InvalidInputError(
            f"{_edge(a, b)}: strength must be positive and finite"
            f" (at most {MAX_TOTAL_STRENGTH:g}), got {show_value(s)}")
    if a < 0 or b < 0:
        raise InvalidInputError(f"{_edge(a, b)}: negative tag index")


@dataclass(frozen=True)
class RelationGraph:
    """Weighted undirected relations over tag indices.

    A graph checks and normalizes itself when it is built, from any
    iterable of raw (a, b, strength) edges: it raises InvalidInputError
    on the first bad edge, then stores the edges as (i, j, strength)
    with i < j, one entry per unordered pair in sorted order, parallel
    contributions merged by summing strengths.  Input whose pairs
    already come strictly increasing with i < j, as a graph's own
    edges, its JSON and the co-occurrence counts do, is stored in its
    order without merging or sorting.  The total strength is checked on
    those stored edges, so rebuilding a graph from its own edges, or
    from its JSON, accepts it again.  Whether the tag indices fit a
    cloud is :meth:`check_fits`'s job.
    """

    edges: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        raw = list(self.edges)
        stored = []
        ordered = True  # pairs strictly increasing, each with a < b
        last_a = last_b = -1
        for a, b, s in raw:
            # every rule of _check_edge in one test, which a valid edge passes
            if not (type(a) is int and type(b) is int and 0 <= a != b >= 0
                    and isinstance(s, (int, float)) and type(s) is not bool
                    and 0 < s <= MAX_TOTAL_STRENGTH):
                _check_edge(a, b, s)
            if a > b or a < last_a or (a == last_a and b <= last_b):
                ordered = False
            last_a, last_b = a, b
            stored.append((a, b, 0 + s))
        if ordered:
            edges = tuple(stored)
        else:
            merged: dict[tuple[int, int], float] = {}
            for a, b, s in raw:
                key = (a, b) if a < b else (b, a)
                merged[key] = merged.get(key, 0) + s
            edges = tuple((i, j, merged[i, j]) for i, j in sorted(merged))
        total = 0.0
        for i, j, s in edges:
            total += s
            if total > MAX_TOTAL_STRENGTH:
                raise InvalidInputError(
                    f"{_edge(i, j)}: total strength exceeds {MAX_TOTAL_STRENGTH:g}")
        object.__setattr__(self, "edges", edges)
        # The largest endpoint, off the fields so that eq, hash and
        # dataclasses.replace see only the edges.
        object.__setattr__(self, "_top", max((j for _, j, _ in edges), default=-1))

    def check_fits(self, n_tags: int) -> None:
        """Raise InvalidInputError naming every edge whose tag index is
        not below ``n_tags``; reads no edge when the graph fits."""

        if self._top >= n_tags:
            raise_problems([f"{_edge(i, j)}: tag index out of range 0..{n_tags - 1}"
                            for i, j, _ in self.edges if j >= n_tags])

    def adjacency(self) -> dict[int, list[tuple[int, float]]]:
        """Each tag's neighbors, in the order of the sorted (i, j) edges.

        Built on first use and shared by every later call on this graph;
        callers must not modify it.
        """

        return self._adjacency

    @cached_property
    def _adjacency(self) -> dict[int, list[tuple[int, float]]]:
        adj: dict[int, list[tuple[int, float]]] = {}
        for i, j, s in self.edges:
            adj.setdefault(i, []).append((j, s))
            adj.setdefault(j, []).append((i, s))
        return adj


@dataclass(frozen=True)
class LineLayout:
    """An inline layout: lines of original tag indices, in display order."""

    lines: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class Placement:
    tag: int
    x: int
    y: int
    width: int
    height: int


@dataclass(frozen=True)
class PlacedCloud:
    """Absolute placements (origin at the top-left, y grows downward)."""

    placements: tuple[Placement, ...]
    bbox: tuple[int, int]

    def by_tag(self) -> dict[int, Placement]:
        return {p.tag: p for p in self.placements}


def estimate_box(label: str, weight: int) -> TagBox:
    """Estimate a pixel box for a label without touching a renderer.

    Point size is 8 + 4*weight; the box is 1.25 em tall and 0.55 em per
    character wide, converted to pixels at 96 dpi and rounded up.  The
    arithmetic is exact (96/72 == 4/3), so results never drift across
    platforms.
    """

    if not label:
        raise InvalidInputError("label must be non-empty")
    if not 0 <= weight < WEIGHT_LEVELS:
        raise InvalidInputError(f"weight must be in 0..9, got {show_value(weight)}")
    size = font_size_pt(weight)
    # height = ceil(1.25 * size * 96/72) = ceil(5*size/3)
    height = -(-5 * size // 3)
    # width = ceil(0.55 * size * 96/72 * chars) = ceil(11*size*chars/15)
    width = -(-11 * size * len(label) // 15)
    return TagBox(label=label, weight=weight, width=width, height=height)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_seed(seed) -> None:
    """A seed is a non-bool ``int``; else InvalidInputError.  ``None``
    would seed from the OS, and other types would be hashed or refused
    by ``random.Random``."""

    if not _is_int(seed):
        raise InvalidInputError(f"seed must be an integer, got {type(seed).__name__}")


def _pixel_problem(name: str, value: int, low: int) -> str | None:
    if not _is_int(value):
        return f"{name} must be an integer, got {type(value).__name__}"
    if value < low:
        return f"{name} must be >= {low}, got {show_value(value)}"
    if value > MAX_PIXELS:
        return f"{name} must be <= {MAX_PIXELS}, got {show_value(value)}"
    return None


def validate_cloud(cloud: Cloud) -> list[str]:
    """Collect every constraint violation instead of failing on the first.

    A field of the wrong type (a label that is not a string, or a
    number that is not an integer or is a bool) is reported by its type
    name, and its range is not checked.  A label longer than 40
    characters, or the repr of a label that is not a string, is cut to
    its first 40, then ``…``, in the messages.
    """

    problems: list[str] = []
    if not cloud.tags:
        problems.append("tags non-empty: cloud has no tags")
    problems += filter(None, (_pixel_problem("target_width", cloud.target_width, 1),
                              _pixel_problem("space_width", cloud.space_width, 0)))
    for i, tag in enumerate(cloud.tags):
        if (type(tag.label) is str and tag.label
                and type(tag.weight) is int and 0 <= tag.weight < WEIGHT_LEVELS
                and type(tag.width) is int and 1 <= tag.width <= MAX_PIXELS
                and type(tag.height) is int and 1 <= tag.height <= MAX_PIXELS):
            continue  # the common case builds no message
        shown = repr(_clip(tag.label)) if isinstance(tag.label, str) else show_value(tag.label)
        where = f"tag {i} ({shown})"
        if not isinstance(tag.label, str):
            problems.append(f"{where}: label must be a string, got {type(tag.label).__name__}")
        elif not tag.label:
            problems.append(f"{where}: empty label")
        if not _is_int(tag.weight):
            problems.append(
                f"{where}: weight must be an integer, got {type(tag.weight).__name__}")
        elif not 0 <= tag.weight < WEIGHT_LEVELS:
            problems.append(f"{where}: weight range is 0..9, got {show_value(tag.weight)}")
        for name, value in (("width", tag.width), ("height", tag.height)):
            problem = _pixel_problem(name, value, 1)
            if problem:
                problems.append(f"{where}: {problem}")
    return problems


def cloud_to_json(cloud: Cloud, graph: RelationGraph | None = None) -> str:
    doc: dict = {
        "target_width": cloud.target_width,
        "space_width": cloud.space_width,
        "tags": [
            {"label": t.label, "weight": t.weight, "width": t.width, "height": t.height}
            for t in cloud.tags
        ],
    }
    if graph is not None and graph.edges:
        doc["edges"] = [{"a": i, "b": j, "strength": s} for i, j, s in graph.edges]
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"


def _require(cond: bool, msg: str, *args) -> None:
    """Raise InvalidInputError unless ``cond`` holds.  The message is
    ``msg.format(*args)``, built only when the check fails."""

    if not cond:
        raise InvalidInputError(msg.format(*args))


def _diagnose_entries(entries: list, name: str, fields: tuple[str, ...]) -> None:
    """Raise the message for the first entry that is not an object
    holding every one of ``fields``."""

    for k, entry in enumerate(entries):
        _require(isinstance(entry, dict), "{}[{}] must be an object", name, k)
        for fld in fields:
            _require(fld in entry, "{}[{}]: missing field {}", name, k, fld)


def cloud_from_json(text: str) -> tuple[Cloud, RelationGraph | None]:
    """Parse a cloud document; returns (cloud, graph or None).

    The graph is None when the document carries no ``edges`` field.
    Raises InvalidInputError on malformed documents.  Only the structure
    is checked here; :class:`Cloud`, then :class:`RelationGraph`, check
    the values.
    """

    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:
        # ValueError covers JSONDecodeError and integers past Python's
        # digit limit; RecursionError covers arrays or objects nested
        # too deep for the decoder.
        raise InvalidInputError(f"not valid JSON: {e}") from e
    _require(isinstance(doc, dict), "top-level JSON value must be an object")
    _require("target_width" in doc, "missing field: target_width")
    _require(isinstance(doc.get("tags"), list), "missing or invalid field: tags")
    try:
        tags = tuple([TagBox(e["label"], e["weight"], e["width"], e["height"])
                      for e in doc["tags"]])
    except (KeyError, TypeError):
        _diagnose_entries(doc["tags"], "tags", ("label", "weight", "width", "height"))
        raise
    cloud = Cloud(tags=tags, target_width=doc["target_width"],
                  space_width=doc.get("space_width", DEFAULT_SPACE_WIDTH))
    if "edges" not in doc:
        return cloud, None
    _require(isinstance(doc["edges"], list), "edges must be a list")
    try:
        raw = [(e["a"], e["b"], e["strength"]) for e in doc["edges"]]
    except (KeyError, TypeError):
        _diagnose_entries(doc["edges"], "edges", ("a", "b", "strength"))
        raise
    graph = RelationGraph(raw)
    graph.check_fits(len(tags))
    return cloud, graph
