"""Slicing tree nodes.

A slicing tree recursively halves a region: a V cut puts ``first``
left of ``second``, an H cut puts ``first`` above ``second``.  Leaves
hold tag indices.  Nodes are frozen and compare by structure; per-node
tables name a node by its post-order position, children before parents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

@dataclass(frozen=True)
class Leaf:
    tag: int


@dataclass(frozen=True)
class Cut:
    orient: str  # "V" or "H"
    first: "Node"
    second: "Node"


Node = Union[Leaf, Cut]
