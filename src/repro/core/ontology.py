"""Ontology trees for categorical predicate refinement (paper 7.3).

The paper measures refinement distance between categorical values via a
taxonomy: rolling an accepted node up one level makes the predicate less
selective (relaxation); drilling down contracts it. Figure 7's examples
(a food-preference tree and a location tree) are reproduced in
``examples/categorical_ontology.py``.

Distance semantics implemented here: the distance from an accepted set
``S`` to a value ``v`` is the minimum number of roll-up steps applied to
some ``s in S`` until the resulting ancestor also covers ``v`` — i.e.
``min_{s in S} depth(s) - depth(lca(s, v))``. Values absent from the
tree are unreachable (infinite distance).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from repro.exceptions import OntologyError


class OntologyTree:
    """A rooted taxonomy over categorical values.

    Nodes are strings, held as a parent map and a children map. Any
    node (not only a leaf) may appear in an accepted set; a node
    *covers* itself and all of its descendants.
    """

    def __init__(self, root: str = "ROOT") -> None:
        self.root = root
        self._parent: dict[str, str] = {}
        # Every node, in insertion order, with its children.
        self._children: dict[str, list[str]] = {root: []}
        self._depth_cache: dict[str, int] | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_edge(self, parent: str, child: str) -> None:
        if child == self.root:
            raise OntologyError("the root cannot have a parent")
        if self._parent.get(child, parent) != parent:
            raise OntologyError(f"node {child!r} already has a different parent")
        self._children.setdefault(parent, [])
        self._children.setdefault(child, [])
        if child not in self._parent:
            self._parent[child] = parent
            self._children[parent].append(child)
        self._depth_cache = None

    def add_path(self, *nodes: str) -> None:
        """Add a root-to-leaf path, e.g. ``add_path('Food', 'Greek', 'Gyro')``.

        The first node is attached under the root unless it is the root.
        """
        if not nodes:
            return
        previous = self.root
        for node in nodes:
            if node == previous:
                continue
            self.add_edge(previous, node)
            previous = node

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Sequence[str]], root: str = "ROOT"
    ) -> "OntologyTree":
        """Build a tree from ``{parent: [children, ...]}``.

        Every node has one parent (:meth:`add_edge` refuses a second),
        so the mapping is a rooted tree exactly when every node is
        reachable from the root: a cycle or a second root is not.
        """
        tree = cls(root)
        for parent, children in mapping.items():
            for child in children:
                tree.add_edge(parent, child)
        if len(tree._depths()) != len(tree._children):
            raise OntologyError("mapping does not describe a rooted tree")
        return tree

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __contains__(self, node: object) -> bool:
        return node in self._children

    @property
    def nodes(self) -> list[str]:
        return list(self._children)

    @property
    def depth(self) -> int:
        """Depth of the deepest node (root = 0)."""
        depths = self._depths()
        return max(depths.values()) if depths else 0

    def _depths(self) -> dict[str, int]:
        """Depth of every node reachable from the root, breadth first."""
        if self._depth_cache is None:
            depths = {self.root: 0}
            frontier = [self.root]
            while frontier:
                frontier = [
                    child
                    for node in frontier
                    for child in self._children[node]
                    if child not in depths
                ]
                for child in frontier:
                    depths[child] = depths[self._parent[child]] + 1
            self._depth_cache = depths
        return self._depth_cache

    def depth_of(self, node: str) -> int:
        try:
            return self._depths()[node]
        except KeyError:
            raise OntologyError(f"node {node!r} not in ontology") from None

    def parent(self, node: str) -> str | None:
        if node == self.root:
            return None
        self.depth_of(node)  # validates membership
        return self._parent[node]

    def ancestor(self, node: str, levels_up: int) -> str:
        """Roll ``node`` up by ``levels_up`` steps (clamped at the root)."""
        current = node
        for _ in range(levels_up):
            up = self.parent(current)
            if up is None:
                break
            current = up
        return current

    def descendants(self, node: str) -> set[str]:
        self.depth_of(node)
        found = {node}
        frontier = [node]
        while frontier:
            frontier = [
                child for parent in frontier for child in self._children[parent]
            ]
            found.update(frontier)
        return found

    def leaves_under(self, node: str) -> set[str]:
        return {
            candidate
            for candidate in self.descendants(node)
            if not self._children[candidate]
        }

    def lca(self, a: str, b: str) -> str:
        """Lowest common ancestor of two nodes."""
        depth_a = self.depth_of(a)
        depth_b = self.depth_of(b)
        # Climb the deeper node to the other's depth, then both at once.
        while depth_a > depth_b:
            a, depth_a = self._parent[a], depth_a - 1
        while depth_b > depth_a:
            b, depth_b = self._parent[b], depth_b - 1
        while a != b:
            a, b = self._parent[a], self._parent[b]
        return a

    # ------------------------------------------------------------------
    # Refinement semantics
    # ------------------------------------------------------------------
    def distance(self, accepted: Iterable[str], value: str) -> float:
        """Roll-up distance from ``accepted`` to ``value`` (see module doc)."""
        if value not in self._children:
            return math.inf
        best = math.inf
        for node in accepted:
            if node not in self._children:
                raise OntologyError(f"accepted value {node!r} not in ontology")
            meet = self.lca(node, value)
            steps = self.depth_of(node) - self.depth_of(meet)
            best = min(best, steps)
        return best

    def expand(self, accepted: Iterable[str], levels: int) -> frozenset[str]:
        """All values covered after rolling each accepted node up ``levels``."""
        covered: set[str] = set()
        for node in accepted:
            top = self.ancestor(node, levels)
            covered |= self.descendants(top)
        return frozenset(covered)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"OntologyTree(root={self.root!r}, nodes={len(self._children)},"
            f" depth={self.depth})"
        )
