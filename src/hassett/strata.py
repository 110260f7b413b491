"""Dual graphs of weighted nodal curves, stability, and boundary divisors.

A one-node degeneration is recorded by the markings on one side together
with a genus split; a coincidence divisor records two positive-weight
markings allowed to collide. Trees are canonicalized so enumeration is
deterministic, and reduction morphisms report exactly the divisors whose
collapsed side maps to a stratum of codimension at least two: the genus-0
sides I with b_I <= 1 < a_I holding at least three markings of positive
target weight, read off the target's chamber signature in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction

from . import kernels
from .weights import (
    WeightData,
    chamber_signature,
    reduction_exists,
    require_valid,
)

__all__ = [
    "StableTree",
    "BoundaryDivisor",
    "Contraction",
    "vertex_degree",
    "is_stable",
    "enumerate_boundary_divisors",
    "contracted_divisors",
    "divisor_tree",
]

TREE_SCHEMA = "stable-tree/1"


@dataclass(frozen=True)
class StableTree:
    """Dual graph: vertices carry genus, markings sit at vertices.

    ``edges`` are unordered vertex pairs; a self-loop ``(v, v)`` is a
    non-separating node and counts twice in the degree at ``v``.
    ``clusters[v]`` lists the coincidence classes at vertex ``v`` —
    markings in one class share a point. Markings not listed are at
    pairwise distinct points; singleton classes are implicit.
    """

    vertex_genera: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    marking_at: tuple[tuple[int, int], ...]  # (marking, vertex), sorted
    clusters: tuple[tuple[tuple[int, ...], ...], ...] = ()

    def __post_init__(self):
        nv = len(self.vertex_genera)
        if nv == 0:
            raise ValueError("a curve has at least one component")
        if any(g < 0 for g in self.vertex_genera):
            raise ValueError("vertex genus must be non-negative")
        for e in self.edges:
            if len(e) != 2 or not all(0 <= v < nv for v in e):
                raise ValueError(f"edge {e} references unknown vertices")
        object.__setattr__(
            self, "edges", tuple(sorted(tuple(sorted(e)) for e in self.edges))
        )
        seen: set[int] = set()
        for m, v in self.marking_at:
            if m in seen:
                raise ValueError(f"marking {m} placed twice")
            seen.add(m)
            if not 0 <= v < nv:
                raise ValueError(f"marking {m} at unknown vertex {v}")
        object.__setattr__(self, "marking_at", tuple(sorted(self.marking_at)))
        clusters = self.clusters if self.clusters else ((),) * nv
        if len(clusters) != nv:
            raise ValueError("clusters must list one entry per vertex")
        at_vertex = {v: set() for v in range(nv)}
        for m, v in self.marking_at:
            at_vertex[v].add(m)
        canon_clusters = []
        for v, classes in enumerate(clusters):
            used: set[int] = set()
            vc = []
            for cls in classes:
                cs = set(cls)
                if len(cs) != len(cls):
                    raise ValueError(f"repeated marking in a class at vertex {v}")
                if not cs <= at_vertex[v]:
                    raise ValueError(
                        f"class {sorted(cs)} contains markings not at vertex {v}"
                    )
                if cs & used:
                    raise ValueError(f"overlapping classes at vertex {v}")
                used |= cs
                vc.append(tuple(sorted(cs)))
            canon_clusters.append(tuple(sorted(vc)))
        object.__setattr__(self, "clusters", tuple(canon_clusters))
        if not self._connected():
            raise ValueError("the dual graph must be connected")

    def _connected(self) -> bool:
        nv = len(self.vertex_genera)
        parent = list(range(nv))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in self.edges:
            parent[find(a)] = find(b)
        return len({find(v) for v in range(nv)}) == 1

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_genera)

    @property
    def total_genus(self) -> int:
        return sum(self.vertex_genera) + len(self.edges) - self.num_vertices + 1

    @property
    def markings(self) -> frozenset[int]:
        return frozenset(m for m, _ in self.marking_at)

    def markings_at_vertex(self, v: int) -> tuple[int, ...]:
        return tuple(m for m, w in self.marking_at if w == v)

    def edge_ends(self, v: int) -> int:
        return sum((a == v) + (b == v) for a, b in self.edges)

    def classes_at_vertex(self, v: int) -> tuple[tuple[int, ...], ...]:
        return self.clusters[v]

    def to_json_dict(self) -> dict:
        return {
            "schema": TREE_SCHEMA,
            "vertices": [{"genus": g} for g in self.vertex_genera],
            "edges": [list(e) for e in self.edges],
            "markings": {str(m): v for m, v in self.marking_at},
            "clusters": [
                [list(cls) for cls in self.classes_at_vertex(v)]
                for v in range(self.num_vertices)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: object) -> "StableTree":
        """Read :meth:`to_json_dict`'s form; malformed input raises
        ``ValueError``."""
        if not isinstance(data, dict):
            raise ValueError("a stable tree must be a JSON object")
        if data.get("schema") != TREE_SCHEMA:
            raise ValueError(f"expected schema {TREE_SCHEMA!r}")
        try:
            genera = tuple(v["genus"] for v in data["vertices"])
            markings = data.get("markings", {})
            if not all(type(g) is int for g in genera):
                raise TypeError("vertex genus must be an integer")
            if not all(isinstance(m, str) for m in markings):
                raise TypeError("marking keys must be integer strings")
            return cls(
                vertex_genera=genera,
                edges=tuple(tuple(e) for e in data["edges"]),
                marking_at=tuple((int(m), v) for m, v in markings.items()),
                clusters=tuple(
                    tuple(tuple(cls) for cls in classes)
                    for classes in data.get("clusters", [])
                ),
            )
        except KeyError as exc:
            raise ValueError(f"stable tree is missing key {exc}") from exc
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed stable tree: {exc}") from exc


def _check_ambient(w: WeightData, t: StableTree) -> None:
    """The tree must be a curve of the ambient genus carrying all markings."""
    if t.total_genus != w.genus:
        raise ValueError(
            f"tree has arithmetic genus {t.total_genus}, ambient genus is {w.genus}"
        )
    expected = frozenset(range(1, w.n + 1))
    if t.markings != expected:
        raise ValueError(
            f"tree carries markings {sorted(t.markings)}, expected 1..{w.n}"
        )


def vertex_degree(w: WeightData, t: StableTree, v: int) -> Fraction:
    """Degree of the log-canonical polarization on one component:
    2*genus - 2 + (edge ends, self-loops twice) + sum of marking weights.
    """
    if not 0 <= v < t.num_vertices:
        raise ValueError(f"unknown vertex {v}")
    total = Fraction(2 * t.vertex_genera[v] - 2 + t.edge_ends(v))
    for m in t.markings_at_vertex(v):
        if not 1 <= m <= w.n:
            raise ValueError(f"marking {m} outside 1..{w.n}")
        total += w.weights[m - 1]
    return total


def is_stable(w: WeightData, t: StableTree) -> bool:
    """Positive polarization degree on every component, and each
    coincidence class light enough to share a point (sum <= 1)."""
    require_valid(w)
    _check_ambient(w, t)
    for v in range(t.num_vertices):
        if vertex_degree(w, t, v) <= 0:
            return False
        for cls in t.classes_at_vertex(v):
            if sum(w.weights[m - 1] for m in cls) > 1:
                return False
    return True


@dataclass(frozen=True, slots=True)
class BoundaryDivisor:
    """One-node boundary divisor or two-marking coincidence divisor.

    * ``nodal``: two components; ``side`` holds the canonical side's
      markings as a sorted tuple and ``genus_split`` its genus first.
      Canonical means the smaller genus, ties broken by fewer markings
      then lexicographic.
    * ``irreducible``: one component of genus g-1 glued to itself
      (genus >= 1 only).
    * ``coincidence``: two positive-weight markings with weight sum <= 1
      meeting in the smooth locus; ``pair`` is the sorted tuple of the two.
    """

    kind: str
    side: tuple[int, ...] | None = None
    genus_split: tuple[int, int] | None = None
    pair: tuple[int, int] | None = None

    def __post_init__(self):
        if self.kind not in {"nodal", "irreducible", "coincidence"}:
            raise ValueError(f"unknown divisor kind {self.kind!r}")
        if self.kind == "nodal":
            if self.side is None or self.genus_split is None:
                raise ValueError("nodal divisors need a side and a genus split")
        elif self.kind == "coincidence":
            if self.pair is None or len(self.pair) != 2:
                raise ValueError("coincidence divisors need a marking pair")

    def to_json_dict(self) -> dict:
        """The divisor's JSON object, holding its own tuples as the arrays.

        Tuples of integers leave the cyclic garbage collector's view and
        lists do not; ``contract`` builds one such dict per contraction,
        so lists would be traversed again at every collection.
        """
        if self.kind == "nodal":
            return {"kind": "nodal", "side": self.side, "genus_split": self.genus_split}
        if self.kind == "irreducible":
            return {"kind": "irreducible"}
        return {"kind": "coincidence", "pair": self.pair}


def _divisor_windows(
    w: WeightData, labels: Sequence
) -> tuple[list[tuple[tuple[int, int], list[tuple]]], bool, tuple]:
    """The boundary divisors of a valid datum as kernel windows (argument
    tuples of :func:`hassett.kernels.enumerate_small_subsets`), with
    marking k read as ``labels[k - 1]``: the windows of canonical sides of
    each genus split ``(g1, g2)``, whether the irreducible-node divisor
    exists, and the window of coincidence pairs, each part in the order of
    :func:`enumerate_boundary_divisors`. That function builds its divisors
    from these windows; the ``divisors`` verb renders them as text with
    each marking's output token as its label, through
    :func:`hassett.kernels.render_small_subsets`, or, with ``--trees``,
    through the tuple expansion, filling each side and pair into a
    template of its tree's shape.

    A side S of genus g_1 glued to its complement of genus g_2 is stable
    when each genus-0 side holds two markings and weighs more than 1: with
    cap the scaled 1 and total the scaled sum, a genus-0 S needs
    sum(S) > cap and a genus-0 complement needs sum(S) <= total - cap - 1.
    With equal genera a divisor has two sides and is kept under its
    canonical one: fewer markings, or half the markings including marking
    1. Those half sides are one window over markings 2..n, marking 1 a
    fixed prefix and the bounds shifted by its weight. Coincidence pairs
    are the pairs of weight at most 1 among the positive-weight markings.
    """
    scaled, cap = w.integer_form
    n, total = w.n, sum(scaled)
    nodal = []
    for g1 in range(0, w.genus // 2 + 1):
        g2 = w.genus - g1
        lo, min_size = (cap, 2) if g1 == 0 else (-1, 0)
        hi, max_size = (total - cap - 1, n - 2) if g2 == 0 else (total, n)
        if g1 == g2 and n % 2 == 0 and n:
            half, first = n // 2, scaled[0]
            windows = [
                (scaled, lo, hi, min_size, min(max_size, half - 1), labels),
                (
                    scaled[1:], lo - first, hi - first,
                    max(min_size, half) - 1, min(max_size, half) - 1,
                    labels[1:], (labels[0],),
                ),
            ]
        else:
            if g1 == g2:
                max_size = min(max_size, n // 2)
            windows = [(scaled, lo, hi, min_size, max_size, labels)]
        nodal.append(((g1, g2), windows))
    positive = [k for k in range(n) if scaled[k]]
    pairs = ([scaled[k] for k in positive], -1, cap, 2, 2, [labels[k] for k in positive])
    return nodal, w.genus >= 1, pairs


def enumerate_boundary_divisors(w: WeightData) -> list[BoundaryDivisor]:
    """All one-node divisors (over genus splits) plus the irreducible-node
    divisor for genus >= 1, plus all coincidence divisors.

    Deterministic order: nodal by (side genus, side size, side), then the
    irreducible divisor, then coincidence pairs lexicographically. Every
    family is one or two windows of the enumeration kernel over the scaled
    weights, which yield it already in that order
    (:func:`_divisor_windows`).
    """
    require_valid(w)
    nodal, irreducible, pairs = _divisor_windows(w, range(1, w.n + 1))
    # fields passed by position (kind, side, genus_split): this runs once
    # per divisor, and keyword arguments cost measurably more here
    out = [
        BoundaryDivisor("nodal", side, split)
        for split, windows in nodal
        for window in windows
        for side in kernels.enumerate_small_subsets(*window)
    ]
    if irreducible:
        out.append(BoundaryDivisor(kind="irreducible"))
    out.extend(
        BoundaryDivisor(kind="coincidence", pair=pair)
        for pair in kernels.enumerate_small_subsets(*pairs)
    )
    return out


@dataclass(frozen=True)
class Contraction:
    """A divisor collapsed by a reduction morphism, reported from the
    collapse viewpoint: ``collapsed_side`` is the component that loses
    positive degree, which is not always the divisor's canonical side."""

    divisor: BoundaryDivisor
    collapsed_side: frozenset[int]
    collapsed_genus: int

    def to_json_dict(self) -> dict:
        return {
            "divisor": self.divisor.to_json_dict(),
            "collapsed_side": sorted(self.collapsed_side),
            "collapsed_genus": self.collapsed_genus,
        }


def contracted_divisors(a: WeightData, b: WeightData) -> list[Contraction]:
    """Nodal divisors of the source whose degree-losing side maps to a
    stratum of codimension at least two under the target weights.

    Only a genus-0 side S loses degree, when its target weight drops to at
    most 1, so the candidates are the sets of ``chamber_signature(b)``.
    S is reported when the divisor exists for the source and at least
    three of its markings keep positive target weight; with exactly two,
    the image is the coincidence divisor of that pair and nothing is
    contracted. The divisor exists when a_S > 1 and the other side is
    stable. A side of positive genus with one node always is. In genus 0
    it is too: b is valid, so b weighs more than 2 in all, the other side
    more than 1 under b, and so under a.

    Each contraction carries the divisor under its canonical side: S
    itself in positive genus; in genus 0 the side with fewer markings, or
    at n/2 markings the side holding marking 1. Output is sorted by
    (|S|, sorted S).
    """
    if not reduction_exists(a, b):
        raise ValueError("no reduction morphism: target weights must be "
                         "pointwise at most the source weights")
    scaled, cap = a.integer_form
    n, split = a.n, (0, a.genus)
    full, positive = frozenset(range(1, n + 1)), frozenset(b.positive_indices())
    out: list[Contraction] = []
    for side in chamber_signature(b):
        if len(side & positive) < 3 or sum(scaled[m - 1] for m in side) <= cap:
            continue
        canonical, excess = side, 2 * len(side) - n
        if a.genus == 0 and (excess > 0 or (excess == 0 and 1 not in side)):
            canonical = full - side
        divisor = BoundaryDivisor("nodal", tuple(sorted(canonical)), split)
        out.append(Contraction(divisor, side, 0))
    out.sort(key=lambda c: (len(c.collapsed_side), sorted(c.collapsed_side)))
    return out


def divisor_tree(w: WeightData, d: BoundaryDivisor) -> StableTree:
    """The dual graph of a divisor's generic member."""
    require_valid(w)
    return _divisor_tree(w, d)


def _divisor_tree(w: WeightData, d: BoundaryDivisor) -> StableTree:
    """:func:`divisor_tree` for a datum the caller has validated."""
    all_marks = tuple(range(1, w.n + 1))
    if d.kind == "nodal":
        assert d.side is not None and d.genus_split is not None
        return StableTree(
            vertex_genera=d.genus_split,
            edges=((0, 1),),
            marking_at=tuple(
                (m, 0 if m in d.side else 1) for m in all_marks
            ),
        )
    if d.kind == "irreducible":
        if w.genus < 1:
            raise ValueError("irreducible-node divisors need genus >= 1")
        return StableTree(
            vertex_genera=(w.genus - 1,),
            edges=((0, 0),),
            marking_at=tuple((m, 0) for m in all_marks),
        )
    assert d.pair is not None
    return StableTree(
        vertex_genera=(w.genus,),
        edges=(),
        marking_at=tuple((m, 0) for m in all_marks),
        clusters=((d.pair,),),
    )
