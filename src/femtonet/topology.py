"""Geometric model of one macrocell cluster with randomly placed femtocells.

The reference macrocell BS sits at the origin; the six first-tier macrocell
BSs form a hexagonal ring at distance 2*r_m*cos(30 deg).  Femto access points
(FAPs) are dropped uniformly over the reference macrocell disc with a minimum
pairwise separation, which makes local neighbor counts Poisson-like.

A FAP is an id in `CellTopology.femtocells` and the same row of its
`positions` array; access modes and wall counts live in the topology too.

Each topology has one fixed-radius neighbor table; its CSR layout is
private to this module.  `place_femtocells` hands over the table that its
last draw round built, `reach_components` slices its parent's rows, and a
topology made any other way builds its own on first read.  It has three
readers: `CellTopology.row` hands a FAP's whole row over as lists, and
`neighbors_of` and dynamic reuse cut it to their radius;
`CellTopology.earlier_within` gives each FAP's earlier partners for the
first-come pair rules; and `reach_components` cuts a topology down to the
table's connected components that hold given FAPs.  The table's reach covers
the interference range and the neighbor threshold, and `earlier_within`
raises for a radius beyond it.  Queries from arbitrary points (UE
positions) read a full `distances_to` row.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from ._checks import finite, whole_count, whole_counts

# Fixed reference geometry (distances in meters)
DEFAULT_MACRO_RADIUS = 1000.0
DEFAULT_FEMTO_RADIUS = 10.0
DEFAULT_NEIGHBOR_THRESHOLD = 60.0
DEFAULT_MIN_SEPARATION = 2.0
REFERENCE_FAP_DISTANCE = 200.0  # reference FAP pinned at this range from the BS
FIRST_TIER_SIZE = 6
# interference detection range as a multiple of the two cell radii; at the
# default 10 m femto radius this reproduces the 60 m neighbor cutoff
INTERFERENCE_RADIUS_SCALE = 3.0
# a placement draw round takes this many candidates beyond the missing FAPs,
# plus one per 64 FAPs, so that one round nearly always fills the placement
_ROUND_SLACK = 8


class UnknownSiteError(LookupError):
    """Raised when a femtocell id is not present in the topology."""


class PlacementInfeasibleError(ValueError):
    """Raised when the requested femtocell count cannot be placed."""


class DegenerateGeometryError(ValueError):
    """Raised for zero-distance links and similar degenerate inputs."""


@dataclass(frozen=True)
class MacroGeometry:
    """Parameters controlling the macro layer and femto placement."""

    macro_radius_m: float = DEFAULT_MACRO_RADIUS
    femto_radius_m: float = DEFAULT_FEMTO_RADIUS
    neighbor_threshold_m: float = DEFAULT_NEIGHBOR_THRESHOLD
    min_separation_m: float = DEFAULT_MIN_SEPARATION
    # wall counts used by the propagation model; both scenario-configurable
    macro_ue_walls: int = 1
    inter_femto_walls: int = 1

    def __post_init__(self):
        if not math.inf > self.macro_radius_m > self.femto_radius_m > 0:
            raise ValueError("require a finite macro_radius_m > femto_radius_m > 0")
        for name in ("min_separation_m", "neighbor_threshold_m"):
            finite(name, getattr(self, name), 0)
        whole_counts(self, ("macro_ue_walls", "inter_femto_walls"))


class FemtoSite(NamedTuple):
    id: int
    position: tuple[float, float]


@dataclass(eq=False)
class CellTopology:
    """Read-only after construction: `femtocells` is a tuple of the ids as ints,
    row k of the n x 2 `positions` array (the constructor's own read-only
    copy) is the position of femtocells[k], and the neighbor table is
    read-only arrays; safe for concurrent read-only use (two threads that
    both make the first read build equal tables).  Compared by identity.

    `macro_sites` is a tuple of the macro BS positions, the reference BS
    first.  `closed_access` holds the closed-access FAP ids (every other FAP
    is open), and `walls` maps an ascending id pair (a, b) to a whole wall
    count >= 0 where it is not inter_femto_walls; macro_ue_walls and
    inter_femto_walls are whole counts >= 0 too, stored as ints.
    `closed_access` and `walls` may name FAPs outside the topology, so
    `reach_components` passes them on unchanged.

    The neighbor table holds every pair of FAPs within the reach, the
    wider of INTERFERENCE_RADIUS_SCALE * 2 * femto_radius_m (60 m by
    default), which covers two cells of nominal radius, and
    neighbor_threshold_m.  So every FAP-pair query reads the table.  The
    first read builds it, unless `place_femtocells` or `reach_components`
    made the topology: they store the table that they already hold, equal
    to the one the read would build.
    """

    macro_radius_m: float
    femto_radius_m: float
    macro_sites: tuple[tuple[float, float], ...]
    femtocells: tuple[int, ...]
    positions: np.ndarray
    neighbor_threshold_m: float = DEFAULT_NEIGHBOR_THRESHOLD
    macro_ue_walls: int = 1
    inter_femto_walls: int = 1
    closed_access: frozenset[int] = frozenset()
    walls: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        self.macro_sites = tuple(map(tuple, self.macro_sites))
        whole_counts(self, ("macro_ue_walls", "inter_femto_walls"))
        self.closed_access = frozenset(self.closed_access)
        for pair, count in self.walls.items():
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] < pair[1]
                    and float(count).is_integer() and count >= 0):
                raise ValueError(f"walls: need a pair a < b and a whole count >= 0, "
                                 f"got {pair!r}: {count!r}")
        self.walls = MappingProxyType({pair: int(count) for pair, count in self.walls.items()})
        self.femtocells = tuple(map(operator.index, self.femtocells))
        self._index = {f: k for k, f in enumerate(self.femtocells)}
        n = len(self.femtocells)
        if len(self._index) != n:
            raise ValueError("femtocell ids must be unique")
        if not self.femto_radius_m > 0:
            raise ValueError("femto_radius_m must be > 0")
        finite("neighbor_threshold_m", self.neighbor_threshold_m, 0)
        pos = np.array(self.positions, dtype=float)
        if pos.shape != (n, 2) and not (n == 0 and pos.size == 0):
            raise ValueError(f"positions must be a {n} x 2 array, got shape {pos.shape}")
        self.positions = pos.reshape(n, 2)
        if not np.isfinite(self.positions).all():
            raise ValueError("positions must be finite")
        self.positions.flags.writeable = False
        self._reach = _table_reach(self.femto_radius_m, self.neighbor_threshold_m)
        self._table = None

    def _neighbors(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The neighbor table (ptr, nbr, dist) in `_neighbor_table`'s CSR
        form; the first read builds it unless it was handed over."""
        if self._table is None:
            self._table = _neighbor_table(self.positions, self._reach)
        return self._table

    def distances_to(self, xy) -> np.ndarray:
        """Distance from a point to every FAP, in femtocells order."""
        x, y = xy
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("positions must be finite")
        return np.hypot(x - self.positions[:, 0], y - self.positions[:, 1])

    def row(self, fap_id: int) -> tuple[list[int], list[float]]:
        """The FAP's row of the neighbor table, as lists: the indices in
        femtocells order, ascending, of every FAP within the table's reach,
        itself excluded, and their distances.  The table's one per-FAP
        reader: a caller cuts the row to its own radius."""
        k = self.index_of(fap_id)
        ptr, nbr, dist = self._table or self._neighbors()
        lo, hi = ptr[k], ptr[k + 1]
        return nbr[lo:hi].tolist(), dist[lo:hi].tolist()

    def earlier_within(self, radius_m: float) -> list[tuple[int, list[int]]]:
        """`[(k, earlier), ...]` for each FAP k, in femtocells order, that
        has an earlier FAP within radius_m: `earlier` are their indices,
        ascending.  A radius above the table's reach raises ValueError."""
        if radius_m > self._reach:
            raise ValueError(f"radius {radius_m!r} m exceeds the neighbor table's "
                             f"reach of {self._reach!r} m")
        ptr, nbr, dist = self._neighbors()
        return _earlier(ptr, nbr, dist <= radius_m)

    def index_of(self, fap_id: int) -> int:
        """The FAP's index in femtocells order."""
        try:
            return self._index[fap_id]
        except KeyError:
            raise UnknownSiteError(f"unknown femtocell id {fap_id}") from None

    def position(self, fap_id: int) -> tuple[float, float]:
        """The FAP's (x, y), as Python floats."""
        x, y = self.positions[self.index_of(fap_id)].tolist()
        return x, y

    def site(self, fap_id: int) -> FemtoSite:
        return FemtoSite(self.femtocells[self.index_of(fap_id)], self.position(fap_id))

    def walls_between(self, a: int, b: int) -> int:
        """Wall count on the inter-femtocell path, the same both ways."""
        if a == b:
            return 0
        self.index_of(a)
        self.index_of(b)
        return self.walls.get((min(a, b), max(a, b)), self.inter_femto_walls)


def _table_reach(femto_radius_m: float, neighbor_threshold_m: float) -> float:
    """The reach of a topology's neighbor table."""
    return max(INTERFERENCE_RADIUS_SCALE * (femto_radius_m + femto_radius_m),
               neighbor_threshold_m)


def _neighbor_table(pos: np.ndarray, reach: float):
    """Every pair of points within `reach`, in CSR form: the neighbors of
    point k are nbr[ptr[k]:ptr[k + 1]], ascending, at distances
    dist[ptr[k]:ptr[k + 1]].

    Cell lists (Allen & Tildesley): points are binned on a square grid of
    side at least `reach`, so a pair within reach shares a cell or lies in
    two adjacent ones.  Each cell is paired with itself and with 4 of its 8
    neighbors, each pair is measured once with the same differences as
    `CellTopology.distances_to`, and then mirrored.  One sort by
    row * n + col, whose keys are distinct, orders the mirrored pairs.
    """
    n = len(pos)
    if n < 2:
        return _readonly(np.zeros(n + 1, dtype=np.intp), np.zeros(0, dtype=np.intp),
                         np.zeros(0))
    x, y = pos[:, 0], pos[:, 1]
    # the side exceeds `reach` by more than x/side can round, so a pair
    # within reach never lands two cells apart; at most 2**20 cells a side
    # keep the keys far from overflow
    span = max(np.ptp(x), np.ptp(y))
    side = (max(reach, span * 2.0**-20) * (1.0 + 2.0**-40)
            + np.abs(pos).max() * 2.0**-40)
    kx = np.floor(x / side).astype(np.int64)
    ky = np.floor(y / side).astype(np.int64)
    kx -= kx.min()
    ky -= ky.min() - 1  # ky >= 1, so ky - 1 and ky + 1 stay in kx's column
    width = int(ky.max()) + 2
    key = kx * width + ky
    order = np.argsort(key, kind="stable")
    key = key[order]
    # partners of sorted point p: the rest of its own cell, then the cells
    # above it, right-below, right and right-above
    ahead = (key[None, :] + np.array([[1], [width - 1], [width], [width + 1]])).ravel()
    lo = np.concatenate([np.arange(1, n + 1), np.searchsorted(key, ahead, "left")])
    hi = np.searchsorted(key, np.concatenate([key, ahead]), "right")
    counts = hi - lo
    a = order[np.repeat(np.tile(np.arange(n), 5), counts)]
    b = order[_ranges(lo, counts)]
    d = np.hypot(x[a] - x[b], y[a] - y[b])
    keep = d <= reach
    a, b, d = a[keep], b[keep], d[keep]
    rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
    # the stable kind: numpy's default kind pages in a further sort kernel
    sort = np.argsort(rows * n + cols, kind="stable")
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    return _readonly(ptr, cols[sort], np.concatenate([d, d])[sort])


def _readonly(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.flags.writeable = False
    return arrays


def _restrict(table, keep: np.ndarray, reach: float):
    """The CSR table of the points `keep` (ascending indices) alone: the
    entries between two kept points within `reach`, renumbered in order."""
    ptr, nbr, dist = table
    new = np.full(len(ptr) - 1, -1, dtype=np.intp)
    new[keep] = np.arange(len(keep))
    rows, cols = np.repeat(new, np.diff(ptr)), new[nbr]
    sel = (rows >= 0) & (cols >= 0) & (dist <= reach)
    sub_ptr = np.zeros(len(keep) + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows[sel], minlength=len(keep)), out=sub_ptr[1:])
    return _readonly(sub_ptr, cols[sel], dist[sel])


def _ranges(lo: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges lo[i], lo[i] + 1, ..., lo[i] + counts[i] - 1, concatenated."""
    return np.repeat(lo - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())


def _earlier(ptr: np.ndarray, nbr: np.ndarray, keep: np.ndarray) -> list[tuple[int, list[int]]]:
    """`[(row, earlier), ...]` for each row of a CSR neighbor table, in
    order, that has kept partners below it: `earlier` are those partners,
    ascending.  `keep` masks the table's entries."""
    rows = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr))
    keep = keep & (nbr < rows)
    rows, earlier = rows[keep], nbr[keep].tolist()
    bounds = np.searchsorted(rows, np.arange(len(ptr)))
    visit = np.flatnonzero(np.diff(bounds)).tolist()
    bounds = bounds.tolist()
    return [(k, earlier[bounds[k]:bounds[k + 1]]) for k in visit]


def _point(topo: CellTopology, p) -> tuple[float, float]:
    """The position of a femto id (int or numpy integer), or a finite (x, y)."""
    if isinstance(p, (int, np.integer)):
        return topo.position(p)
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError("positions must be finite")
    return p


def distance(topo: CellTopology, a, b) -> float:
    """Euclidean distance; endpoints may be femto ids or (x, y) positions."""
    pa, pb = _point(topo, a), _point(topo, b)
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def neighbors_of(topo: CellTopology, fap_id: int) -> frozenset[int]:
    """Ids of femtocells within neighbor_threshold_m of the given FAP."""
    idx, dist = topo.row(fap_id)
    threshold = topo.neighbor_threshold_m
    return frozenset(topo.femtocells[k] for k, d in zip(idx, dist) if d <= threshold)


def reach_components(topo: CellTopology, fap_ids) -> CellTopology:
    """The topology of the FAPs in the reach-graph components that hold
    `fap_ids`, with every other field kept and the FAPs in their order.

    Two FAPs are joined when they lie within the neighbor table's reach, and
    a search over the table collects the components.  No FAP is joined to a
    FAP outside its component, so any computation whose FAPs only ever read
    partners within the reach gives the same answers on these FAPs as on the
    whole topology.  Dynamic reuse is one: radii only shrink, which holds
    because only `spectrum.build_plan` makes a plan, so two interfering
    cells lie within 3·(r + r_f) <= reach of each other.  The
    reach covers neighbor_threshold_m too, so a FAP's component holds its
    `neighbors_of` set.  For the same reason the new topology's table is
    its parent's rows of these FAPs, renumbered.
    """
    ptr, nbr, dist = topo._neighbors()
    # a search over the table's rows as Python lists, one step per entry
    # of the components, where a numpy pass per hop costs more
    starts, partners = ptr.tolist(), nbr.tolist()
    found = {topo.index_of(f) for f in fap_ids}
    todo = list(found)
    while todo:
        k = todo.pop()
        for j in partners[starts[k]:starts[k + 1]]:
            if j not in found:
                found.add(j)
                todo.append(j)
    keep = sorted(found)
    sub = replace(topo, femtocells=[topo.femtocells[k] for k in keep],
                  positions=topo.positions[keep])
    # no entry of a kept row leaves the components, so the kept rows are
    # whole and cutting them to the reach drops nothing
    sub._table = _restrict((ptr, nbr, dist), np.array(keep, dtype=np.intp), topo._reach)
    return sub


def first_tier_ring(macro_radius_m: float) -> list[tuple[float, float]]:
    ring_distance = 2.0 * macro_radius_m * math.cos(math.pi / 6.0)
    return [
        (ring_distance * math.cos(k * math.pi / 3.0),
         ring_distance * math.sin(k * math.pi / 3.0))
        for k in range(FIRST_TIER_SIZE)
    ]


def check_reference_fap(macro: MacroGeometry) -> None:
    """Raise PlacementInfeasibleError unless the macro disc holds femtocell
    0, which every placement of at least one FAP pins at
    REFERENCE_FAP_DISTANCE from the BS."""
    if macro.macro_radius_m < REFERENCE_FAP_DISTANCE:
        raise PlacementInfeasibleError(
            f"femtocell 0 sits {REFERENCE_FAP_DISTANCE} m from the BS, outside "
            f"the {macro.macro_radius_m} m macro disc")


def place_femtocells(
    seed: int,
    count: int,
    macro: MacroGeometry | None = None,
) -> CellTopology:
    """Drop `count` open-access FAPs uniformly inside the reference macrocell
    disc.

    Candidates are drawn in order, and one closer than the minimum
    separation to an already placed FAP is rejected, so the same (seed,
    params) always yields the same topology.  Femtocell 0 is placed at the
    fixed reference range from the BS instead of being sampled.

    The candidates come in draw rounds: one block of uniforms, two per
    candidate, for the missing FAPs plus a fixed slack, which yields the same
    doubles in the same order as one scalar draw each.  One
    `_neighbor_table` over the placed FAPs and the round's candidates, at
    the wider of the separation and the topology's table reach, settles the
    round: taken in order, a candidate closer than the separation to a
    placed FAP or to an accepted earlier candidate is rejected, and the
    candidates after the last FAP needed are never tried.  So the positions
    are those of the scalar loop that tests each candidate against every
    placed FAP, and the last round's table, cut to the placed FAPs and the
    reach, is the topology's own.

    Raises PlacementInfeasibleError when the disc is too small to hold
    femtocell 0 at the reference range, when it cannot hold `count` sites
    at the requested separation, or when 200 candidates per FAP were tried.
    """
    count = whole_count("count", count, 0)
    macro = macro or MacroGeometry()
    if count > 0:
        check_reference_fap(macro)

    # packing bound: disc area over exclusion-disc area, with slack
    r, sep = macro.macro_radius_m, macro.min_separation_m
    if count > 0 and sep > 0:
        capacity = 0.25 * (2.0 * r / sep + 1.0) ** 2
        if count > capacity:
            raise PlacementInfeasibleError(
                f"cannot place {count} FAPs at {sep} m separation "
                f"inside a {r} m disc"
            )

    rng = np.random.default_rng(np.random.SeedSequence(seed))
    pos = np.array([(REFERENCE_FAP_DISTANCE, 0.0)]) if count > 0 else np.empty((0, 2))
    reach = _table_reach(macro.femto_radius_m, macro.neighbor_threshold_m)
    table = None

    max_attempts = 200 * max(count, 1)
    attempts = 0
    while len(pos) < count:
        if attempts >= max_attempts:
            raise PlacementInfeasibleError(
                f"placed only {len(pos)}/{count} FAPs "
                f"after {max_attempts} attempts"
            )
        placed, missing = len(pos), count - len(pos)
        # the scalar loop stops after max_attempts candidates, so none past
        # that budget is drawn
        drawn = min(missing + _ROUND_SLACK + count // 64, max_attempts - attempts)
        draws = rng.random(2 * drawn)
        # uniform over the disc via sqrt radius; the scalar math functions
        # keep every bit of the scalar loop, numpy only multiplies and takes
        # the square root, which IEEE 754 rounds correctly as math.sqrt does
        rad = r * np.sqrt(draws[0::2])
        ang = (2.0 * math.pi * draws[1::2]).tolist()
        block = np.column_stack([rad * np.fromiter(map(math.cos, ang), float),
                                 rad * np.fromiter(map(math.sin, ang), float)])
        points = np.concatenate([pos, block])
        table = _neighbor_table(points, max(sep, reach))
        # first come, first placed: no two placed FAPs are that close, so
        # only the candidates with an earlier close point are visited
        ptr, nbr, dist = table
        accepted = [True] * len(points)
        for k, earlier in _earlier(ptr, nbr, dist < sep):
            accepted[k] = not any(accepted[e] for e in earlier)
        took = np.flatnonzero(accepted[placed:])[:missing]
        # the scalar loop tries no candidate after the last FAP it needs
        attempts += int(took[-1]) + 1 if len(took) == missing else drawn
        keep = np.concatenate([np.arange(placed), placed + took])
        pos = points[keep]

    topo = CellTopology(
        macro_radius_m=macro.macro_radius_m,
        femto_radius_m=macro.femto_radius_m,
        macro_sites=[(0.0, 0.0)] + first_tier_ring(macro.macro_radius_m),
        femtocells=range(count),
        positions=pos,
        neighbor_threshold_m=macro.neighbor_threshold_m,
        macro_ue_walls=macro.macro_ue_walls,
        inter_femto_walls=macro.inter_femto_walls,
    )
    if table is not None:
        topo._table = _restrict(table, keep, reach)
    return topo
