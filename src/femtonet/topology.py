"""Geometric model of one macrocell cluster with randomly placed femtocells.

The reference macrocell BS sits at the origin; the six first-tier macrocell
BSs form a hexagonal ring at distance 2*r_m*cos(30 deg).  Femto access points
(FAPs) are dropped uniformly over the reference macrocell disc with a minimum
pairwise separation, which makes local neighbor counts Poisson-like.

A FAP is an immutable `FemtoSite` record (id, position); access modes and
wall counts live in the `CellTopology`.

Each topology builds one fixed-radius neighbor table when it is made; its
CSR layout is private to this module.  `CellTopology.near` answers every
FAP-to-FAP range query from it, `CellTopology.earlier_within` gives each
FAP's earlier partners for the first-come pair rules, and `reach_components`
cuts a topology down to the table's connected components that hold given
FAPs.  Queries from arbitrary points (UE positions) read a full
`distances_to` row.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

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
            value = getattr(self, name)
            if not 0.0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
        for name in ("macro_ue_walls", "inter_femto_walls"):
            value = getattr(self, name)
            if not (float(value).is_integer() and value >= 0):
                raise ValueError(f"{name} must be a whole number >= 0, got {value!r}")


class FemtoSite(NamedTuple):
    id: int
    position: tuple[float, float]


@dataclass
class CellTopology:
    """Read-only after construction: the sites are immutable records and
    the neighbor table is read-only arrays; safe for concurrent read-only use.

    `closed_access` holds the closed-access FAP ids (every other FAP is open),
    and `walls` maps an ascending id pair (a, b) to a whole wall count >= 0
    where it is not inter_femto_walls.  Both may name FAPs outside the
    topology, so `reach_components` passes them on unchanged.

    The constructor builds the neighbor table: every pair of FAPs within
    the reach INTERFERENCE_RADIUS_SCALE * 2 * femto_radius_m (60 m by
    default), which covers two cells of nominal radius.
    """

    macro_radius_m: float
    femto_radius_m: float
    macro_sites: list[tuple[float, float]]
    femtocells: list[FemtoSite]
    neighbor_threshold_m: float = DEFAULT_NEIGHBOR_THRESHOLD
    macro_ue_walls: int = 1
    inter_femto_walls: int = 1
    closed_access: frozenset[int] = frozenset()
    walls: Mapping[tuple[int, int], int] = field(default_factory=dict)

    def __post_init__(self):
        self.closed_access = frozenset(self.closed_access)
        for pair, count in self.walls.items():
            if not (isinstance(pair, tuple) and len(pair) == 2 and pair[0] < pair[1]
                    and float(count).is_integer() and count >= 0):
                raise ValueError(f"walls: need a pair a < b and a whole count >= 0, "
                                 f"got {pair!r}: {count!r}")
        self.walls = MappingProxyType({pair: int(count) for pair, count in self.walls.items()})
        self._index = {f.id: k for k, f in enumerate(self.femtocells)}
        if len(self._index) != len(self.femtocells):
            raise ValueError("femtocell ids must be unique")
        if not self.femto_radius_m > 0:
            raise ValueError("femto_radius_m must be > 0")
        self._pos = np.array([f.position for f in self.femtocells], dtype=float).reshape(-1, 2)
        if not np.isfinite(self._pos).all():
            raise ValueError("positions must be finite")
        self._reach = INTERFERENCE_RADIUS_SCALE * (self.femto_radius_m + self.femto_radius_m)
        self._ptr, self._nbr, self._nbr_dist = _neighbor_table(self._pos, self._reach)

    @property
    def femto_ids(self) -> list[int]:
        return [f.id for f in self.femtocells]

    @property
    def positions(self) -> np.ndarray:
        return self._pos

    def distances_to(self, xy) -> np.ndarray:
        """Distance from a point to every FAP, in femtocells order."""
        x, y = xy
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError("positions must be finite")
        return np.hypot(x - self._pos[:, 0], y - self._pos[:, 1])

    def near(self, fap_id: int, radius_m: float) -> tuple[np.ndarray, np.ndarray]:
        """The femtocells within radius_m of a FAP, itself excluded: their
        indices in femtocells order, ascending, and their distances.  A
        radius up to the table's reach reads the table; a wider one reads
        the FAP's distance row."""
        k = self.index_of(fap_id)
        if radius_m <= self._reach:
            span = slice(self._ptr[k], self._ptr[k + 1])
            idx, dist = self._nbr[span], self._nbr_dist[span]
        else:
            dist = np.delete(self.distances_to(self.femtocells[k].position), k)
            idx = np.delete(np.arange(len(self.femtocells)), k)
        keep = dist <= radius_m
        return idx[keep], dist[keep]

    def earlier_within(self, radius_m: float) -> list[tuple[int, list[int]]]:
        """`[(k, earlier), ...]` for each FAP k, in femtocells order, that
        has an earlier FAP within radius_m: `earlier` are their indices,
        ascending.  The radius may not exceed the table's reach."""
        if radius_m > self._reach:
            raise ValueError(f"radius {radius_m!r} m exceeds the neighbor table's "
                             f"reach of {self._reach!r} m")
        return _earlier(self._ptr, self._nbr, self._nbr_dist <= radius_m)

    def index_of(self, fap_id: int) -> int:
        """The FAP's index in femtocells order."""
        try:
            return self._index[fap_id]
        except KeyError:
            raise UnknownSiteError(f"unknown femtocell id {fap_id}") from None

    def site(self, fap_id: int) -> FemtoSite:
        return self.femtocells[self.index_of(fap_id)]

    def walls_between(self, a: int, b: int) -> int:
        """Wall count on the inter-femtocell path, the same both ways."""
        if a == b:
            return 0
        self.index_of(a)
        self.index_of(b)
        return self.walls.get((min(a, b), max(a, b)), self.inter_femto_walls)


def _neighbor_table(pos: np.ndarray, reach: float):
    """Every pair of points within `reach`, in CSR form: the neighbors of
    point k are nbr[ptr[k]:ptr[k + 1]], ascending, at distances
    dist[ptr[k]:ptr[k + 1]].

    Cell lists (Allen & Tildesley): points are binned on a square grid of
    side at least `reach`, so a pair within reach shares a cell or lies in
    two adjacent ones.  Each cell is paired with itself and with 4 of its 8
    neighbors, each pair is measured once with the same differences as
    `CellTopology.distances_to`, and then mirrored.
    """
    n = len(pos)
    if n < 2:
        return np.zeros(n + 1, dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0)
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
    ahead = [key + off for off in (1, width - 1, width, width + 1)]
    lo = np.concatenate([np.arange(1, n + 1), *(np.searchsorted(key, a, "left") for a in ahead)])
    hi = np.concatenate([np.searchsorted(key, a, "right") for a in (key, *ahead)])
    counts = hi - lo
    a = order[np.repeat(np.tile(np.arange(n), 5), counts)]
    b = order[_ranges(lo, counts)]
    d = np.hypot(x[a] - x[b], y[a] - y[b])
    keep = d <= reach
    a, b, d = a[keep], b[keep], d[keep]
    rows, cols = np.concatenate([a, b]), np.concatenate([b, a])
    sort = np.lexsort((cols, rows))
    ptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows, minlength=n), out=ptr[1:])
    table = ptr, cols[sort], np.concatenate([d, d])[sort]
    for arr in table:
        arr.flags.writeable = False
    return table


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
        return topo.site(p).position
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError("positions must be finite")
    return p


def distance(topo: CellTopology, a, b) -> float:
    """Euclidean distance; endpoints may be femto ids or (x, y) positions."""
    pa, pb = _point(topo, a), _point(topo, b)
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def neighbors_of(topo: CellTopology, fap_id: int) -> frozenset[int]:
    """Ids of femtocells within neighbor_threshold_m of the given FAP."""
    idx, _ = topo.near(fap_id, topo.neighbor_threshold_m)
    return frozenset(topo.femtocells[k].id for k in idx.tolist())


def reach_components(topo: CellTopology, fap_ids) -> CellTopology:
    """The topology of the FAPs in the reach-graph components that hold
    `fap_ids`, with every other field kept and the FAPs in their order.

    Two FAPs are joined when they lie within the neighbor table's reach, and
    a breadth-first search over the table collects the components.  No FAP
    is joined to a FAP outside its component, so any computation whose FAPs
    only ever read partners within the reach gives the same answers on these
    FAPs as on the whole topology.  Dynamic reuse is one: radii only shrink,
    which holds because only `spectrum.build_plan` makes a plan, so
    `SpectrumPlan.interferers` searches within 3·(r + r_f) <= reach.
    """
    ptr, nbr = topo._ptr, topo._nbr
    seen = np.zeros(len(topo.femtocells), dtype=bool)
    frontier = np.array(sorted({topo.index_of(f) for f in fap_ids}), dtype=np.intp)
    seen[frontier] = True
    while frontier.size:
        lo, counts = ptr[frontier], ptr[frontier + 1] - ptr[frontier]
        fresh = np.zeros_like(seen)
        fresh[nbr[_ranges(lo, counts)]] = True
        fresh &= ~seen
        seen |= fresh
        frontier = np.flatnonzero(fresh)
    return replace(topo, femtocells=[topo.femtocells[k] for k in np.flatnonzero(seen)])


def within(topo: CellTopology, xy, radius_m: float) -> list[int]:
    """Ids of the femtocells within radius_m of a position, in femtocells order."""
    close = np.flatnonzero(topo.distances_to(xy) <= radius_m)
    return [topo.femtocells[k].id for k in close]


def first_tier_ring(macro_radius_m: float) -> list[tuple[float, float]]:
    ring_distance = 2.0 * macro_radius_m * math.cos(math.pi / 6.0)
    return [
        (ring_distance * math.cos(k * math.pi / 3.0),
         ring_distance * math.sin(k * math.pi / 3.0))
        for k in range(FIRST_TIER_SIZE)
    ]


def _first_come(placed: np.ndarray, block: np.ndarray, sep: float) -> np.ndarray:
    """Which candidates of `block` the scalar loop accepts, taking them in
    order: a candidate closer than `sep` to a placed FAP or to an accepted
    earlier candidate is rejected.

    One `_neighbor_table` pass at reach `sep` over the placed FAPs followed
    by the block finds every close pair.  No two placed FAPs are that
    close, so the rule visits only the candidates with an earlier close
    point.
    """
    points = np.concatenate([placed, block])
    ptr, nbr, dist = _neighbor_table(points, sep)
    accepted = [True] * len(points)
    for k, earlier in _earlier(ptr, nbr, dist < sep):
        accepted[k] = not any(accepted[e] for e in earlier)
    return np.array(accepted[len(placed):], dtype=bool)


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

    The uniform draws come from the generator in blocks of two per missing
    FAP, which yields the same doubles in the same order as one scalar draw
    each, and a block of candidates is settled at once (`_first_come`).  So
    the positions are those of the scalar loop that tests each candidate
    against every placed FAP.

    Raises PlacementInfeasibleError when the disc cannot hold `count` sites
    at the requested separation, or when 200 candidates per FAP were tried.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    macro = macro or MacroGeometry()

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
    buf = np.empty((count, 2))
    placed = 0
    if count > 0:
        buf[0] = (REFERENCE_FAP_DISTANCE, 0.0)
        placed = 1

    max_attempts = 200 * max(count, 1)
    attempts = 0
    while placed < count:
        if attempts >= max_attempts:
            raise PlacementInfeasibleError(
                f"placed only {placed}/{count} FAPs "
                f"after {max_attempts} attempts"
            )
        draws = rng.random(2 * (count - placed))
        # the scalar loop stops after max_attempts candidates, so the rest
        # of a block past that budget is never tried
        tried = min(count - placed, max_attempts - attempts)
        # uniform over the disc via sqrt radius; the scalar math functions
        # keep every bit of the scalar loop, numpy only multiplies
        rad = r * np.array(list(map(math.sqrt, draws[0:2 * tried:2].tolist())))
        ang = (2.0 * math.pi * draws[1:2 * tried:2]).tolist()
        block = np.column_stack([rad * np.array(list(map(math.cos, ang))),
                                 rad * np.array(list(map(math.sin, ang)))])
        if sep > 0:
            block = block[_first_come(buf[:placed], block, sep)]
        buf[placed:placed + len(block)] = block
        placed += len(block)
        attempts += tried
    femtos = [FemtoSite(i, (x, y)) for i, (x, y) in enumerate(buf.tolist())]

    return CellTopology(
        macro_radius_m=macro.macro_radius_m,
        femto_radius_m=macro.femto_radius_m,
        macro_sites=[(0.0, 0.0)] + first_tier_ring(macro.macro_radius_m),
        femtocells=femtos,
        neighbor_threshold_m=macro.neighbor_threshold_m,
        macro_ue_walls=macro.macro_ue_walls,
        inter_femto_walls=macro.inter_femto_walls,
    )
