"""Geometric model of one macrocell cluster with randomly placed femtocells.

The reference macrocell BS sits at the origin; the six first-tier macrocell
BSs form a hexagonal ring at distance 2*r_m*cos(30 deg).  Femto access points
(FAPs) are dropped uniformly over the reference macrocell disc with a minimum
pairwise separation, which makes local neighbor counts Poisson-like.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Fixed reference geometry (distances in meters)
DEFAULT_MACRO_RADIUS = 1000.0
DEFAULT_FEMTO_RADIUS = 10.0
DEFAULT_NEIGHBOR_THRESHOLD = 60.0
DEFAULT_MIN_SEPARATION = 2.0
REFERENCE_FAP_DISTANCE = 200.0  # reference FAP pinned at this range from the BS
FIRST_TIER_SIZE = 6


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
        if not self.macro_radius_m > self.femto_radius_m > 0:
            raise ValueError("require macro_radius_m > femto_radius_m > 0")


@dataclass
class FemtoSite:
    id: int
    position: tuple[float, float]
    access_mode: str = "open"  # "open" | "closed"
    walls_to: dict[int, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.access_mode not in ("open", "closed"):
            raise ValueError(f"bad access_mode {self.access_mode!r}")
        if any(w < 0 for w in self.walls_to.values()):
            raise ValueError("wall counts must be >= 0")


@dataclass
class CellTopology:
    """Immutable after construction; safe for concurrent read-only use."""

    macro_radius_m: float
    femto_radius_m: float
    macro_sites: list[tuple[float, float]]
    femtocells: list[FemtoSite]
    neighbor_threshold_m: float = DEFAULT_NEIGHBOR_THRESHOLD
    macro_ue_walls: int = 1
    inter_femto_walls: int = 1

    def __post_init__(self):
        ids = [f.id for f in self.femtocells]
        if len(ids) != len(set(ids)):
            raise ValueError("femtocell ids must be unique")
        self._by_id = {f.id: f for f in self.femtocells}
        self._pos = (
            np.array([f.position for f in self.femtocells], dtype=float)
            if self.femtocells
            else np.zeros((0, 2))
        )

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

    def site(self, fap_id: int) -> FemtoSite:
        try:
            return self._by_id[fap_id]
        except KeyError:
            raise UnknownSiteError(f"unknown femtocell id {fap_id}") from None

    def walls_between(self, a: int, b: int) -> int:
        """Wall count on the inter-femtocell path (default one wall)."""
        if a == b:
            return 0
        site = self.site(a)
        self.site(b)
        return site.walls_to.get(b, self.inter_femto_walls)


def distance(topo: CellTopology, a, b) -> float:
    """Euclidean distance; endpoints may be femto ids or (x, y) positions."""
    if isinstance(a, int):
        pa = topo.site(a).position
    else:
        pa = a
        if not (math.isfinite(a[0]) and math.isfinite(a[1])):
            raise ValueError("positions must be finite")
    if isinstance(b, int):
        pb = topo.site(b).position
    else:
        pb = b
        if not (math.isfinite(b[0]) and math.isfinite(b[1])):
            raise ValueError("positions must be finite")
    return math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def neighbors_of(topo: CellTopology, fap_id: int) -> frozenset[int]:
    """Ids of femtocells within neighbor_threshold_m of the given FAP."""
    site = topo.site(fap_id)
    return frozenset(within(topo, site.position, topo.neighbor_threshold_m)) - {fap_id}


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


def place_femtocells(
    seed: int,
    count: int,
    macro: MacroGeometry | None = None,
) -> CellTopology:
    """Drop `count` open-access FAPs uniformly inside the reference macrocell
    disc.

    Positions closer than the minimum separation to an existing FAP are
    rejected and redrawn, so the same (seed, params) always yields the same
    topology.  Femtocell 0 is placed at the fixed reference range from the
    BS instead of being sampled.

    Raises PlacementInfeasibleError when the disc cannot hold `count` sites
    at the requested separation.
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
    buf = np.empty((count, 2)) if count else np.zeros((0, 2))
    placed = 0
    if count > 0:
        buf[0] = (REFERENCE_FAP_DISTANCE, 0.0)
        placed = 1

    max_attempts = 200 * max(count, 1)
    attempts = 0
    while placed < count:
        attempts += 1
        if attempts > max_attempts:
            raise PlacementInfeasibleError(
                f"placed only {placed}/{count} FAPs "
                f"after {max_attempts} attempts"
            )
        # uniform over the disc via sqrt radius
        rad = r * math.sqrt(rng.random())
        ang = 2.0 * math.pi * rng.random()
        x, y = rad * math.cos(ang), rad * math.sin(ang)
        if placed and np.min(np.hypot(buf[:placed, 0] - x, buf[:placed, 1] - y)) < sep:
            continue
        buf[placed] = (x, y)
        placed += 1
    femtos = [FemtoSite(id=i, position=tuple(row)) for i, row in enumerate(buf)]

    return CellTopology(
        macro_radius_m=macro.macro_radius_m,
        femto_radius_m=macro.femto_radius_m,
        macro_sites=[(0.0, 0.0)] + first_tier_ring(macro.macro_radius_m),
        femtocells=femtos,
        neighbor_threshold_m=macro.neighbor_threshold_m,
        macro_ue_walls=macro.macro_ue_walls,
        inter_femto_walls=macro.inter_femto_walls,
    )
