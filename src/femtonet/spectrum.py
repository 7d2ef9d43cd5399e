"""Frequency band partitioning and the five femto/macro allocation schemes.

Bands are half-open intervals [lo, hi) in Hz so tilings are exact.  The
reference macrocell uses band Bm1 of a 3-cell cluster; its femtocells draw
from Bm2 (femtocell centers) and Bm3 (femtocell edges).  Under dynamic reuse
the edge spectrum Bm3 is subdivided two ways -- into halves B4/B5 and thirds
B1/B2/B3 -- and edge bands are auto-assigned so that interfering femtocells
never hold the same edge band.  The dedicated and sub-band schemes split the
whole band BT at the femto fraction into Bf (femtocells) and Bm (macrocells).
The label -> Band table is built once per (total band, femto fraction), and
each plan holds its own copy.  A plan holds one label per femtocell: the edge
band under dynamic reuse, else its only band.

`SpectrumPlan.interferers` is the one interference relation, scanned from
the FAP's row of the neighbor table.  A plan holds only its labels and
radii.  Each call that changes a dynamic-reuse plan (`build_plan`,
`configure_new_femto`, `remove_femto`) keeps the relation of the members it
reads, with each pair's table distance, for as long as it runs: a join
reads the newcomer's row once, a shrink drops the pairs that the smaller
radius breaks, from the kept distances, and a leave takes the FAP out of
every list it was in.  So a whole build reads the table once per FAP, and
nothing outlives the call.  Every configuration, shrink and repair step
reads that one relation in place, with no copy of a list, and sorts a list
only where its order picks the result.  Static reuse reads
`CellTopology.earlier_within`, so no plan makes a distance row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import topology as topo_mod
from ._checks import require
from .topology import INTERFERENCE_RADIUS_SCALE, CellTopology, UnknownSiteError

SCHEMES = ("dedicated", "shared", "sub", "static-reuse", "dynamic-reuse")

DEFAULT_TOTAL_HZ = 18e6
DEFAULT_FEMTO_FRACTION = 1.0 / 3.0  # dedicated / sub-band femto share
DEFAULT_EDGE_FRACTION = 0.6  # UE is "edge" beyond this fraction of r_f
CENTER_BAND = "Bm2"  # shared by every dynamic-reuse femtocell
SHRINK_FACTOR = 0.8
MAX_SHRINK_STEPS = 3

# single-band schemes: scheme -> (macro label, femto label)
_SINGLE_BAND = {"shared": ("BT", "BT"), "sub": ("BT", "Bf"), "dedicated": ("Bm", "Bf")}
# one-interferer edge selection (pseudocode lines 7-20)
_CYCLIC_EDGE = {"B5": "B4", "B4": "B5", "B1": "B2", "B2": "B3", "B3": "B1"}
_THIRDS = ("B1", "B2", "B3")
_EDGE_LABELS = ("B4", "B5", "B1", "B2", "B3")


class PlanConfigError(ValueError):
    """Bad plan parameters (e.g. femto fraction outside (0, 1))."""


@dataclass(frozen=True)
class Band:
    lo: float
    hi: float
    label: str

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def __post_init__(self):
        if not self.hi > self.lo:
            raise ValueError(f"empty band {self.label}: [{self.lo}, {self.hi})")


def bands_overlap(a: Band, b: Band) -> bool:
    """True iff the two frequency intervals intersect with positive measure."""
    return max(a.lo, b.lo) < min(a.hi, b.hi)


@functools.lru_cache
def _band_table(total_hz: float, femto_fraction: float) -> dict[str, Band]:
    """Every labelled band: BT, the cluster bands Bm1-Bm3, the thirds B1-B3
    and halves B4/B5 of the edge spectrum Bm3, and the Bf/Bm split of BT."""
    w = total_hz / 3.0
    macro = [Band(i * w, (i + 1) * w, f"Bm{i + 1}") for i in range(3)]
    edge = macro[2]
    third, half = edge.width / 3.0, edge.width / 2.0
    split = total_hz * femto_fraction
    bands = [
        Band(0.0, total_hz, "BT"),
        *macro,
        *(Band(edge.lo + i * third, edge.lo + (i + 1) * third, f"B{i + 1}") for i in range(3)),
        Band(edge.lo, edge.lo + half, "B4"),
        Band(edge.lo + half, edge.hi, "B5"),
        Band(0.0, split, "Bf"),
        Band(split, total_hz, "Bm"),
    ]
    return {b.label: b for b in bands}  # cached: each plan copies it


@dataclass
class SpectrumPlan:
    """Band assignments for every macro BS and femtocell.

    `femto_band` maps a femtocell id to its one band, or under dynamic reuse
    to its edge band (None until `configure_new_femto` picks it).

    The constructor rejects an unknown scheme, a non-positive total band and
    a femto fraction outside (0, 1), then copies the band table.
    Mutation (configure/remove under dynamic reuse) is single-writer; reads
    write nothing, so they may be concurrent between mutations.

    Plans come only from `build_plan`, so no cell is ever wider than the
    nominal radius: a shrink (`_Relation.shrink`) is the only writer of
    `radius_of` and it only lowers a radius (`remove_femto` only deletes).
    Two interfering cells are therefore within the neighbor table's reach of
    each other, and a scan for interferers reads the FAP's row of the table;
    it raises ValueError for a cell wider than the nominal radius.  The plan
    keeps no interference relation: every read scans, so a read sees
    `femto_band` and `radius_of` as they are, however they were changed.
    """

    scheme: str
    total_hz: float
    femto_fraction: float = DEFAULT_FEMTO_FRACTION
    edge_fraction: float = DEFAULT_EDGE_FRACTION
    macro_assignment: dict[int, str] = field(default_factory=dict, init=False)
    femto_band: dict[int, str | None] = field(default_factory=dict, init=False)
    radius_of: dict[int, float] = field(default_factory=dict, init=False)
    events: list[tuple] = field(default_factory=list, init=False)
    branch_counts: dict[str, int] = field(default_factory=dict, init=False)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise PlanConfigError(f"unknown scheme {self.scheme!r}")
        if not math.inf > self.total_hz > 0:
            raise PlanConfigError(f"total_hz (the total bandwidth) must be finite and > 0, "
                                  f"got {self.total_hz!r}")
        if not 0.0 < self.femto_fraction < 1.0:
            raise PlanConfigError("femto fraction must lie in (0, 1)")
        if not 0.0 <= self.edge_fraction <= 1.0:
            raise PlanConfigError(f"edge_fraction must lie in [0, 1], got {self.edge_fraction!r}")
        self._bands = dict(_band_table(self.total_hz, self.femto_fraction))

    def band(self, label: str) -> Band:
        try:
            return self._bands[label]
        except KeyError:
            raise KeyError(f"unknown band label {label!r}") from None

    def macro_band(self, macro_index: int) -> Band:
        return self.band(self.macro_assignment[macro_index])

    def femto_label(self, fap_id: int) -> str | None:
        if fap_id not in self.femto_band:
            raise UnknownSiteError(f"femtocell {fap_id} not in plan")
        return self.femto_band[fap_id]

    def femto_radius(self, fap_id: int, topo: CellTopology) -> float:
        return self.radius_of.get(fap_id, topo.femto_radius_m)

    def band_for_link(self, fap_id: int, xy, topo: CellTopology) -> Band:
        """Band a FAP's transmission occupies toward a given position.

        Under dynamic reuse the center band serves positions inside the
        inner circle and the edge band serves the fringe; all other schemes
        use the femtocell's single band everywhere.  The center/edge split
        uses the nominal deployment radius: cell-size re-adjustment narrows
        the interference coordination reach, not the frequency regions.
        """
        label = self.femto_label(fap_id)
        if self.scheme == "dynamic-reuse":
            d = topo_mod.distance(topo, fap_id, tuple(xy))
            if d <= self.edge_fraction * topo.femto_radius_m:
                label = CENTER_BAND
        return self.band(label)

    def interferer_band(self, fap_id: int) -> Band:
        """Band a FAP's emission occupies beyond its own coverage.

        Under dynamic reuse the SON power adjustment confines the shared
        center band to the inner region, so only the edge band reaches the
        users of other cells; the single-band schemes radiate their one
        band everywhere.
        """
        return self.band(self.femto_label(fap_id))

    # -- interference relation -------------------------------------------

    def interferers(self, topo: CellTopology, fap_id: int) -> list[int]:
        """Femtocells within mutual interference range of `fap_id`,
        ascending."""
        return sorted(self._scan(topo, fap_id))

    def _scan(self, topo: CellTopology, fap_id: int) -> dict[int, float]:
        """{member: distance} for the members within mutual interference
        range of `fap_id`, from its neighbor-table row."""
        r = self.femto_radius(fap_id, topo)
        band, radius_of, nominal, ids = (self.femto_band, self.radius_of,
                                         topo.femto_radius_m, topo.femtocells)
        if r > nominal:  # its pairs could lie beyond the table's reach
            raise ValueError(f"femtocell {fap_id} is wider ({r!r} m) than the "
                             f"nominal radius of {nominal!r} m")
        hits = {}
        for k, d in zip(*topo.row(fap_id)):
            other = ids[k]
            if other in band and d <= INTERFERENCE_RADIUS_SCALE * (
                    r + radius_of.get(other, nominal)):
                hits[other] = d
        return hits

    def edge_conflicts(self, topo: CellTopology) -> list[tuple[int, int]]:
        """Pairs of interfering femtocells sharing an edge band (should be [])."""
        if self.scheme != "dynamic-reuse":
            return []
        edge = self.femto_band
        return sorted((a, b) for a in edge for b in self.interferers(topo, a)
                      if a < b and edge[a] == edge[b])


# ---------------------------------------------------------------------------
# plan construction


def build_plan(
    scheme: str,
    topo: CellTopology,
    total_hz: float = DEFAULT_TOTAL_HZ,
    femto_fraction: float = DEFAULT_FEMTO_FRACTION,
    seed: int = 0,
    edge_fraction: float = DEFAULT_EDGE_FRACTION,
) -> SpectrumPlan:
    """Construct a SpectrumPlan satisfying the scheme's set relations.
    The plan's constructor checks the scheme and the band parameters."""
    plan = SpectrumPlan(scheme, total_hz, femto_fraction, edge_fraction)

    n_macro = len(topo.macro_sites)
    if scheme in _SINGLE_BAND:
        macro, femto = _SINGLE_BAND[scheme]
        plan.macro_assignment = {j: macro for j in range(n_macro)}
        plan.femto_band = dict.fromkeys(topo.femtocells, femto)
        return plan
    # reuse schemes: reference macro on Bm1, first tier alternating
    plan.macro_assignment = {0: "Bm1"}
    for j in range(1, n_macro):
        plan.macro_assignment[j] = "Bm2" if j % 2 == 1 else "Bm3"
    if scheme == "static-reuse":
        _assign_static(plan, topo, seed)
    else:
        rel = _Relation(plan, topo)  # one for the whole build
        for f in topo.femtocells:
            _configure(rel, f)
    return plan


def _assign_static(plan: SpectrumPlan, topo: CellTopology, seed: int) -> None:
    """Static reuse: each femto takes Bm2 or Bm3, differing from femtocells
    whose coverage discs overlap where possible, random otherwise.  The
    plan is fresh, so every cell has the nominal radius.

    The earlier overlapping FAPs of every FAP come from
    `CellTopology.earlier_within`, and the coin flips are drawn as one block
    that is read in order; a block gives the same flips as one scalar draw
    each.  A FAP with no earlier overlapping FAP has both bands free and
    takes the next flip, so the Python loop visits only the FAPs that have
    one, and each run of FAPs between two of them takes its flips as one
    slice."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    n = len(topo.femtocells)
    flips = rng.integers(2, size=n).tolist()
    bands = ("Bm2", "Bm3")
    picks = []  # index into bands, per FAP in femtocells order
    drawn = 0
    for k, earlier in topo.earlier_within(topo.femto_radius_m + topo.femto_radius_m):
        run = k - len(picks)
        picks += flips[drawn:drawn + run]
        drawn += run
        used = {picks[j] for j in earlier}
        if len(used) == 1:
            picks.append(1 - used.pop())  # the one band left free
        else:  # both taken: a coin flip
            picks.append(flips[drawn])
            drawn += 1
    picks += flips[drawn:drawn + n - len(picks)]
    plan.femto_band.update(zip(topo.femtocells, (bands[pick] for pick in picks)))


# ---------------------------------------------------------------------------
# dynamic reuse auto-configuration


class _Relation(dict):
    """The interference relation of a dynamic-reuse plan's members while one
    call changes the plan: {member: {interferer: table distance}}.

    A member's list is scanned from its table row when first read, and then
    kept.  Its three writers keep every list read so far exact: a join reads
    the newcomer's row once, a shrink drops the pairs that the smaller
    radius breaks (radii only shrink, so no pair appears) and a leave drops
    the FAP from every list it was in.  An edge-label move touches nothing.
    The dynamic-reuse steps read the lists in place and copy none, so each
    step sees the relation as the last shrink or leave left it.
    """

    def __init__(self, plan: SpectrumPlan, topo: CellTopology):
        super().__init__()
        self.plan, self.topo = plan, topo

    def __missing__(self, fap_id: int) -> dict[int, float]:
        row = self[fap_id] = self.plan._scan(self.topo, fap_id)
        return row

    def join(self, fap_id: int) -> None:
        """Make fap_id a member with no edge band yet; a newcomer enters the
        list of each FAP it lists.  A member reconfigured keeps its list."""
        band = self.plan.femto_band
        newcomer = fap_id not in band
        band[fap_id] = None
        if newcomer:
            for other, d in self[fap_id].items():
                if other in self:
                    self[other][fap_id] = d

    def shrink(self, fap_id: int, radius: float) -> None:
        """Lower fap_id's radius to `radius` and drop the pairs that it breaks."""
        row, radius_of, nominal = self[fap_id], self.plan.radius_of, self.topo.femto_radius_m
        radius_of[fap_id] = radius
        for other, d in list(row.items()):
            if d > INTERFERENCE_RADIUS_SCALE * (radius + radius_of.get(other, nominal)):
                del row[other]
                if other in self:
                    del self[other][fap_id]

    def leave(self, fap_id: int) -> None:
        """Drop the member fap_id from the plan and from every list it was in."""
        row = self[fap_id]
        del self[fap_id]
        for other in row:
            if other in self:
                del self[other][fap_id]
        del self.plan.femto_band[fap_id]
        self.plan.radius_of.pop(fap_id, None)


def _free_third(used: set[str]) -> str | None:
    for lab in _THIRDS:
        if lab not in used:
            return lab
    return None


def _used_edges(plan: SpectrumPlan, others: dict[int, float]) -> list[str]:
    return [plan.femto_band[i] for i in others if plan.femto_band[i] is not None]


def _labels_exhausted(plan: SpectrumPlan, others: dict[int, float]) -> bool:
    return set(_EDGE_LABELS) <= set(_used_edges(plan, others))


def _free_label(plan: SpectrumPlan, others: dict[int, float]) -> str:
    """First edge label unused by `others`; least-used as last resort."""
    used = _used_edges(plan, others)
    for lab in _EDGE_LABELS:
        if lab not in used:
            return lab
    return min(_EDGE_LABELS, key=lambda lab: (used.count(lab), _EDGE_LABELS.index(lab)))


def configure_new_femto(plan: SpectrumPlan, topo: CellTopology, new_id: int) -> str:
    """Select the edge band of a newly installed femtocell and return it;
    its center band is CENTER_BAND.

    Reproduces the 0/1/2-interferer case analysis of the dynamic-reuse
    configuration algorithm; three mutually interfering femtocells take the
    lowest free third, and more than three trigger cell-size shrinking
    before a band is forced.  Transactional: on error the plan is unchanged.
    """
    if plan.scheme != "dynamic-reuse":
        raise PlanConfigError("configure_new_femto requires a dynamic-reuse plan")
    topo.index_of(new_id)
    return _configure(_Relation(plan, topo), new_id)


def _configure(rel: _Relation, new_id: int) -> str:
    """`configure_new_femto` on the relation of the call that changes the plan."""
    plan = rel.plan
    rel.join(new_id)
    if (_mutual_overlap_count(rel, new_id) > 3
            or _labels_exhausted(plan, rel[new_id])):
        _count_branch(plan, "shrink")
        _shrink_until_manageable(rel, new_id)

    interf = rel[new_id]
    if len(interf) == 0:
        _count_branch(plan, "0")
        plan.femto_band[new_id] = "Bm3"
    elif len(interf) == 1:
        _count_branch(plan, "1")
        _configure_one(rel, new_id, *interf)
    elif len(interf) == 2:
        a, b = sorted(interf)
        mutual = b in rel[a]
        _count_branch(plan, "2" if mutual else "2-independent")
        _configure_two(rel, new_id, a, b, mutual)
    else:
        _count_branch(plan, "3")
        _configure_many(rel, new_id)

    _repair_conflicts(rel, {new_id, *interf})
    return plan.femto_band[new_id]


def _count_branch(plan, label: str) -> None:
    plan.branch_counts[label] = plan.branch_counts.get(label, 0) + 1


def _mutual_overlap_count(rel: _Relation, new_id: int) -> int:
    """Size of the largest set of femtocells that all overlap one another,
    counting the newcomer: the newcomer plus the largest pairwise-interfering
    clique among its interferers.  Greedy lower bound is enough here -- the
    shrink path only needs to know whether more than three cells overlap.
    The greedy clique visits the interferers in ascending order."""
    interf = sorted(rel[new_id])
    if len(interf) < 3:
        return len(interf) + 1
    best = 1
    for anchor in interf:
        clique = {anchor}
        for cand in interf:
            if cand != anchor and clique <= rel[cand].keys():
                clique.add(cand)
        best = max(best, len(clique))
    return best + 1


def _configure_one(rel: _Relation, new_id: int, other: int) -> None:
    plan = rel.plan
    e = plan.femto_band[other]
    if e == "Bm3":
        # the incumbent held the whole edge spectrum; split into halves
        plan.femto_band[other] = "B4"
        plan.femto_band[new_id] = "B5"
    else:
        plan.femto_band[new_id] = _CYCLIC_EDGE.get(e) or _free_label(plan, rel[new_id])


def _configure_two(rel: _Relation, new_id: int, a: int, b: int, mutual: bool) -> None:
    """Two interferers, a < b."""
    plan = rel.plan
    ea, eb = plan.femto_band[a], plan.femto_band[b]
    if mutual and {ea, eb} == {"B4", "B5"}:
        # pseudocode lines 23-26: move the incumbents onto thirds
        plan.femto_band[a if ea == "B4" else b] = "B1"
        plan.femto_band[a if ea == "B5" else b] = "B2"
        plan.femto_band[new_id] = "B3"
    elif mutual:
        # the many-interferer rule; it maps {B1,B2} -> B3 as the table does
        _configure_many(rel, new_id)
    else:
        # interferers not in range of each other: single-interferer rule
        # against the first, then verify against the second
        _configure_one(rel, new_id, a)
        if plan.femto_band[new_id] in (plan.femto_band[a], plan.femto_band[b]):
            plan.femto_band[new_id] = _free_label(plan, rel[new_id])


def _configure_many(rel: _Relation, new_id: int) -> None:
    """Whole-band incumbents move first, in ascending order."""
    plan = rel.plan
    interf = sorted(rel[new_id])
    for fid in interf:
        if plan.femto_band[fid] == "Bm3":
            plan.femto_band[fid] = _free_label(plan, rel[fid])
    used = {plan.femto_band[i] for i in interf}
    plan.femto_band[new_id] = _free_third(used) or _free_label(plan, rel[new_id])


def _shrink_one(rel: _Relation, fid: int) -> bool:
    """One 20% radius step; False once the max-step floor is reached."""
    floor = rel.topo.femto_radius_m * SHRINK_FACTOR ** MAX_SHRINK_STEPS
    current = rel.plan.femto_radius(fid, rel.topo)
    if current <= floor + 1e-12:
        return False
    rel.shrink(fid, SHRINK_FACTOR * current)
    return True


def _shrink_until_manageable(rel: _Relation, new_id: int) -> None:
    """Cell-size re-adjustment: more than three mutually overlapping cells,
    or no conflict-free edge band left for the newcomer.  Each step shrinks
    the newcomer and its interferers, and its event records the newcomer's
    interferers, ascending, as they were before it."""
    plan = rel.plan
    for _ in range(MAX_SHRINK_STEPS):
        before = tuple(sorted(rel[new_id]))
        progressed = any([_shrink_one(rel, fid) for fid in (new_id, *before)])
        plan.events.append(("shrink", new_id, before))
        if (_mutual_overlap_count(rel, new_id) <= 3
                and not _labels_exhausted(plan, rel[new_id])):
            return
        if not progressed:
            break
    plan.events.append(("shrink-failed", new_id, tuple(sorted(rel[new_id]))))


def _repair_conflicts(rel: _Relation, cells: set[int]) -> None:
    """Clear residual same-edge conflicts among the interfering pairs of
    `cells` (reassignments may collide with an unexamined third party): the
    highest id in any conflicted pair moves, and joins `cells`.  When it has
    no free band left, it and its interferers shrink one step, per the
    automatic cell-size re-adjustment.  Every list is read from the relation
    as it stands, so a shrink needs no re-read.

    When the steps run out while a pair of `cells` still conflicts, the
    repair records `repair-exhausted`; that end test reads the pairs as each
    step does.  A conflict outside those pairs does not count.  Every label
    that a configuration or repair changes belongs to a FAP of `cells`, so
    only an earlier exhausted repair, which recorded its own event, leaves
    such a conflict; a test pins that it does not make a later repair
    record one."""
    plan = rel.plan
    band = plan.femto_band
    steps = 8 * (MAX_SHRINK_STEPS + 1)
    for step in range(steps + 1):
        loser = max((max(fid, other) for fid in cells for other in rel[fid]
                     if band[other] == band[fid]), default=None)
        if loser is None:
            return
        if step == steps:
            plan.events.append(("repair-exhausted", tuple(sorted(cells))))
            return
        cells.add(loser)
        if _labels_exhausted(plan, rel[loser]):
            shrunk = _shrink_one(rel, loser)
            for nid in list(rel[loser]):
                shrunk |= _shrink_one(rel, nid)
            plan.events.append(("shrink", loser, ()))
            if not shrunk:
                plan.events.append(("repair-exhausted", (loser,)))
        band[loser] = _free_label(plan, rel[loser])


def remove_femto(plan: SpectrumPlan, topo: CellTopology, fap_id: int) -> SpectrumPlan:
    """Drop a femtocell from the plan.

    Removing a node cannot introduce a same-edge conflict between survivors,
    so reconfiguration is a defensive re-check limited to former interferers.
    """
    plan.femto_label(fap_id)
    if plan.scheme != "dynamic-reuse":
        del plan.femto_band[fap_id]
        return plan
    rel = _Relation(plan, topo)
    former = set(rel[fap_id])
    rel.leave(fap_id)
    _repair_conflicts(rel, former)
    return plan


# ---------------------------------------------------------------------------
# scheme set-relation checks (exact interval identities)


def verify_plan_relations(plan: SpectrumPlan) -> None:
    """Check the scheme's band-set identities; raises AssertionError."""
    bt = plan.band("BT")
    if plan.scheme == "dedicated":
        bm, bf = plan.band("Bm"), plan.band("Bf")
        require(not bands_overlap(bm, bf), "dedicated: Bm and Bf overlap")
        require(math.isclose(bm.width + bf.width, bt.width),
                "dedicated: Bm and Bf widths do not add up to BT")
        require(min(bm.lo, bf.lo) == bt.lo and max(bm.hi, bf.hi) == bt.hi,
                "dedicated: Bm and Bf do not span BT")
    elif plan.scheme == "shared":
        for lab in plan.macro_assignment.values():
            require(plan.band(lab) == bt, "shared: a macro BS uses %s, not BT", lab)
        for lab in plan.femto_band.values():
            require(plan.band(lab) == bt, "shared: a femtocell uses %s, not BT", lab)
    elif plan.scheme == "sub":
        bf = plan.band("Bf")
        require(bt.lo <= bf.lo and bf.hi <= bt.hi and bf.width < bt.width,
                "sub: Bf is not a proper sub-band of BT")
    else:
        m1, m2, m3 = (plan.band(lab) for lab in ("Bm1", "Bm2", "Bm3"))
        require(math.isclose(m1.width, m2.width) and math.isclose(m2.width, m3.width),
                "%s: Bm1, Bm2 and Bm3 differ in width", plan.scheme)
        require(math.isclose(m1.width + m2.width + m3.width, bt.width),
                "%s: Bm1, Bm2 and Bm3 do not add up to BT", plan.scheme)
        for fap, lab in plan.femto_band.items():
            if lab is not None:
                require(not bands_overlap(plan.band(lab), m1),
                        "%s: femtocell %s band %s overlaps Bm1", plan.scheme, fap, lab)
