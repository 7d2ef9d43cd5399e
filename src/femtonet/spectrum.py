"""Frequency band partitioning and the five femto/macro allocation schemes.

Bands are half-open intervals [lo, hi) in Hz so tilings are exact.  The
reference macrocell uses band Bm1 of a 3-cell cluster; its femtocells draw
from Bm2 (femtocell centers) and Bm3 (femtocell edges).  Under dynamic reuse
the edge spectrum Bm3 is subdivided two ways -- into halves B4/B5 and thirds
B1/B2/B3 -- and edge bands are auto-assigned so that interfering femtocells
never hold the same edge band.  The dedicated and sub-band schemes split the
whole band BT at the femto fraction into Bf (femtocells) and Bm (macrocells).
Each plan computes this label -> Band table once, when it is made.

`SpectrumPlan.interferers` is the one interference relation; each dynamic-reuse
configuration step reads a FAP's list once and hands it to the helpers.  It
and static reuse read the topology's neighbor table, not distance rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import topology as topo_mod
from .topology import INTERFERENCE_RADIUS_SCALE, CellTopology, UnknownSiteError

SCHEMES = ("dedicated", "shared", "sub", "static-reuse", "dynamic-reuse")

DEFAULT_TOTAL_HZ = 18e6
DEFAULT_FEMTO_FRACTION = 1.0 / 3.0  # dedicated / sub-band femto share
DEFAULT_EDGE_FRACTION = 0.6  # UE is "edge" beyond this fraction of r_f
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
    return {b.label: b for b in bands}


@dataclass
class FemtoBandAssignment:
    center_label: str
    edge_label: str | None


@dataclass
class SpectrumPlan:
    """Band assignments for every macro BS and femtocell.

    The constructor rejects an unknown scheme, a non-positive total band and
    a femto fraction outside (0, 1), then builds the band table once.
    Mutation (configure/remove under dynamic reuse) is single-writer; reads
    may be concurrent between mutations.

    The constructor also records the widest radius it was given.  No cell
    is ever wider than that or the nominal radius: `_shrink_one` is the only
    code that sets a radius, and it only lowers one (`remove_femto` only
    deletes), so `interferers` bounds its search by the two without
    scanning `radius_of`.
    """

    scheme: str
    total_hz: float
    macro_assignment: dict[int, str]
    femto_assignment: dict[int, FemtoBandAssignment]
    femto_fraction: float = DEFAULT_FEMTO_FRACTION
    edge_fraction: float = DEFAULT_EDGE_FRACTION
    radius_of: dict[int, float] = field(default_factory=dict)
    events: list[tuple] = field(default_factory=list)
    branch_counts: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise PlanConfigError(f"unknown scheme {self.scheme!r}")
        if not self.total_hz > 0:
            raise PlanConfigError("total bandwidth must be positive")
        if not 0.0 < self.femto_fraction < 1.0:
            raise PlanConfigError("femto fraction must lie in (0, 1)")
        self._bands = _band_table(self.total_hz, self.femto_fraction)
        self._widest = max(self.radius_of.values(), default=0.0)

    def band(self, label: str) -> Band:
        try:
            return self._bands[label]
        except KeyError:
            raise KeyError(f"unknown band label {label!r}") from None

    def macro_band(self, macro_index: int) -> Band:
        return self.band(self.macro_assignment[macro_index])

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
        a = self.femto_assignment[fap_id]
        if self.scheme != "dynamic-reuse":
            return self.band(a.center_label)
        d = topo_mod.distance(topo, fap_id, tuple(xy))
        inner = self.edge_fraction * topo.femto_radius_m
        return self.band(a.center_label if d <= inner else a.edge_label)

    def interferer_band(self, fap_id: int) -> Band:
        """Band a FAP's emission occupies beyond its own coverage.

        Under dynamic reuse the SON power adjustment confines the shared
        center band to the inner region, so only the edge band reaches the
        users of other cells; the single-band schemes radiate their one
        band everywhere.
        """
        a = self.femto_assignment[fap_id]
        if self.scheme == "dynamic-reuse":
            return self.band(a.edge_label)
        return self.band(a.center_label)

    # -- interference relation -------------------------------------------

    def interferers(self, topo: CellTopology, fap_id: int) -> list[int]:
        """Femtocells within mutual interference range of `fap_id`: the one
        interference relation, read once per FAP by each configuration step."""
        r = self.femto_radius(fap_id, topo)
        # no radius exceeds the widest one, so this keeps every interferer
        widest = max(topo.femto_radius_m, self._widest)
        idx, dist = topo.near(fap_id, INTERFERENCE_RADIUS_SCALE * (r + widest))
        hits = []
        for k, d in zip(idx.tolist(), dist.tolist()):
            other = topo.femtocells[k].id
            if (other in self.femto_assignment
                    and d <= INTERFERENCE_RADIUS_SCALE * (r + self.femto_radius(other, topo))):
                hits.append(other)
        return sorted(hits)

    def edge_conflicts(self, topo: CellTopology) -> list[tuple[int, int]]:
        """Pairs of interfering femtocells sharing an edge band (should be [])."""
        if self.scheme != "dynamic-reuse":
            return []
        edge = {f: a.edge_label for f, a in self.femto_assignment.items()}
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
    plan = SpectrumPlan(
        scheme=scheme,
        total_hz=total_hz,
        macro_assignment={},
        femto_assignment={},
        femto_fraction=femto_fraction,
        edge_fraction=edge_fraction,
    )

    n_macro = len(topo.macro_sites)
    if scheme in _SINGLE_BAND:
        macro, femto = _SINGLE_BAND[scheme]
        plan.macro_assignment = {j: macro for j in range(n_macro)}
        for f in topo.femto_ids:
            plan.femto_assignment[f] = FemtoBandAssignment(femto, None)
        return plan
    # reuse schemes: reference macro on Bm1, first tier alternating
    plan.macro_assignment = {0: "Bm1"}
    for j in range(1, n_macro):
        plan.macro_assignment[j] = "Bm2" if j % 2 == 1 else "Bm3"
    if scheme == "static-reuse":
        _assign_static(plan, topo, seed)
    else:
        for f in topo.femto_ids:
            configure_new_femto(plan, topo, f)
    return plan


def _assign_static(plan: SpectrumPlan, topo: CellTopology, seed: int) -> None:
    """Static reuse: each femto takes Bm2 or Bm3, differing from femtocells
    whose coverage discs overlap where possible, random otherwise.  The
    plan is fresh, so every cell has the nominal radius."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x57A7)))
    reach = topo.femto_radius_m + topo.femto_radius_m
    picks = []
    for k, site in enumerate(topo.femtocells):
        idx, _ = topo.near(site.id, reach)
        used = {picks[j] for j in idx[idx < k].tolist()}
        free = [b for b in ("Bm2", "Bm3") if b not in used]
        if free:
            pick = free[0] if len(free) == 1 else free[int(rng.integers(2))]
        else:
            pick = ("Bm2", "Bm3")[int(rng.integers(2))]
        picks.append(pick)
        plan.femto_assignment[site.id] = FemtoBandAssignment(pick, None)


# ---------------------------------------------------------------------------
# dynamic reuse auto-configuration


def _edge_of(plan: SpectrumPlan, fid: int) -> str:
    return plan.femto_assignment[fid].edge_label


def _set_edge(plan: SpectrumPlan, fid: int, label: str) -> None:
    plan.femto_assignment[fid].edge_label = label


def _free_third(used: set[str]) -> str | None:
    for lab in _THIRDS:
        if lab not in used:
            return lab
    return None


def _used_edges(plan: SpectrumPlan, others: list[int]) -> list[str]:
    return [_edge_of(plan, i) for i in others if _edge_of(plan, i) is not None]


def _labels_exhausted(plan: SpectrumPlan, others: list[int]) -> bool:
    return set(_EDGE_LABELS) <= set(_used_edges(plan, others))


def _free_label(plan: SpectrumPlan, others: list[int]) -> str:
    """First edge label unused by `others`; least-used as last resort."""
    used = _used_edges(plan, others)
    for lab in _EDGE_LABELS:
        if lab not in used:
            return lab
    return min(_EDGE_LABELS, key=lambda lab: (used.count(lab), _EDGE_LABELS.index(lab)))


def _near(plan: SpectrumPlan, topo: CellTopology, fid: int) -> dict[int, list[int]]:
    """Interferer lists of fid and of each of its interferers.  A list
    changes only when a radius does; edge-label moves leave it as it is."""
    interf = plan.interferers(topo, fid)
    return {fid: interf, **{i: plan.interferers(topo, i) for i in interf}}


def configure_new_femto(
    plan: SpectrumPlan, topo: CellTopology, new_id: int
) -> FemtoBandAssignment:
    """Select center/edge bands for a newly installed femtocell.

    Reproduces the 0/1/2-interferer case analysis of the dynamic-reuse
    configuration algorithm; three mutually interfering femtocells take the
    lowest free third, and more than three trigger cell-size shrinking
    before a band is forced.  Transactional: on error the plan is unchanged.
    """
    if plan.scheme != "dynamic-reuse":
        raise PlanConfigError("configure_new_femto requires a dynamic-reuse plan")
    topo.site(new_id)

    plan.femto_assignment[new_id] = FemtoBandAssignment("Bm2", None)
    near = _near(plan, topo, new_id)

    if (_mutual_overlap_count(near, new_id) > 3
            or _labels_exhausted(plan, near[new_id])):
        _count_branch(plan, "shrink")
        near = _shrink_until_manageable(plan, topo, new_id, near)

    interf = near[new_id]
    if len(interf) == 0:
        _count_branch(plan, "0")
        _set_edge(plan, new_id, "Bm3")
    elif len(interf) == 1:
        _count_branch(plan, "1")
        _configure_one(plan, near, new_id, interf[0])
    elif len(interf) == 2:
        a, b = interf
        mutual = b in near[a]
        _count_branch(plan, "2" if mutual else "2-independent")
        _configure_two(plan, near, new_id, mutual)
    else:
        _count_branch(plan, "3")
        _configure_many(plan, near, new_id)

    _repair_conflicts(plan, topo, near)
    return plan.femto_assignment[new_id]


def _count_branch(plan, label: str) -> None:
    plan.branch_counts[label] = plan.branch_counts.get(label, 0) + 1


def _mutual_overlap_count(near, new_id) -> int:
    """Size of the largest set of femtocells that all overlap one another,
    counting the newcomer: the newcomer plus the largest pairwise-interfering
    clique among its interferers.  Greedy lower bound is enough here -- the
    shrink path only needs to know whether more than three cells overlap."""
    interf = near[new_id]
    if len(interf) < 3:
        return len(interf) + 1
    best = 1
    for anchor in interf:
        clique = [anchor]
        for cand in interf:
            if cand == anchor:
                continue
            if all(member in near[cand] for member in clique):
                clique.append(cand)
        best = max(best, len(clique))
    return best + 1


def _configure_one(plan, near, new_id, other) -> None:
    e = _edge_of(plan, other)
    if e == "Bm3":
        # the incumbent held the whole edge spectrum; split into halves
        _set_edge(plan, other, "B4")
        _set_edge(plan, new_id, "B5")
    else:
        _set_edge(plan, new_id, _CYCLIC_EDGE.get(e) or _free_label(plan, near[new_id]))


def _configure_two(plan, near, new_id, mutual: bool) -> None:
    a, b = near[new_id]
    ea, eb = _edge_of(plan, a), _edge_of(plan, b)
    if mutual:
        pair = {ea, eb}
        if pair == {"B4", "B5"}:
            # pseudocode lines 23-26: move the incumbents onto thirds
            _set_edge(plan, a if ea == "B4" else b, "B1")
            _set_edge(plan, a if ea == "B5" else b, "B2")
            _set_edge(plan, new_id, "B3")
        elif pair == {"B1", "B2"}:
            _set_edge(plan, new_id, "B3")
        elif pair == {"B2", "B3"}:
            _set_edge(plan, new_id, "B1")
        elif pair == {"B3", "B1"}:
            _set_edge(plan, new_id, "B2")
        else:
            # mixed/whole-band pairs are not in the published table: move any
            # whole-band incumbent onto a free third, then take one ourselves
            for fid in (a, b):
                if _edge_of(plan, fid) == "Bm3":
                    _set_edge(plan, fid, _free_label(plan, near[fid]))
            used = {_edge_of(plan, a), _edge_of(plan, b)}
            _set_edge(plan, new_id, _free_third(used) or _free_label(plan, near[new_id]))
    else:
        # interferers not in range of each other: single-interferer rule
        # against the first, then verify against the second
        _configure_one(plan, near, new_id, a)
        if _edge_of(plan, new_id) in (_edge_of(plan, a), _edge_of(plan, b)):
            _set_edge(plan, new_id, _free_label(plan, near[new_id]))


def _configure_many(plan, near, new_id) -> None:
    interf = near[new_id]
    for fid in interf:
        if _edge_of(plan, fid) == "Bm3":
            _set_edge(plan, fid, _free_label(plan, near[fid]))
    used = {_edge_of(plan, i) for i in interf}
    _set_edge(plan, new_id, _free_third(used) or _free_label(plan, near[new_id]))


def _shrink_one(plan, topo, fid) -> bool:
    """One 20% radius step; False once the max-step floor is reached."""
    floor = topo.femto_radius_m * SHRINK_FACTOR ** MAX_SHRINK_STEPS
    current = plan.femto_radius(fid, topo)
    if current <= floor + 1e-12:
        return False
    plan.radius_of[fid] = SHRINK_FACTOR * current
    return True


def _shrink_until_manageable(plan, topo, new_id, near) -> dict[int, list[int]]:
    """Cell-size re-adjustment: more than three mutually overlapping cells,
    or no conflict-free edge band left for the newcomer.  Returns the
    interferer lists at the final radii."""
    for _ in range(MAX_SHRINK_STEPS):
        progressed = False
        for fid in (new_id, *near[new_id]):
            progressed |= _shrink_one(plan, topo, fid)
        plan.events.append(("shrink", new_id, tuple(near[new_id])))
        near = _near(plan, topo, new_id)
        if (_mutual_overlap_count(near, new_id) <= 3
                and not _labels_exhausted(plan, near[new_id])):
            return near
        if not progressed:
            break
    plan.events.append(("shrink-failed", new_id, tuple(near[new_id])))
    return near


def _repair_conflicts(plan, topo, near: dict[int, list[int]]) -> None:
    """Clear residual same-edge conflicts among interfering pairs near the
    cells keyed in `near` (reassignments may collide with an unexamined third
    party).  When a conflicted cell has no free band left, it shrinks step by
    step, per the automatic cell-size re-adjustment; `near` is then re-taken."""
    for _ in range(8 * (MAX_SHRINK_STEPS + 1)):
        conflicts = [max(fid, other) for fid in sorted(near) for other in near[fid]
                     if _edge_of(plan, other) == _edge_of(plan, fid)]
        if not conflicts:
            return
        loser = max(conflicts)
        if loser not in near:
            near[loser] = plan.interferers(topo, loser)
        if _labels_exhausted(plan, near[loser]):
            shrunk = _shrink_one(plan, topo, loser)
            for nid in plan.interferers(topo, loser):
                shrunk |= _shrink_one(plan, topo, nid)
            plan.events.append(("shrink", loser, ()))
            if shrunk:
                near = {f: plan.interferers(topo, f) for f in near}
            else:
                plan.events.append(("repair-exhausted", (loser,)))
        _set_edge(plan, loser, _free_label(plan, near[loser]))
    if plan.edge_conflicts(topo):
        plan.events.append(("repair-exhausted", tuple(sorted(near))))


def remove_femto(plan: SpectrumPlan, topo: CellTopology, fap_id: int) -> SpectrumPlan:
    """Drop a femtocell from the plan.

    Removing a node cannot introduce a same-edge conflict between survivors,
    so reconfiguration is a defensive re-check limited to former interferers.
    """
    if fap_id not in plan.femto_assignment:
        raise UnknownSiteError(f"femtocell {fap_id} not in plan")
    former = plan.interferers(topo, fap_id) if plan.scheme == "dynamic-reuse" else []
    del plan.femto_assignment[fap_id]
    plan.radius_of.pop(fap_id, None)
    if former:
        _repair_conflicts(plan, topo, {f: plan.interferers(topo, f) for f in former})
    return plan


# ---------------------------------------------------------------------------
# structured-text snapshots for scenario replay


def plan_to_text(plan: SpectrumPlan) -> str:
    """Serialize a plan as line-oriented key = value text."""
    lines = [
        f"scheme = {plan.scheme}",
        f"total_hz = {plan.total_hz!r}",
        f"femto_fraction = {plan.femto_fraction!r}",
        f"edge_fraction = {plan.edge_fraction!r}",
    ]
    for j in sorted(plan.macro_assignment):
        lines.append(f"macro.{j} = {plan.macro_assignment[j]}")
    for f in sorted(plan.femto_assignment):
        a = plan.femto_assignment[f]
        lines.append(f"femto.{f} = {a.center_label},{a.edge_label or '-'}")
    for f in sorted(plan.radius_of):
        lines.append(f"radius.{f} = {plan.radius_of[f]!r}")
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> SpectrumPlan:
    """Rebuild a plan from its snapshot; inverse of plan_to_text."""
    fields: dict[str, str] = {}
    macro: dict[int, str] = {}
    femto: dict[int, FemtoBandAssignment] = {}
    radius: dict[int, float] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key.startswith("macro."):
            macro[int(key[6:])] = value
        elif key.startswith("femto."):
            center, _, edge = value.partition(",")
            femto[int(key[6:])] = FemtoBandAssignment(center, None if edge == "-" else edge)
        elif key.startswith("radius."):
            radius[int(key[7:])] = float(value)
        else:
            fields[key] = value
    return SpectrumPlan(
        scheme=fields["scheme"],
        total_hz=float(fields["total_hz"]),
        macro_assignment=macro,
        femto_assignment=femto,
        femto_fraction=float(fields.get("femto_fraction", DEFAULT_FEMTO_FRACTION)),
        edge_fraction=float(fields.get("edge_fraction", DEFAULT_EDGE_FRACTION)),
        radius_of=radius,
    )


# ---------------------------------------------------------------------------
# scheme set-relation checks (exact interval identities)


def verify_plan_relations(plan: SpectrumPlan) -> None:
    """Assert the scheme's band-set identities; raises AssertionError."""
    bt = plan.band("BT")
    if plan.scheme == "dedicated":
        bm, bf = plan.band("Bm"), plan.band("Bf")
        assert not bands_overlap(bm, bf)
        assert math.isclose(bm.width + bf.width, bt.width)
        assert min(bm.lo, bf.lo) == bt.lo and max(bm.hi, bf.hi) == bt.hi
    elif plan.scheme == "shared":
        for lab in plan.macro_assignment.values():
            assert plan.band(lab) == bt
        for a in plan.femto_assignment.values():
            assert plan.band(a.center_label) == bt
    elif plan.scheme == "sub":
        bf = plan.band("Bf")
        assert bt.lo <= bf.lo and bf.hi <= bt.hi and bf.width < bt.width
    else:
        m1, m2, m3 = (plan.band(lab) for lab in ("Bm1", "Bm2", "Bm3"))
        assert math.isclose(m1.width, m2.width) and math.isclose(m2.width, m3.width)
        assert math.isclose(m1.width + m2.width + m3.width, bt.width)
        for a in plan.femto_assignment.values():
            for lab in (a.center_label, a.edge_label):
                if lab is not None:
                    assert not bands_overlap(plan.band(lab), m1)
