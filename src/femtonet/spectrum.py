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

A plan holds only its labels and radii.  The one interference relation
is `_State`, the state of one call on a plan, keyed by table index: the
labels and radii in lists, and the interference lists of the members it
reads, with each pair's table distance, in per-index dicts.  It cuts a
member's list from the member's table row when it first needs it, and
nothing else turns a row into a list.  Each call that changes a
dynamic-reuse plan (`build_plan`, `configure_new_femto`, `remove_femto`)
makes one, and so does each read (`SpectrumPlan.interferers`,
`edge_conflicts`), so a read sees `femto_band` and `radius_of` as they
are.  A call that changes the plan writes what changed back once, when it
ends, and nothing else outlives it.  A fresh build reads the table once,
as a whole (`CellTopology.rows`); every other call reads `CellTopology.row`
for each member it reads, so beyond the lists of labels and radii its cost
is local.  A shrink drops the pairs that the smaller radius breaks, from
the kept distances, and a leave takes the FAP out of every list it was in.
Every configuration, shrink and repair step reads the lists in place, with
no copy, sorts a list only where its order picks the result, and orders
FAPs by id.  Static reuse reads `CellTopology.earlier_within`, so no plan
makes a distance row.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field
from itertools import compress, repeat

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
_EDGE_SET = frozenset(_EDGE_LABELS)


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
    nominal radius: a shrink (`_shrink_one`) is the only writer of
    `radius_of` and it only lowers a radius (`remove_femto` only deletes).
    Two interfering cells are therefore within the neighbor table's reach of
    each other, and a FAP's interferers are cut from its row of the table;
    a cell wider than the nominal radius raises ValueError.  The plan keeps
    no interference relation: each read makes the state of one call
    (`_State`), so it sees `femto_band` and `radius_of` as they are, however
    they were changed.
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
        ids = topo.femtocells
        return sorted(ids[j] for j in _lazy_state(self, topo)[topo.index_of(fap_id)])

    def edge_conflicts(self, topo: CellTopology) -> list[tuple[int, int]]:
        """Pairs of interfering femtocells sharing an edge band (should be [])."""
        if self.scheme != "dynamic-reuse":
            return []
        state, ids, edge = _lazy_state(self, topo), topo.femtocells, self.femto_band
        return sorted((a, ids[j]) for a in edge for j in state[topo.index_of(a)]
                      if a < ids[j] and edge[a] == state.labels[j])


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
    else:  # dynamic reuse: the FAPs join in femtocells order
        starts, partners, dists = topo.rows()  # the table, read once
        state = _State(plan, topo, lambda k: (partners[starts[k]:starts[k + 1]],
                                              dists[starts[k]:starts[k + 1]]))
        for k in range(len(topo.femtocells)):
            _configure(state, k)
        state.write_back()
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
        used = set(map(picks.__getitem__, earlier))
        if len(used) == 1:
            picks.append(1 - used.pop())  # the one band left free
        else:  # both taken: a coin flip
            picks.append(flips[drawn])
            drawn += 1
    picks += flips[drawn:drawn + n - len(picks)]
    plan.femto_band.update(zip(topo.femtocells, (bands[pick] for pick in picks)))


# ---------------------------------------------------------------------------
# dynamic reuse auto-configuration

# the label of a FAP that is not a member of the plan
_OUT = object()


class _State(dict):
    """The interference relation of one call on a plan, a read or a change,
    keyed by the FAPs' table indices: the interference lists of the
    members read so far, {member: {interferer: table distance}}, and every
    FAP's label and radius in the lists `labels` (_OUT for a FAP outside
    the plan, None for a member with no edge band yet) and `radii`.

    The state starts from the plan's `femto_band` and `radius_of`; a call
    that changes the plan writes what changed back once, in `write_back`,
    when it ends.  A member's list is cut from `read(k)`, the member's row
    of the neighbor table as a pair of lists, when first needed, and then
    kept: a join
    enters the newcomer in the list of each FAP it lists, a shrink drops
    the pairs that the smaller radius breaks (radii only shrink, so no pair
    appears) and a leave drops the FAP from every list it was in.  An
    edge-label move touches nothing.  The steps read the lists in place and
    copy none, so each step sees the relation as the last shrink or leave
    left it.

    Sorts, min and max order FAPs by id, which is by each FAP's rank in
    ascending id order; that rank is the table index itself for the
    topologies of `place_femtocells` and their components.
    """

    def __init__(self, plan: SpectrumPlan, topo: CellTopology, read):
        super().__init__()
        self.plan, self.ids, self.read = plan, topo.femtocells, read
        n, self.nominal = len(self.ids), topo.femto_radius_m
        self.floor = self.nominal * SHRINK_FACTOR ** MAX_SHRINK_STEPS
        # a FAP of the plan outside the topology is never read
        self.labels = list(map(plan.femto_band.get, self.ids, repeat(_OUT, n)))
        self.radii = list(map(plan.radius_of.get, self.ids, repeat(self.nominal, n)))
        self.before = self.labels.copy()
        self.shrunk = {}  # the indices this call shrank, first shrink first

    def __missing__(self, k: int) -> dict[int, float]:
        r = self.radii[k]
        if r > self.nominal:  # its pairs could lie beyond the table's reach
            raise ValueError(f"femtocell {self.ids[k]} is wider ({r!r} m) than the "
                             f"nominal radius of {self.nominal!r} m")
        labels, radii = self.labels, self.radii
        row = self[k] = {}
        for j, d in zip(*self.read(k)):
            if labels[j] is not _OUT and d <= INTERFERENCE_RADIUS_SCALE * (r + radii[j]):
                row[j] = d
        return row

    def write_back(self) -> None:
        """Write every member's label that this call changed and every
        radius it shrank into the plan; an entry keeps its place, and a new
        one goes last."""
        ids, labels, radii = self.ids, self.labels, self.radii
        changed = compress(range(len(ids)), map(operator.is_not, labels, self.before))
        self.plan.femto_band.update((ids[k], labels[k]) for k in changed if labels[k] is not _OUT)
        self.plan.radius_of.update((ids[k], radii[k]) for k in self.shrunk)


def _lazy_state(plan: SpectrumPlan, topo: CellTopology) -> _State:
    """The state of a read, join or leave on a plan: it reads a member's row
    when it first needs the member's list."""
    ids = topo.femtocells
    return _State(plan, topo, lambda k: topo.row(ids[k]))


def _free_third(used: set[str]) -> str | None:
    for lab in _THIRDS:
        if lab not in used:
            return lab
    return None


def _labels_exhausted(labels: list, others: dict[int, float]) -> bool:
    """Whether `others` hold every edge label, which takes five of them."""
    return len(others) >= len(_EDGE_LABELS) and {labels[k] for k in others} >= _EDGE_SET


def _free_label(labels: list, others: dict[int, float]) -> str:
    """First edge label unused by `others`; least-used as last resort."""
    used = [labels[k] for k in others]
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
    before a band is forced.  Transactional: on error the plan's labels and
    radii are unchanged.
    """
    if plan.scheme != "dynamic-reuse":
        raise PlanConfigError("configure_new_femto requires a dynamic-reuse plan")
    k = topo.index_of(new_id)
    state = _lazy_state(plan, topo)
    _configure(state, k)
    state.write_back()
    return plan.femto_band[new_id]


def _configure(state: _State, new: int) -> None:
    """`configure_new_femto` of the FAP at index `new`, on the state of the
    call that changes the plan.  A member reconfigured keeps its list."""
    plan, labels, ids = state.plan, state.labels, state.ids
    newcomer = labels[new] is _OUT
    labels[new] = None
    interf = state[new]
    if newcomer:
        for j, d in interf.items():
            if j in state:
                state[j][new] = d
    if _crowded(state, new) or _labels_exhausted(labels, interf):
        _count_branch(plan, "shrink")
        _shrink_until_manageable(state, new)

    count = len(interf)
    if count == 0:
        _count_branch(plan, "0")
        labels[new] = "Bm3"
    elif count == 1:
        _count_branch(plan, "1")
        _configure_one(state, new, *interf)
    elif count == 2:
        a, b = interf
        if ids[a] > ids[b]:
            a, b = b, a
        mutual = b in state[a]
        _count_branch(plan, "2" if mutual else "2-independent")
        _configure_two(state, new, a, b, mutual)
    else:
        _count_branch(plan, "3")
        _configure_many(state, new)

    _repair_conflicts(state, {new, *interf})


def _count_branch(plan, label: str) -> None:
    plan.branch_counts[label] = plan.branch_counts.get(label, 0) + 1


def _crowded(state: _State, new: int) -> bool:
    """Whether more than three cells overlap one another, counting the
    newcomer: whether a greedy clique among its interferers I reaches three.
    The greedy clique of an anchor a in I takes, in ascending id order,
    each member of I that overlaps every cell taken so far; its first is
    c1, the least of N(a) & I (N the interference lists), and it reaches a
    third exactly when N(a) & N(c1) & I is not empty.  The test is an
    `any` over the anchors, so their order does not change it.  A greedy
    lower bound is enough: the shrink path only needs to know whether more
    than three cells overlap."""
    interf = state[new]
    if len(interf) < 3:
        return False
    key = state.ids.__getitem__
    for a in interf:
        near = interf.keys() & state[a].keys()
        if len(near) > 1 and not near.isdisjoint(state[min(near, key=key)]):
            return True
    return False


def _configure_one(state: _State, new: int, other: int) -> None:
    labels = state.labels
    e = labels[other]
    if e == "Bm3":
        # the incumbent held the whole edge spectrum; split into halves
        labels[other] = "B4"
        labels[new] = "B5"
    else:
        labels[new] = _CYCLIC_EDGE.get(e) or _free_label(labels, state[new])


def _configure_two(state: _State, new: int, a: int, b: int, mutual: bool) -> None:
    """Two interferers, a before b in id order."""
    labels = state.labels
    ea, eb = labels[a], labels[b]
    if mutual and {ea, eb} == {"B4", "B5"}:
        # pseudocode lines 23-26: move the incumbents onto thirds
        labels[a if ea == "B4" else b] = "B1"
        labels[a if ea == "B5" else b] = "B2"
        labels[new] = "B3"
    elif mutual:
        # the many-interferer rule; it maps {B1,B2} -> B3 as the table does
        _configure_many(state, new)
    else:
        # interferers not in range of each other: single-interferer rule
        # against the first, then verify against the second
        _configure_one(state, new, a)
        if labels[new] in (labels[a], labels[b]):
            labels[new] = _free_label(labels, state[new])


def _configure_many(state: _State, new: int) -> None:
    """Whole-band incumbents move first, in ascending id order; a move
    changes only the mover's label, so the movers are known up front."""
    labels, interf = state.labels, state[new]
    for k in sorted((k for k in interf if labels[k] == "Bm3"), key=state.ids.__getitem__):
        labels[k] = _free_label(labels, state[k])
    used = {labels[k] for k in interf}
    labels[new] = _free_third(used) or _free_label(labels, interf)


def _shrink_one(state: _State, k: int) -> bool:
    """One 20% radius step of the FAP at index k, which drops the pairs it
    breaks; False once the max-step floor is reached."""
    current = state.radii[k]
    if current <= state.floor + 1e-12:
        return False
    row, radii = state[k], state.radii  # read at the radius before the step
    radius = radii[k] = SHRINK_FACTOR * current
    state.shrunk[k] = None
    for j, d in list(row.items()):
        if d > INTERFERENCE_RADIUS_SCALE * (radius + radii[j]):
            del row[j]
            if j in state:
                del state[j][k]
    return True


def _shrink_until_manageable(state: _State, new: int) -> None:
    """Cell-size re-adjustment: more than three mutually overlapping cells,
    or no conflict-free edge band left for the newcomer.  Each step shrinks
    the newcomer and then its interferers in ascending id order, and its
    event records those interferers as they were before it."""
    plan, ids, interf = state.plan, state.ids, state[new]
    for _ in range(MAX_SHRINK_STEPS):
        before = sorted(interf, key=ids.__getitem__)
        progressed = any([_shrink_one(state, k) for k in (new, *before)])
        plan.events.append(("shrink", ids[new], tuple(map(ids.__getitem__, before))))
        if not _crowded(state, new) and not _labels_exhausted(state.labels, interf):
            return
        if not progressed:
            break
    plan.events.append(("shrink-failed", ids[new], tuple(sorted(map(ids.__getitem__, interf)))))


def _repair_conflicts(state: _State, cells: set[int]) -> None:
    """Clear residual same-edge conflicts among the interfering pairs of
    `cells` (reassignments may collide with an unexamined third party): the
    highest id in any conflicted pair moves, and joins `cells`.  When it has
    no free band left, it and its interferers shrink one step, per the
    automatic cell-size re-adjustment.  Every list is read from the state
    as it stands, so a shrink needs no re-read.

    When the steps run out while a pair of `cells` still conflicts, the
    repair records `repair-exhausted`; that end test reads the pairs as each
    step does.  A conflict outside those pairs does not count.  Every label
    that a configuration or repair changes belongs to a FAP of `cells`, so
    only an earlier exhausted repair, which recorded its own event, leaves
    such a conflict; a test pins that it does not make a later repair
    record one."""
    plan, labels, ids = state.plan, state.labels, state.ids
    steps = 8 * (MAX_SHRINK_STEPS + 1)
    for step in range(steps + 1):
        clashing = []  # both ends of every conflicted pair
        for k in cells:
            lab = labels[k]
            for j in state[k]:
                if labels[j] == lab:
                    clashing += (k, j)
        if not clashing:
            return
        if step == steps:
            plan.events.append(("repair-exhausted", tuple(sorted(map(ids.__getitem__, cells)))))
            return
        loser = max(clashing, key=ids.__getitem__)
        cells.add(loser)
        row = state[loser]
        if _labels_exhausted(labels, row):
            shrunk = _shrink_one(state, loser)
            for j in list(row):
                shrunk |= _shrink_one(state, j)
            plan.events.append(("shrink", ids[loser], ()))
            if not shrunk:
                plan.events.append(("repair-exhausted", (ids[loser],)))
        labels[loser] = _free_label(labels, row)


def remove_femto(plan: SpectrumPlan, topo: CellTopology, fap_id: int) -> SpectrumPlan:
    """Drop a femtocell from the plan.

    Removing a node cannot introduce a same-edge conflict between survivors,
    so reconfiguration is a defensive re-check limited to former interferers.
    """
    plan.femto_label(fap_id)
    if plan.scheme != "dynamic-reuse":
        del plan.femto_band[fap_id]
        return plan
    k = topo.index_of(fap_id)
    state = _lazy_state(plan, topo)
    former = state[k]
    del state[k]
    for j in former:
        if j in state:
            del state[j][k]
    state.labels[k] = _OUT
    _repair_conflicts(state, set(former))
    state.write_back()
    del plan.femto_band[fap_id]
    plan.radius_of.pop(fap_id, None)
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
