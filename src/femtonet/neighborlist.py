"""Optimal neighbor-femtocell list construction for handover.

Candidates are filtered at two RSSI thresholds, strong entries sharing the
serving FAP's frequency are pruned (apart cells reuse bands, overlapping
ones never do), and hidden FAPs -- close to the user but obstructed -- are
re-added through location information coordinated over the FAP/macro SON
links.  The final list satisfies  N_f = N1 - N2 + M_hidden  by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import topology as topo_mod
from ._checks import require, whole_count
from .radio import (
    DEFAULT_PROPAGATION,
    PropagationParams,
    link_power,
    linear_to_db,
    wall_attenuation,
)
from .spectrum import SpectrumPlan, build_plan
from .topology import CellTopology

DEFAULT_S_T0_DBM = -90.0
DEFAULT_S_T1_DBM = -75.0
DEFAULT_D_MAX_M = 40.0
# SON coordination survives up to this many walls between two FAPs
COORDINATION_WALL_LIMIT = 1
# an obstructed scan link carries this many extra walls
OBSTRUCTION_WALLS = 2
# p_target_missing redraws its topology after this many trials
TRIALS_PER_TOPOLOGY = 50


@dataclass(frozen=True)
class RssiScan:
    """Received levels per FAP at one UE position, in dBm.

    A FAP absent from levels_dbm was not heard: the list builders read it
    as -inf, below both thresholds.  scan_from_geometry reports only the
    FAPs within the clear-link S_T0 reach, so every FAP it omits is below
    S_T0; a FAP it reports may still be below S_T0 (an obstructed link)."""

    levels_dbm: dict[int, float]
    serving: int | str  # femto id, or "macro"
    s_t0_dbm: float = DEFAULT_S_T0_DBM
    s_t1_dbm: float = DEFAULT_S_T1_DBM

    def __post_init__(self):
        if not self.s_t1_dbm > self.s_t0_dbm:
            raise ValueError("need S_T1 > S_T0")

    def detected(self) -> dict[int, float]:
        return {i: v for i, v in self.levels_dbm.items() if v >= self.s_t0_dbm}


@dataclass
class NeighborList:
    entries: list[int]  # ordered femto ids
    provenance: dict[int, str]  # "strong-signal" | "hidden-by-location"
    n_detected: int  # N  (>= S_T0)
    n_strong: int  # N1 (>= S_T1)
    n_same_freq: int  # N2 (pruned from the strong set)
    m_hidden: int  # M
    serving: int | str

    @property
    def n_f(self) -> int:
        return len(self.entries)

    def check_count_identity(self) -> None:
        """Raise AssertionError unless N_f = N1 - N2 + M."""
        require(self.n_f == self.n_strong - self.n_same_freq + self.m_hidden,
                "list holds %d entries, not N1 - N2 + M = %d - %d + %d",
                self.n_f, self.n_strong, self.n_same_freq, self.m_hidden)


def shares_frequency(plan: SpectrumPlan, fap: int, serving: int) -> bool:
    """True when the candidate's band lies inside the serving FAP's band.

    Each FAP holds one label, the same one under the single-band schemes;
    under dynamic reuse it is the edge band, and an edge band inside the
    serving one (a third inside the whole edge Bm3) shares too."""
    la, ls = plan.femto_label(fap), plan.femto_label(serving)
    if la == ls:
        return True
    if plan.scheme != "dynamic-reuse":
        return False
    ba, bs = plan.band(la), plan.band(ls)
    return ba.lo >= bs.lo - 1e-9 and ba.hi <= bs.hi + 1e-9


def _accessible(topo: CellTopology, access: dict[int, bool], fap: int) -> bool:
    """An open FAP, or a closed one that `access` admits; UnknownSiteError
    for an id the topology does not hold."""
    topo.index_of(fap)
    return fap not in topo.closed_access or access.get(fap, False)


def check_params(d_max_m: float, obstruction_prob: float = 0.0) -> None:
    """Raise a ValueError naming the scenario key for a NaN or non-positive
    d_max, or for an obstruction probability outside [0, 1]."""
    if not d_max_m > 0:
        raise ValueError(f"neighborlist.d_max_m must be > 0, got {d_max_m!r}")
    if not 0.0 <= obstruction_prob <= 1.0:
        raise ValueError(f"neighborlist.obstruction_prob must be in [0, 1], "
                         f"got {obstruction_prob!r}")


def _neighbor_list(scan: RssiScan, serving, detected, strong, same_freq,
                   hidden) -> NeighborList:
    """The list of the kept strong and the hidden entries, strongest first,
    a hidden entry after a strong one of equal level, then by id."""
    kept = strong - same_freq

    def key(fap):
        return (-scan.levels_dbm.get(fap, -math.inf), fap in hidden, fap)

    prov = {f: "strong-signal" for f in kept}
    prov.update({f: "hidden-by-location" for f in hidden})
    out = NeighborList(
        entries=sorted(kept | hidden, key=key), provenance=prov,
        n_detected=len(detected), n_strong=len(strong),
        n_same_freq=len(same_freq), m_hidden=len(hidden), serving=serving)
    out.check_count_identity()
    return out


def build_list_from_femto(
    scan: RssiScan,
    plan: SpectrumPlan,
    topo: CellTopology,
    serving: int,
    d_max_m: float = DEFAULT_D_MAX_M,
    access: dict[int, bool] | None = None,
    ue_xy=None,
) -> NeighborList:
    """Neighbor list while connected to a FAP.

    Strong entries are the accessible FAPs at or above S_T1 minus those on
    the serving frequency; hidden entries are accessible FAPs within d_max
    of the user that are weak or frequency-pruned, known via a coordination
    hop from the serving FAP or a strong member: a `neighbors_of` pair with
    at most COORDINATION_WALL_LIMIT walls.  The hops come from the neighbor
    table, so the list reads no distance row.
    """
    serving_xy = topo.position(serving)
    check_params(d_max_m)
    ue = tuple(ue_xy) if ue_xy is not None else serving_xy
    if not (math.isfinite(ue[0]) and math.isfinite(ue[1])):
        raise ValueError("positions must be finite")
    access = access or {}

    detected = {i: v for i, v in scan.detected().items()
                if i != serving and _accessible(topo, access, i)}
    strong = {i for i, v in detected.items() if v >= scan.s_t1_dbm}
    same_freq = {i for i in strong if shares_frequency(plan, i, serving)}
    coordinators = {serving, *(strong - same_freq)}

    pairs = [(via, fap) for via in coordinators for fap in topo_mod.neighbors_of(topo, via)
             if fap not in coordinators]
    # the d_max cut in the arithmetic of CellTopology.distances_to
    xy = topo.positions[[topo.index_of(fap) for _, fap in pairs]]
    close = (np.hypot(ue[0] - xy[:, 0], ue[1] - xy[:, 1]) <= d_max_m).tolist()
    hops = {fap for (via, fap), near in zip(pairs, close)
            if near and topo.walls_between(via, fap) <= COORDINATION_WALL_LIMIT}
    hidden = {fap for fap in hops if _accessible(topo, access, fap)
              and (scan.levels_dbm.get(fap, -math.inf) < scan.s_t1_dbm
                   or shares_frequency(plan, fap, serving))}
    return _neighbor_list(scan, serving, detected, strong, same_freq, hidden)


def build_list_from_macro(
    scan: RssiScan,
    plan: SpectrumPlan,
    topo: CellTopology,
    d_max_m: float = DEFAULT_D_MAX_M,
    access: dict[int, bool] | None = None,
    ue_xy=None,
) -> NeighborList:
    """Neighbor list while connected to the overlaid macrocell.

    No serving frequency to prune against; the macro BS knows every
    registered FAP's location, so any accessible FAP within d_max joins the
    hidden set when its signal is weak.  The macrocell itself is always the
    fallback target, so the list holds FAPs only.
    """
    check_params(d_max_m)
    if ue_xy is None:
        raise ValueError("the macro flow needs the UE position")
    access = access or {}

    detected = {i: v for i, v in scan.detected().items() if _accessible(topo, access, i)}
    strong = {i for i, v in detected.items() if v >= scan.s_t1_dbm}

    close = np.flatnonzero(topo.distances_to(tuple(ue_xy)) <= d_max_m).tolist()
    hidden = set()
    for fap in (topo.femtocells[k] for k in close):
        if fap in strong or not _accessible(topo, access, fap):
            continue
        if scan.levels_dbm.get(fap, -math.inf) < scan.s_t1_dbm:
            hidden.add(fap)
    return _neighbor_list(scan, "macro", detected, strong, set(), hidden)


# ---------------------------------------------------------------------------
# geometry-driven scans


def detection_reach_m(params: PropagationParams, s_t0_dbm: float) -> float:
    """Largest UE-FAP distance at which a clear femto link still reaches
    S_T0, widened so that no FAP in range falls outside it.

    link_power inverted in the log domain, so that a threshold whose linear
    power underflows (S_T0 = -4000 dBm) still gives a finite reach, and
    S_T0 = -inf an infinite one.  The 0.1 m floor is the scan's own
    distance clamp; the relative 1e-9 covers float rounding and numpy's
    hypot."""
    clear = wall_attenuation(params.wall_loss_db, 0)
    log_power_w = (math.log10(params.tx_power_femto_w) + math.log10(params.p0_femto)
                   + math.log10(clear))
    log_reach = (10.0 * log_power_w + 30.0 - s_t0_dbm) / (10.0 * params.path_loss_exp_femto_interf)
    reach = math.inf if log_reach > 308.0 else 10.0 ** log_reach
    return max(reach, 0.1) * (1.0 + 1e-9)


def scan_from_geometry(
    topo: CellTopology,
    ue_xy,
    serving: int | str,
    params: PropagationParams | None = None,
    obstructed: set[int] | None = None,
    s_t0_dbm: float = DEFAULT_S_T0_DBM,
    s_t1_dbm: float = DEFAULT_S_T1_DBM,
) -> RssiScan:
    """Deterministic scan: free-space-style femto links (no inter-home wall
    for a user in the open femto zone); obstructed links carry extra walls.

    Reports only the FAPs within detection_reach_m, in femtocells order: a
    FAP beyond it is below S_T0 even on a clear link, so it changes no
    count or list.  An obstructed FAP within it keeps its real level, which
    may be below S_T0.  The levels come from one scalar pass in math-module
    arithmetic: numpy's hypot, pow and log10 differ from it in the last
    bit, and the levels are reported values."""
    params = params or DEFAULT_PROPAGATION
    obstructed = obstructed or set()
    ue = tuple(ue_xy)
    ux, uy = ue[0], ue[1]
    reach = detection_reach_m(params, s_t0_dbm)
    close = np.flatnonzero(topo.distances_to((ux, uy)) <= reach).tolist()
    tx, p0 = params.tx_power_femto_w, params.p0_femto
    eta = params.path_loss_exp_femto_interf
    clear = wall_attenuation(params.wall_loss_db, 0)
    walled = wall_attenuation(params.wall_loss_db, OBSTRUCTION_WALLS)
    levels = {}
    for k, (px, py) in zip(close, topo.positions[close].tolist()):
        fap = topo.femtocells[k]
        d = max(math.hypot(px - ux, py - uy), 0.1)
        p = link_power(tx, p0, d, eta, walled if fap in obstructed else clear)
        levels[fap] = linear_to_db(p) + 30.0  # W -> dBm
    return RssiScan(levels, serving, s_t0_dbm, s_t1_dbm)


def p_target_missing(
    count: int,
    trials: int,
    seed: int,
    obstruction_prob: float = 0.3,
    d_max_m: float = DEFAULT_D_MAX_M,
    macro=None,
    params: PropagationParams | None = None,
    s_t0_dbm: float = DEFAULT_S_T0_DBM,
    s_t1_dbm: float = DEFAULT_S_T1_DBM,
) -> dict[str, float]:
    """Monte-Carlo probability that the best handover target is absent.

    Per trial the geometric best target is the strongest unobstructed
    non-serving FAP at or above S_T1 (trials with no valid target are
    skipped).  Both scans of a trial use `params` and the S_T0/S_T1
    thresholds.  The RSSI-only baseline lists FAPs whose observed level
    clears S_T1; the proposed scheme adds coordinated hidden FAPs.
    Topologies (each with a dynamic-reuse plan) are redrawn every
    TRIALS_PER_TOPOLOGY trials; the serving cell, user position, and
    obstructions are redrawn every trial, the obstructions as one block of
    uniforms over the non-serving FAPs in femtocells order, which reads the
    stream as one draw per FAP would.
    """
    trials = whole_count("trials", trials, 1)
    check_params(d_max_m, obstruction_prob)
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5CA)))
    miss_base = miss_prop = valid = 0

    topo = plan = None
    for trial in range(trials):
        if count < 2:
            continue
        if topo is None or trial % TRIALS_PER_TOPOLOGY == 0:
            topo = topo_mod.place_femtocells(seed + 7919 * trial, count, macro=macro)
            plan = build_plan("dynamic-reuse", topo)
        serving = int(rng.integers(count))
        s_pos = topo.position(serving)
        ang = 2 * math.pi * rng.random()
        ue = (s_pos[0] + topo.femto_radius_m * math.cos(ang),
              s_pos[1] + topo.femto_radius_m * math.sin(ang))

        clear = scan_from_geometry(topo, ue, serving, params,
                                   s_t0_dbm=s_t0_dbm, s_t1_dbm=s_t1_dbm)
        candidates = {f: v for f, v in clear.levels_dbm.items() if f != serving}
        best, best_level = max(candidates.items(), key=lambda kv: (kv[1], -kv[0]),
                               default=(None, -math.inf))
        if best_level < clear.s_t1_dbm:
            continue  # no valid handover target in this topology
        if (shares_frequency(plan, best, serving)
                and topo_mod.distance(topo, best, ue) > d_max_m):
            # a far-off band twin is not a listable target by design: the
            # scheme prunes reuse twins and re-adds them only within d_max
            continue
        valid += 1

        others = [f for f in topo.femtocells if f != serving]
        obstructed = {f for f, u in zip(others, rng.random(len(others)).tolist())
                      if u < obstruction_prob}
        observed = scan_from_geometry(topo, ue, serving, params, obstructed,
                                      s_t0_dbm, s_t1_dbm)

        proposed = build_list_from_femto(observed, plan, topo, serving,
                                         d_max_m=d_max_m, ue_xy=ue)
        if observed.levels_dbm[best] < observed.s_t1_dbm:
            miss_base += 1
        if best not in proposed.entries:
            miss_prop += 1

    if valid == 0:
        return {"rssi-only": 0.0, "proposed": 0.0, "trials": 0}
    return {"rssi-only": miss_base / valid, "proposed": miss_prop / valid,
            "trials": valid}
