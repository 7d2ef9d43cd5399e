"""Call admission control: two-threshold femto/macro policies and the
prioritized multi-level bandwidth-adaptation engine.

Non-real-time calls can surrender part of their allocation; per class m the
new-call degradation limit gamma_n is at most the handover limit gamma_h,
which is what drives handover dropping below new-call blocking.  Real-time
classes never degrade.  Allocation follows the residual-fraction rule: when
demand exceeds capacity, every non-real-time class is scaled onto its
handover-floor share proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._checks import finite, fraction

CONSERVATION_TOL = 1e-9


class InvariantViolation(AssertionError):
    """A load state that admission control must never produce."""


@dataclass(frozen=True)
class TrafficClass:
    index: int
    kind: str  # "rt" | "nrt"
    requested_bw: float  # beta_{m,r}
    degrade_new: float = 0.0  # gamma_{m,n}
    degrade_hand: float = 0.0  # gamma_{m,h}
    arrival_share: float = 0.0  # a_m
    duration_s: float = 120.0  # T_m at full allocation

    def __post_init__(self):
        if self.kind not in ("rt", "nrt"):
            raise ValueError(f"bad kind {self.kind!r}")
        if not 0.0 <= self.degrade_new <= self.degrade_hand < 1.0:
            raise ValueError("need 0 <= gamma_n <= gamma_h < 1")
        if self.kind == "rt" and (self.degrade_new or self.degrade_hand):
            raise ValueError("real-time classes cannot degrade")
        finite("requested_bw", self.requested_bw, 0, strict=True)
        finite("duration_s", self.duration_s, 0, strict=True)
        fraction("arrival_share", self.arrival_share)

    @property
    def floor_hand(self) -> float:
        return (1.0 - self.degrade_hand) * self.requested_bw

    @property
    def floor_new(self) -> float:
        return (1.0 - self.degrade_new) * self.requested_bw


def required_bw(cls: TrafficClass, kind: str) -> float:
    """Minimum bandwidth to accept one more call of this class."""
    if cls.kind == "rt":
        return cls.requested_bw
    return cls.floor_hand if kind == "handover" else cls.floor_new


@dataclass
class CellLoadState:
    """Per-class call counts and allocations in one cell.

    Owned by a single logical cell; admission is serialized per cell.
    """

    capacity: float
    classes: tuple[TrafficClass, ...]
    counts: list[float] = field(default_factory=list)
    allocs: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.counts:
            self.counts = [0.0] * len(self.classes)
        if not self.allocs:
            self.allocs = [c.requested_bw for c in self.classes]
        if len(self.counts) != len(self.classes) or len(self.allocs) != len(self.classes):
            raise ValueError("counts/allocs shape mismatch")

    @property
    def occupied(self) -> float:
        return sum(n * b for n, b in zip(self.counts, self.allocs))

    def copy(self) -> "CellLoadState":
        return CellLoadState(self.capacity, self.classes,
                             list(self.counts), list(self.allocs))


def rebalance_states(capacity: float, classes, counts, allocs) -> tuple[list[np.ndarray],
                                                                         np.ndarray]:
    """The canonical allocation of a batch of states of one cell, in one
    pass: counts and allocs hold one vector over the states per class.
    Returns the allocations, one vector per class, and the bandwidth
    occupied in each state.

    Real-time classes keep their full request.  With X = (C - real-time
    load) / (non-real-time requested load), a state whose non-real-time
    calls number less than 1 or request nothing keeps its allocations; if X
    is at least 1 every present non-real-time class also gets its request;
    otherwise allocations scale onto the handover-floor shares
    proportionally.  When heterogeneous degradation limits would push a
    class above its request, the class is capped and the slack
    redistributed (water-filling, in rounds over per-state masks), keeping
    the allocation continuous at X = 1.

    Every sum runs over the classes in class order, one state per vector
    element, so each state gets the float operations, in their order, of
    the one-state case.  InvariantViolation names the first state that
    breaks a rule: floors that do not fit, occupancy above the capacity, a
    real-time call below its request, or an allocation outside
    [handover floor, request].
    """
    counts = [np.asarray(n, dtype=float) for n in counts]
    allocs = [np.array(b, dtype=float) for b in allocs]
    cap = float(capacity)
    zero = np.zeros(np.shape(counts[0]) if counts else 0)
    nrt = [m for m, c in enumerate(classes) if c.kind == "nrt"]
    req = [c.requested_bw for c in classes]
    floor = [c.floor_hand for c in classes]
    demand, n_nrt, rt_load = zero, zero, zero
    for m, c in enumerate(classes):
        if c.kind == "rt":
            allocs[m][:] = req[m]
            rt_load = rt_load + counts[m] * allocs[m]
        else:
            demand = demand + counts[m] * req[m]
            n_nrt = n_nrt + counts[m]
    defined = ~((n_nrt < 1) | (demand == 0))
    present = {m: counts[m] > 0 for m in nrt}
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        budget = cap - rt_load
        full = defined & (budget / demand >= 1.0)
        fill = defined & ~full
        for m in nrt:
            allocs[m][full & present[m]] = req[m]
        # water-filling: `active` are the uncapped classes of the states
        # still `going`; a capped class holds its request
        active = {m: fill & present[m] for m in nrt}
        going = fill
        for _ in range(len(nrt) + 1):
            if not going.any():
                break
            weight = zero
            for m in nrt:
                weight = np.where(active[m], weight + counts[m] * floor[m], weight)
            going = going & ~(weight <= 0)
            factor = budget / weight
            over = [going & active[m] & (factor * floor[m] > req[m]) for m in nrt]
            settled = going & ~np.logical_or.reduce(over)
            for m, capped in zip(nrt, over):
                allocs[m] = np.where(settled & active[m], factor * floor[m], allocs[m])
                allocs[m][capped] = req[m]
                budget = np.where(capped, budget - counts[m] * req[m], budget)
                active[m] = active[m] & ~capped
            going = going & ~settled
        short = zero != 0
        for m in nrt:
            short = short | (fill & present[m] & (allocs[m] < floor[m] - CONSERVATION_TOL))
        occupied = zero
        for n, b in zip(counts, allocs):
            occupied = occupied + n * b
        _check_states(capacity, classes, counts, allocs, occupied, short)
    return allocs, occupied


def _check_states(capacity, classes, counts, allocs, occupied, short) -> None:
    """Raise InvariantViolation for the first state that breaks a rule, and
    for its first broken rule, in the order the one-state case tests them:
    the floors (the states in `short`), the capacity, then per class in
    class order the real-time rule (math.isclose's: |b - beta| <= 1e-9 *
    max(|b|, |beta|)) and the range [handover floor, request].  A class
    with no calls in a state breaks no rule there."""
    over_cap = occupied > float(capacity) + CONSERVATION_TOL
    rules = []  # (mask, message of a state) in test order
    for n, b, c in zip(counts, allocs, classes):
        on = n != 0
        if c.kind == "rt":
            gap = np.abs(c.requested_bw - b)
            close = (b == c.requested_bw) | (~np.isinf(b) & (
                (gap <= abs(1e-9 * c.requested_bw)) | (gap <= np.abs(1e-9 * b))))
            rules.append((on & ~close, lambda j: "real-time call not at full allocation"))
        outside = on & ((b > c.requested_bw + CONSERVATION_TOL)
                        | (b < c.floor_hand - CONSERVATION_TOL))
        rules.append((outside, lambda j, b=b, c=c: (
            f"class {c.index} allocation {float(b[j])} outside "
            f"[{c.floor_hand}, {c.requested_bw}]")))
    bad = short | over_cap
    for mask, _ in rules:
        bad = bad | mask
    if not bad.any():
        return
    j = int(np.argmax(bad))
    if short[j]:
        raise InvariantViolation("demand exceeds capacity even at handover floors")
    if over_cap[j]:
        raise InvariantViolation(
            f"occupied {float(occupied[j])} exceeds capacity {capacity}")
    raise InvariantViolation(next(message(j) for mask, message in rules if mask[j]))


def rebalance(state: CellLoadState) -> CellLoadState:
    """Canonical allocation for the current call mix: the one-state case of
    rebalance_states, so one state gets the float operations, class by
    class in class order, that each state of a batch gets."""
    allocs, _ = rebalance_states(state.capacity, state.classes,
                                 [[n] for n in state.counts], [[b] for b in state.allocs])
    return CellLoadState(state.capacity, state.classes, list(state.counts),
                         [float(b[0]) for b in allocs])


def releasable(state: CellLoadState, kind: str) -> float:
    """Total bandwidth the non-real-time calls can still surrender."""
    total = 0.0
    for n, b, c in zip(state.counts, state.allocs, state.classes):
        if c.kind != "nrt" or n == 0:
            continue
        floor = c.floor_hand if kind == "handover" else c.floor_new
        total += n * max(0.0, b - floor)
    return total


@dataclass(frozen=True)
class AdmissionDecision:
    outcome: str  # accept-femto | accept-macro | stay-macro | block | drop
    reason: str = ""
    degradations: tuple[tuple[int, float, float], ...] = ()
    state: CellLoadState | None = None


def _degradation_list(before: CellLoadState, after: CellLoadState):
    out = []
    for m, (b0, b1) in enumerate(zip(before.allocs, after.allocs)):
        if after.counts[m] > 0 and b1 < b0 - CONSERVATION_TOL:
            out.append((before.classes[m].index, b0, b1))
    return tuple(out)


def _class_position(state: CellLoadState, class_index: int) -> int:
    for pos, c in enumerate(state.classes):
        if c.index == class_index:
            return pos
    raise ValueError(f"no traffic class with index {class_index!r} in this cell")


def admit_ch6(state: CellLoadState, class_index: int, kind: str,
              guard_bw: float = 0.0) -> AdmissionDecision:
    """Bandwidth-adaptive CAC for one cell.

    New calls are refused outright once any present non-real-time class is
    degraded to its new-call floor or below (that regime is reserved for
    handovers).  A class at its full request is not degraded, even at
    gamma_n = 0, where the floor equals the request.
    Otherwise the call is accepted if its minimum requirement fits in the
    free bandwidth, or in free plus releasable bandwidth after degradation;
    a new call must leave guard_bw of that bandwidth free for handovers.
    The guard scheme's chain reserves G guard channels, which count calls;
    per call they become guard_bw = G * sum_m a_m beta_m, G calls of the
    mean request.
    """
    if kind not in ("new", "handover"):
        raise ValueError(f"bad call kind {kind!r}")
    finite("guard_bw", guard_bw, 0)
    pos = _class_position(state, class_index)
    cls = state.classes[pos]

    if kind == "new":
        for n, b, c in zip(state.counts, state.allocs, state.classes):
            if (c.kind == "nrt" and n > 0 and b <= c.floor_new + CONSERVATION_TOL
                    and b < c.requested_bw - CONSERVATION_TOL):
                return AdmissionDecision("block", "new-call-floor-reached", (), state)

    req = required_bw(cls, kind)
    free = state.capacity - state.occupied - (guard_bw if kind == "new" else 0.0)
    if req >= free - CONSERVATION_TOL and req > free + releasable(state, kind) + CONSERVATION_TOL:
        outcome = "block" if kind == "new" else "drop"
        return AdmissionDecision(outcome, "insufficient-bandwidth", (), state)

    after = state.copy()
    after.counts[pos] += 1
    after = rebalance(after)
    return AdmissionDecision(
        "accept",
        "fits-free" if req < free else "fits-after-release",
        _degradation_list(state, after),
        after,
    )


# ---------------------------------------------------------------------------
# Ch. 5 femto/macro policies (two SNIR thresholds)


@dataclass(frozen=True)
class SnirThresholds:
    t1_db: float = 10.0
    t2_db: float = 12.0

    def __post_init__(self):
        if not self.t2_db > self.t1_db:
            raise ValueError("second threshold must exceed the first")


@dataclass
class FemtoCellState:
    """Fixed per-call femtocell: at most max_calls concurrent calls."""

    max_calls: int = 4
    active_calls: int = 0

    def has_room(self) -> bool:
        return self.active_calls < self.max_calls

    def admit(self) -> None:
        if not self.has_room():
            raise InvariantViolation("femtocell full")
        self.active_calls += 1


def admit_new_call(
    femto_available: bool,
    snir_tf_db: float | None,
    thresholds: SnirThresholds,
    femto_state: FemtoCellState | None,
    macro_state: CellLoadState,
    class_index: int,
) -> AdmissionDecision:
    """New originating call: femtocell first, macrocell without degradation,
    otherwise blocked.  An unknown class raises ValueError on either path."""
    pos = _class_position(macro_state, class_index)
    if femto_available and snir_tf_db is not None and femto_state is not None:
        if snir_tf_db >= thresholds.t2_db and femto_state.has_room():
            femto_state.admit()
            return AdmissionDecision("accept-femto", "snir-above-t2")

    cls = macro_state.classes[pos]
    free = macro_state.capacity - macro_state.occupied
    if cls.requested_bw <= free + CONSERVATION_TOL:
        after = macro_state.copy()
        after.counts[pos] += 1
        after = rebalance(after)
        if not _degradation_list(macro_state, after):
            return AdmissionDecision("accept-macro", "fits-without-degradation",
                                     (), after)
    return AdmissionDecision("block", "macro-full-no-degradation-for-new",
                             (), macro_state)


def admit_macro_to_femto(
    snir_m_db: float,
    snir_tf_db: float,
    thresholds: SnirThresholds,
    femto_state: FemtoCellState,
) -> AdmissionDecision:
    """Macro-connected call passing a FAP: hand over only when worthwhile."""
    if snir_tf_db >= thresholds.t2_db or snir_m_db <= snir_tf_db:
        if femto_state.has_room():
            femto_state.admit()
            return AdmissionDecision("accept-femto", "handover-worthwhile")
        return AdmissionDecision("stay-macro", "femto-full")
    return AdmissionDecision("stay-macro", "avoids-unnecessary-handover")


def _macro_handover_admit(macro_state: CellLoadState, pos: int) -> AdmissionDecision | None:
    """Try the macrocell for a handover call of the class at `pos`, degrading
    its adaptive calls if need be; None when it cannot fit.  A call that fits
    the free bandwidth at its full rate also fits free plus releasable at its
    floor."""
    cls = macro_state.classes[pos]
    free = macro_state.capacity - macro_state.occupied
    req = required_bw(cls, "handover")
    if req > free + releasable(macro_state, "handover") + CONSERVATION_TOL:
        return None
    after = macro_state.copy()
    after.counts[pos] += 1
    after = rebalance(after)
    reason = "fits-free" if cls.requested_bw <= free + CONSERVATION_TOL else "degraded-release"
    return AdmissionDecision("accept-macro", reason,
                             _degradation_list(macro_state, after), after)


def admit_from_femto(
    snir_tf_db: float | None,
    thresholds: SnirThresholds,
    femto_state: FemtoCellState | None,
    macro_state: CellLoadState,
    class_index: int,
) -> AdmissionDecision:
    """Call leaving its serving FAP (femto-to-femto or femto-to-macro).

    Target FAP with SNIR >= T2 is taken directly.  Between the thresholds
    the macrocell is tried first -- plain, then with QoS degradation of its
    adaptive calls -- before falling back to the FAP without degradation.
    Below T1, or with no target FAP, only the degradable macrocell remains.
    An unknown class raises ValueError before any cell is tried.
    """
    pos = _class_position(macro_state, class_index)
    have_fap = snir_tf_db is not None and femto_state is not None

    if have_fap and snir_tf_db >= thresholds.t2_db:
        if femto_state.has_room():
            femto_state.admit()
            return AdmissionDecision("accept-femto", "snir-above-t2")
        d = _macro_handover_admit(macro_state, pos)
        return d or AdmissionDecision("drop", "femto-full-macro-exhausted",
                                      (), macro_state)

    if have_fap and thresholds.t1_db <= snir_tf_db < thresholds.t2_db:
        d = _macro_handover_admit(macro_state, pos)
        if d is not None:
            return d
        if femto_state.has_room():
            femto_state.admit()
            return AdmissionDecision("accept-femto", "macro-full-fap-fallback")
        return AdmissionDecision("drop", "no-resource-between-thresholds",
                                 (), macro_state)

    d = _macro_handover_admit(macro_state, pos)
    return d or AdmissionDecision("drop", "below-t1-macro-exhausted", (), macro_state)
