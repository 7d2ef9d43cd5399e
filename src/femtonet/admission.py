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

import math
from dataclasses import dataclass, field

CONSERVATION_TOL = 1e-9


class UndefinedResidualError(ArithmeticError):
    """Residual fraction is undefined when no non-real-time call is present."""


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
        if self.requested_bw <= 0:
            raise ValueError("requested bandwidth must be positive")

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

    def n_nrt(self) -> float:
        return sum(n for n, c in zip(self.counts, self.classes) if c.kind == "nrt")

    def copy(self) -> "CellLoadState":
        return CellLoadState(self.capacity, self.classes,
                             list(self.counts), list(self.allocs))

    def check_invariants(self) -> None:
        if self.occupied > self.capacity + CONSERVATION_TOL:
            raise InvariantViolation(
                f"occupied {self.occupied} exceeds capacity {self.capacity}")
        for n, b, c in zip(self.counts, self.allocs, self.classes):
            if n == 0:
                continue
            if c.kind == "rt" and not math.isclose(b, c.requested_bw):
                raise InvariantViolation("real-time call not at full allocation")
            if b > c.requested_bw + CONSERVATION_TOL or b < c.floor_hand - CONSERVATION_TOL:
                raise InvariantViolation(
                    f"class {c.index} allocation {b} outside "
                    f"[{c.floor_hand}, {c.requested_bw}]")


def residual_fraction(state: CellLoadState) -> float:
    """X = (C - real-time load) / (non-real-time requested load)."""
    demand = sum(
        n * c.requested_bw
        for n, c in zip(state.counts, state.classes) if c.kind == "nrt"
    )
    if state.n_nrt() < 1 or demand == 0:
        raise UndefinedResidualError("no non-real-time calls in the system")
    rt_load = sum(
        n * b for n, b, c in zip(state.counts, state.allocs, state.classes)
        if c.kind == "rt"
    )
    return (state.capacity - rt_load) / demand


def rebalance(state: CellLoadState) -> CellLoadState:
    """Canonical allocation for the current call mix.

    Real-time classes keep their full request.  If the residual fraction X
    is at least 1 every non-real-time class also gets its request; otherwise
    allocations scale onto the handover-floor shares proportionally.  When
    heterogeneous degradation limits would push a class above its request,
    the class is capped and the slack redistributed (water-filling), keeping
    the allocation continuous at X = 1.
    """
    out = state.copy()
    for m, c in enumerate(out.classes):
        if c.kind == "rt":
            out.allocs[m] = c.requested_bw

    try:
        x = residual_fraction(out)
    except UndefinedResidualError:
        out.check_invariants()
        return out

    nrt = [m for m, c in enumerate(out.classes)
           if c.kind == "nrt" and out.counts[m] > 0]
    if x >= 1.0:
        for m in nrt:
            out.allocs[m] = out.classes[m].requested_bw
        out.check_invariants()
        return out

    rt_load = sum(out.counts[m] * out.allocs[m]
                  for m, c in enumerate(out.classes) if c.kind == "rt")
    budget = out.capacity - rt_load
    active = list(nrt)
    capped: dict[int, float] = {}
    for _ in range(len(nrt) + 1):
        weight = sum(out.counts[m] * out.classes[m].floor_hand for m in active)
        if weight <= 0:
            break
        factor = budget / weight
        over = [m for m in active
                if factor * out.classes[m].floor_hand > out.classes[m].requested_bw]
        if not over:
            for m in active:
                out.allocs[m] = factor * out.classes[m].floor_hand
            break
        for m in over:
            capped[m] = out.classes[m].requested_bw
            budget -= out.counts[m] * out.classes[m].requested_bw
            active.remove(m)
    for m, b in capped.items():
        out.allocs[m] = b

    if any(out.allocs[m] < out.classes[m].floor_hand - CONSERVATION_TOL for m in nrt):
        raise InvariantViolation(
            "demand exceeds capacity even at handover floors")
    out.check_invariants()
    return out


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

    @property
    def accepted(self) -> bool:
        return self.outcome.startswith("accept")


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


def admit_ch6(state: CellLoadState, class_index: int, kind: str) -> AdmissionDecision:
    """Bandwidth-adaptive CAC for one cell.

    New calls are refused outright once any present non-real-time class sits
    at or below its new-call floor (that regime is reserved for handovers).
    Otherwise the call is accepted if its minimum requirement fits in the
    free bandwidth, or in free plus releasable bandwidth after degradation.
    """
    if kind not in ("new", "handover"):
        raise ValueError(f"bad call kind {kind!r}")
    pos = _class_position(state, class_index)
    cls = state.classes[pos]

    if kind == "new":
        for n, b, c in zip(state.counts, state.allocs, state.classes):
            if c.kind == "nrt" and n > 0 and b <= c.floor_new + CONSERVATION_TOL:
                return AdmissionDecision("block", "new-call-floor-reached", (), state)

    req = required_bw(cls, kind)
    free = state.capacity - state.occupied
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


def make_state(capacity: float, classes, counts=None) -> CellLoadState:
    state = CellLoadState(capacity, tuple(classes))
    if counts is not None:
        state.counts = list(counts)
        state = rebalance(state)
    return state
