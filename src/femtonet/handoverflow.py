"""Executable templates of the three dense-deployment handover call flows.

Each template is the full message sequence of its flow; running a template
walks the steps in order and consults the caller's decision hooks at the
authorization and admission gates.  A refused gate truncates the trace right
after the corresponding response messages.  Transport, encodings, and timers
stay abstract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._checks import require

OUTCOME_COMPLETED = "completed"
OUTCOME_REJECTED_CAC = "rejected-at-CAC"
OUTCOME_REJECTED_AUTH = "rejected-at-authorization"
OUTCOME_ABORTED = "aborted"


class HookTimeout(RuntimeError):
    """Raised by a decision hook that failed to answer."""


@dataclass(frozen=True)
class FlowStep:
    number: int
    sender: str
    receiver: str
    kind: str
    gate: str | None = None  # "authorization" | "cac" on decision steps
    phase: str = ""


@dataclass
class FlowTrace:
    flow: str
    steps: list[FlowStep] = field(default_factory=list)
    outcome: str = OUTCOME_COMPLETED
    diagnostic: str = ""

    def numbers(self) -> list[int]:
        return [s.number for s in self.steps]

    def first(self, kind: str) -> int:
        """Step number of the first message of this kind (-1 if absent)."""
        for s in self.steps:
            if s.kind == kind:
                return s.number
        return -1


def _steps(rows):
    return tuple(FlowStep(*row) for row in rows)


# Fig. 5.4: femtocell-to-macrocell, 33 steps.
FEMTO_TO_MACRO = _steps([
    (1, "UE", "S-FAP", "measurement-report", None, "monitor"),
    (2, "S-FAP", "UE", "measurement-ack", None, "monitor"),
    (3, "UE", "S-FAP", "scan-report", None, "monitor"),
    (4, "S-FAP", "macro-BS", "son-config-request", None, "neighbor-list"),
    (5, "macro-BS", "S-FAP", "son-config-response", None, "neighbor-list"),
    (6, "UE", "CN", "pre-authentication", None, "preparation"),
    (7, "UE", "S-FAP", "handover-decision", None, "preparation"),
    (8, "S-FAP", "FGW", "handover-request", None, "request"),
    (9, "FGW", "CN", "handover-request", None, "request"),
    (10, "CN", "RNC", "handover-request", None, "request"),
    (11, "RNC", "macro-BS", "handover-request", None, "request"),
    (12, "macro-BS", "macro-BS", "cac-rrc-check", "cac", "admission"),
    (13, "macro-BS", "RNC", "handover-response", None, "response"),
    (14, "RNC", "CN", "handover-response", None, "response"),
    (15, "CN", "FGW", "handover-response", None, "response"),
    (16, "FGW", "S-FAP", "handover-response", None, "response"),
    (17, "RNC", "macro-BS", "link-setup-request", None, "link-setup"),
    (18, "macro-BS", "RNC", "link-setup-response", None, "link-setup"),
    (19, "RNC", "CN", "link-ready", None, "link-setup"),
    (20, "CN", "FGW", "link-ready", None, "link-setup"),
    (21, "FGW", "S-FAP", "link-ready", None, "link-setup"),
    (22, "S-FAP", "macro-BS", "data-forwarding", None, "forwarding"),
    (23, "UE", "macro-BS", "channel-reestablish", None, "switch"),
    (24, "macro-BS", "UE", "channel-confirm", None, "switch"),
    (25, "UE", "S-FAP", "detach", None, "switch"),
    (26, "UE", "macro-BS", "sync", None, "switch"),
    (27, "macro-BS", "UE", "sync-confirm", None, "switch"),
    (28, "UE", "macro-BS", "handover-complete", None, "complete"),
    (29, "macro-BS", "CN", "handover-complete", None, "complete"),
    (30, "CN", "FGW", "handover-complete", None, "complete"),
    (31, "FGW", "S-FAP", "delete-old-link", None, "cleanup"),
    (32, "S-FAP", "FGW", "delete-old-link-ack", None, "cleanup"),
    (33, "FGW", "CN", "delete-old-link-confirm", None, "cleanup"),
])

# Fig. 5.5: macrocell-to-femtocell, 34 steps; authorization precedes CAC.
MACRO_TO_FEMTO = _steps([
    (1, "UE", "macro-BS", "measurement-report", None, "monitor"),
    (2, "macro-BS", "UE", "measurement-ack", None, "monitor"),
    (3, "macro-BS", "FGW", "son-config-request", None, "neighbor-list"),
    (4, "FGW", "macro-BS", "son-config-response", None, "neighbor-list"),
    (5, "UE", "CN", "pre-authentication", None, "preparation"),
    (6, "UE", "macro-BS", "handover-decision", None, "preparation"),
    (7, "macro-BS", "RNC", "handover-request", None, "request"),
    (8, "RNC", "CN", "handover-request", None, "request"),
    (9, "CN", "FGW", "handover-request", None, "request"),
    (10, "FGW", "T-FAP", "handover-request", None, "request"),
    (11, "T-FAP", "FGW", "authorization-check", None, "authorization"),
    (12, "FGW", "T-FAP", "authorization-response", "authorization", "authorization"),
    (13, "T-FAP", "T-FAP", "cac-rrc-interference-check", "cac", "admission"),
    (14, "T-FAP", "FGW", "handover-response", None, "response"),
    (15, "FGW", "CN", "handover-response", None, "response"),
    (16, "CN", "RNC", "handover-response", None, "response"),
    (17, "RNC", "macro-BS", "handover-response", None, "response"),
    (18, "FGW", "T-FAP", "link-setup-request", None, "link-setup"),
    (19, "T-FAP", "FGW", "link-setup-response", None, "link-setup"),
    (20, "FGW", "CN", "link-ready", None, "link-setup"),
    (21, "CN", "RNC", "link-ready", None, "link-setup"),
    (22, "RNC", "macro-BS", "link-ready", None, "link-setup"),
    (23, "macro-BS", "T-FAP", "data-forwarding", None, "forwarding"),
    (24, "UE", "T-FAP", "channel-reestablish", None, "switch"),
    (25, "T-FAP", "UE", "channel-confirm", None, "switch"),
    (26, "UE", "macro-BS", "detach", None, "switch"),
    (27, "UE", "T-FAP", "sync", None, "switch"),
    (28, "T-FAP", "UE", "sync-confirm", None, "switch"),
    (29, "UE", "T-FAP", "handover-complete", None, "complete"),
    (30, "T-FAP", "FGW", "handover-complete", None, "complete"),
    (31, "FGW", "RNC", "handover-complete", None, "complete"),
    (32, "RNC", "macro-BS", "delete-old-link", None, "cleanup"),
    (33, "macro-BS", "RNC", "delete-old-link-ack", None, "cleanup"),
    (34, "RNC", "CN", "delete-old-link-confirm", None, "cleanup"),
])

# Fig. 5.6: femtocell-to-femtocell, 29 steps; everything FAP-to-FAP rides
# through the FGW.
FEMTO_TO_FEMTO = _steps([
    (1, "UE", "S-FAP", "measurement-report", None, "monitor"),
    (2, "S-FAP", "UE", "measurement-ack", None, "monitor"),
    (3, "UE", "S-FAP", "scan-report", None, "monitor"),
    (4, "S-FAP", "FGW", "son-config-request", None, "neighbor-list"),
    (5, "FGW", "S-FAP", "son-config-response", None, "neighbor-list"),
    (6, "UE", "CN", "pre-authentication", None, "preparation"),
    (7, "UE", "S-FAP", "handover-decision", None, "preparation"),
    (8, "S-FAP", "FGW", "handover-request", None, "request"),
    (9, "FGW", "T-FAP", "handover-request", None, "request"),
    (10, "T-FAP", "FGW", "authorization-check", None, "authorization"),
    (11, "FGW", "T-FAP", "authorization-response", "authorization", "authorization"),
    (12, "T-FAP", "T-FAP", "cac-rrc-check", "cac", "admission"),
    (13, "T-FAP", "FGW", "handover-response", None, "response"),
    (14, "FGW", "S-FAP", "handover-response", None, "response"),
    (15, "FGW", "T-FAP", "link-setup-request", None, "link-setup"),
    (16, "T-FAP", "FGW", "link-setup-response", None, "link-setup"),
    (17, "FGW", "S-FAP", "link-ready", None, "link-setup"),
    (18, "S-FAP", "FGW", "data-forwarding", None, "forwarding"),
    (19, "UE", "T-FAP", "channel-reestablish", None, "switch"),
    (20, "T-FAP", "UE", "channel-confirm", None, "switch"),
    (21, "UE", "S-FAP", "detach", None, "switch"),
    (22, "UE", "T-FAP", "sync", None, "switch"),
    (23, "T-FAP", "UE", "sync-confirm", None, "switch"),
    (24, "UE", "T-FAP", "handover-complete", None, "complete"),
    (25, "T-FAP", "FGW", "handover-complete", None, "complete"),
    (26, "FGW", "S-FAP", "handover-complete", None, "complete"),
    (27, "S-FAP", "FGW", "delete-old-link", None, "cleanup"),
    (28, "FGW", "S-FAP", "delete-old-link-ack", None, "cleanup"),
    (29, "S-FAP", "FGW", "delete-old-link-confirm", None, "cleanup"),
])

TEMPLATES = {
    "femto-to-macro": FEMTO_TO_MACRO,
    "macro-to-femto": MACRO_TO_FEMTO,
    "femto-to-femto": FEMTO_TO_FEMTO,
}


def _call_hook(hooks: dict, name: str, default: bool) -> bool:
    hook = (hooks or {}).get(name)
    if hook is None:
        return default
    return bool(hook())


def run_flow(flow: str, hooks: dict | None = None) -> FlowTrace:
    """Execute one flow template against the supplied decision hooks.

    hooks: {"cac": () -> bool, "authorize": () -> bool}; both default to
    acceptance.  A refused authorization ends the trace at the authorization
    response with no CAC invocation; a refused CAC ends it after the
    handover-response messages with no link establishment.  A hook raising
    HookTimeout aborts the trace.
    """
    template = TEMPLATES[flow]
    trace = FlowTrace(flow=flow)
    reject_after_phase: str | None = None

    for step in template:
        if reject_after_phase is not None and step.phase != reject_after_phase:
            break
        trace.steps.append(step)
        if step.gate is None:
            continue
        try:
            if step.gate == "authorization":
                if not _call_hook(hooks, "authorize", True):
                    trace.outcome = OUTCOME_REJECTED_AUTH
                    return trace
            elif step.gate == "cac":
                if not _call_hook(hooks, "cac", True):
                    trace.outcome = OUTCOME_REJECTED_CAC
                    # let the response messages carry the refusal, then stop
                    reject_after_phase = "response"
        except HookTimeout as exc:
            trace.outcome = OUTCOME_ABORTED
            trace.diagnostic = f"hook timeout at step {step.number}: {exc}"
            return trace

    return trace


def validate_trace(trace: FlowTrace) -> None:
    """Template-prefix and ordering invariants; raises AssertionError."""
    template = TEMPLATES[trace.flow]
    require(len(trace.steps) <= len(template), "trace is longer than its template")
    for got, want in zip(trace.steps, template):
        require(got == want, "step %s deviates from the template", got.number)
    numbers = trace.numbers()
    require(numbers == sorted(numbers) and len(set(numbers)) == len(numbers),
            "step numbers must be strictly increasing")

    if trace.outcome == OUTCOME_COMPLETED:
        fwd = trace.first("data-forwarding")
        detach = trace.first("detach")
        complete = trace.first("handover-complete")
        delete = trace.first("delete-old-link")
        require(0 < fwd < detach, "forwarding must precede detach")
        require(complete < delete, "old link removed only after completion")
        require(all(s.kind != "delete-old-link" or s.number > complete
                    for s in trace.steps),
                "every old-link deletion must follow completion")
    if trace.outcome == OUTCOME_REJECTED_CAC:
        require(trace.first("link-setup-request") == -1,
                "no link setup after an admission refusal")
        require(trace.first("data-forwarding") == -1,
                "no data forwarding after an admission refusal")
    if trace.outcome == OUTCOME_REJECTED_AUTH:
        require(all(s.gate != "cac" for s in trace.steps),
                "no admission check after an authorization refusal")

    auth = trace.first("authorization-response")
    cac = next((s.number for s in trace.steps if s.gate == "cac"), -1)
    if trace.flow == "femto-to-macro":
        require(auth == -1, "no authorization check toward the macrocell")
    elif auth != -1 and cac != -1:
        require(auth < cac, "authorization must precede admission")

    if trace.flow == "femto-to-femto":
        for s in trace.steps:
            require({s.sender, s.receiver} != {"S-FAP", "T-FAP"},
                    "FAP-to-FAP messages must ride through the FGW")
