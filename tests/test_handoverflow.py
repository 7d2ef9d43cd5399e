import itertools
import os
import subprocess
import sys
import textwrap

import femtonet
from femtonet.handoverflow import (
    FEMTO_TO_FEMTO,
    FEMTO_TO_MACRO,
    MACRO_TO_FEMTO,
    OUTCOME_ABORTED,
    OUTCOME_COMPLETED,
    OUTCOME_REJECTED_AUTH,
    OUTCOME_REJECTED_CAC,
    TEMPLATES,
    HookTimeout,
    run_flow,
    validate_trace,
)


def test_template_lengths():
    assert len(FEMTO_TO_MACRO) == 33
    assert len(MACRO_TO_FEMTO) == 34
    assert len(FEMTO_TO_FEMTO) == 29


def test_templates_numbered_consecutively():
    for name, template in TEMPLATES.items():
        assert [s.number for s in template] == list(range(1, len(template) + 1)), name


def test_femto_to_macro_accept():
    trace = run_flow("femto-to-macro", {"cac": lambda: True})
    assert trace.outcome == OUTCOME_COMPLETED
    assert len(trace.steps) == 33
    validate_trace(trace)


def test_femto_to_macro_cac_reject_truncates():
    trace = run_flow("femto-to-macro", {"cac": lambda: False})
    assert trace.outcome == OUTCOME_REJECTED_CAC
    assert max(trace.numbers()) < 17  # no link establishment
    assert 12 in trace.numbers() and 16 in trace.numbers()
    validate_trace(trace)


def test_forwarding_before_detach_all_branches():
    for cac, auth in itertools.product([True, False], repeat=2):
        for flow in TEMPLATES:
            trace = run_flow(flow, {"cac": lambda c=cac: c,
                                    "authorize": lambda a=auth: a})
            validate_trace(trace)
            if trace.outcome == OUTCOME_COMPLETED:
                assert trace.first("data-forwarding") < trace.first("detach")


def test_macro_to_femto_authorized_admitted():
    trace = run_flow("macro-to-femto", {"authorize": lambda: True, "cac": lambda: True})
    assert trace.outcome == OUTCOME_COMPLETED
    assert len(trace.steps) == 34
    # packets forwarded to the UE through the FAP
    fwd = [s for s in trace.steps if s.kind == "data-forwarding"]
    assert fwd[0].receiver == "T-FAP"
    validate_trace(trace)


def test_macro_to_femto_unauthorized_stops_at_12():
    trace = run_flow("macro-to-femto", {"authorize": lambda: False})
    assert trace.outcome == OUTCOME_REJECTED_AUTH
    assert max(trace.numbers()) == 12
    assert all(s.gate != "cac" for s in trace.steps)
    validate_trace(trace)


def test_macro_to_femto_cleanup_after_complete():
    trace = run_flow("macro-to-femto")
    complete = [s.number for s in trace.steps if s.kind == "handover-complete"]
    delete = [s.number for s in trace.steps if s.kind.startswith("delete-old-link")]
    assert complete == [29, 30, 31]
    assert delete == [32, 33, 34]
    assert max(complete) < min(delete)


def test_femto_to_femto_accept():
    trace = run_flow("femto-to-femto")
    assert trace.outcome == OUTCOME_COMPLETED
    assert len(trace.steps) == 29
    validate_trace(trace)


def test_femto_to_femto_cac_reject():
    trace = run_flow("femto-to-femto", {"cac": lambda: False})
    assert trace.outcome == OUTCOME_REJECTED_CAC
    assert trace.first("link-setup-request") == -1
    validate_trace(trace)


def test_femto_to_femto_never_bypasses_fgw():
    for template in (FEMTO_TO_FEMTO,):
        for s in template:
            assert {s.sender, s.receiver} != {"S-FAP", "T-FAP"}


def test_authorization_ordering():
    # authorization strictly before CAC where present; absent toward macro
    for flow in ("macro-to-femto", "femto-to-femto"):
        template = TEMPLATES[flow]
        auth = next(s.number for s in template if s.gate == "authorization")
        cac = next(s.number for s in template if s.gate == "cac")
        assert auth < cac
    assert all(s.gate != "authorization" for s in FEMTO_TO_MACRO)


def test_hook_timeout_aborts():
    def boom():
        raise HookTimeout("no answer from CAC")

    trace = run_flow("femto-to-macro", {"cac": boom})
    assert trace.outcome == OUTCOME_ABORTED
    assert "step 12" in trace.diagnostic


def test_exhaustive_branch_enumeration_invariants():
    outcomes = set()
    for flow in TEMPLATES:
        for cac, auth in itertools.product([True, False], repeat=2):
            trace = run_flow(flow, {"cac": lambda c=cac: c,
                                    "authorize": lambda a=auth: a})
            validate_trace(trace)
            outcomes.add(trace.outcome)
            if trace.outcome == OUTCOME_COMPLETED:
                # exactly one data path at the end: old link deleted last
                assert trace.steps[-1].kind == "delete-old-link-confirm"
    assert OUTCOME_COMPLETED in outcomes
    assert OUTCOME_REJECTED_CAC in outcomes
    assert OUTCOME_REJECTED_AUTH in outcomes


def test_checks_raise_under_python_optimize():
    """validate_trace and ChainSolution.check_normalized reject a bad input
    even under python -O, which strips assert statements."""
    script = textwrap.dedent("""
        import numpy as np
        from femtonet.handoverflow import run_flow, validate_trace
        from femtonet.queueing import ChainSolution

        assert False, "not reached: -O strips this"
        trace = run_flow("femto-to-macro")
        trace.steps.reverse()
        unnormalized = ChainSolution(np.array([0.5, 0.2]), 0.0, 0.0)
        for check in (lambda: validate_trace(trace), unnormalized.check_normalized):
            try:
                check()
            except AssertionError as exc:
                print(exc)
            else:
                raise SystemExit("a bad input passed its check")
    """)
    src = os.path.dirname(os.path.dirname(femtonet.__file__))
    proc = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["step 33 deviates from the template",
                                        "state probabilities sum to 0.7, not 1"]
