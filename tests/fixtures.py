"""Hand-built scenarios shared by several test modules."""

from femtonet.neighborlist import scan_from_geometry
from femtonet.spectrum import build_plan
from femtonet.topology import CellTopology


# the dense-deployment scenario of the worked neighbor-list example
def hidden_fap_fixture():
    """Nine-FAP fixture: user at position A near the serving FAP; FAP 1 is
    walled off from both the user and the serving FAP but coordinated via
    FAP 2; FAP 8's link to the user is obstructed.  The optimal list must
    come out as exactly {1, 2, 3, 8}."""
    positions = {
        0: (0.0, 0.0),     # serving
        1: (10.0, 0.0),    # hidden behind a wall, known to FAP 2
        2: (0.0, 12.0),    # strong, clear
        3: (9.0, 9.0),     # strong, clear
        4: (50.0, 50.0),   # beyond the strong horizon and outside d_max
        5: (0.0, -65.0),   # weak, outside d_max
        6: (-80.0, 30.0),  # far
        7: (60.0, -60.0),  # far
        8: (20.0, 5.0),    # obstructed toward the user, clear to the serving FAP
    }
    # a double wall between the serving FAP and FAP 1 blocks their
    # coordination; FAP 2 and FAP 1 share a clear coordination link
    topo = CellTopology(
        macro_radius_m=1000.0, femto_radius_m=10.0, macro_sites=[(0.0, 0.0)],
        femtocells=sorted(positions), positions=[positions[i] for i in sorted(positions)],
        walls={(0, 1): 2, (1, 2): 0})
    plan = build_plan("dynamic-reuse", topo)
    ue = (3.0, 0.0)
    obstructed = {1, 8}
    scan = scan_from_geometry(topo, ue, 0, obstructed=obstructed)
    return topo, plan, scan, ue


def result_values(result, scheme: str, metric: str) -> list[tuple[float, float]]:
    """The (x, value) pairs of one scheme's metric in an ExperimentResult."""
    return [(r[2], r[4]) for r in result.rows if r[1] == scheme and r[3] == metric]
