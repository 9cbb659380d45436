"""One solve policy: every ground and bound state is solved at the
`SOLVE_*` defaults of `evolution`.  `raman_states` and `bound_states` take
a model and nothing else, so no policy can be passed to them; no caller
outside `evolution` passes its own rank, cutoff or tolerance to the two
solvers that still take one."""

import ast
import inspect
import pathlib

from uscqed import evolution as ev

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "uscqed"
SOLVERS = ("ground_state", "embedded_ground_state")
POLICY = {"max_rank", "cutoff", "tol"}


def own_policy(source: str) -> list:
    """``(line, solver)`` of every solver call that passes a rank, cutoff or
    tolerance: by keyword or ``**``, or by a second positional argument or
    ``*`` (each solver's second parameter is ``max_rank``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else \
            getattr(func, "id", None)
        if name not in SOLVERS:
            continue
        if (len(node.args) > 1
                or any(isinstance(a, ast.Starred) for a in node.args)
                or any(k.arg is None or k.arg in POLICY
                       for k in node.keywords)):
            found.append((node.lineno, name))
    return found


def test_the_rule_sees_keyword_positional_and_unpacked_settings():
    source = ("e = ground_state(p, parity=-1, seed=s)\n"
              "b = ev.ground_state(p, tol=1e-6)\n"
              "g = embedded_ground_state(p, 8)\n"
              "r = embedded_ground_state(window, **kw)\n"
              "q = ev.ground_state(*args)\n"
              "c = embedded_ground_state(p, radius=3, core=c)\n"
              "d = ev.raman_states(window)\n"
              "f = solve(p, max_rank=4)\n")
    assert own_policy(source) == [(2, "ground_state"),
                                  (3, "embedded_ground_state"),
                                  (4, "embedded_ground_state"),
                                  (5, "ground_state")]


def test_no_caller_outside_evolution_passes_its_own_solve_settings():
    # the positional rule holds only while max_rank is second everywhere
    for name in SOLVERS:
        assert list(inspect.signature(getattr(ev, name)).parameters)[1] \
            == "max_rank"
    found = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
             if path.name != "evolution.py"
             for hit in own_policy(path.read_text(encoding="utf-8"))]
    assert found == []


def test_bound_state_solvers_take_only_a_model():
    for solver in (ev.raman_states, ev.bound_states):
        assert list(inspect.signature(solver).parameters) == ["params"]
