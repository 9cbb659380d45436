"""One evolution policy: `EvolutionParams` holds the only time-stepper
defaults, so no function of the real-time layers keeps one of its own."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
LAYERS = ["model", "evolution", "scattering"]
STEPPER = {"dt", "order", "max_rank", "cutoff", "n_snapshots"}


def stepper_defaults(source: str) -> list:
    """``(function, parameter)`` of every stepper setting a function
    defaults, positional or keyword-only; a default that is a ``SOLVE_*``
    name (the DMRG solve policy) is allowed."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):],
                         args.defaults))
        pairs += [(a, d) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        for arg, default in pairs:
            if arg.arg in STEPPER and not (
                    isinstance(default, ast.Name)
                    and default.id.startswith("SOLVE_")):
                found.append((node.name, arg.arg))
    return sorted(found)


def test_the_rule_sees_positional_keyword_and_solve_defaults():
    source = ("def f(x, dt=0.1, order=3, *, cutoff=1e-12, n_snapshots):\n"
              "    return x\n"
              "def g(max_rank=SOLVE_RANK, cutoff=SOLVE_CUTOFF, tol=1e-4):\n"
              "    def h(max_rank=10):\n        return max_rank\n"
              "    return h\n"
              "def k(dt, order, max_rank, cutoff, n_snapshots, gs=None):\n"
              "    return gs\n")
    assert stepper_defaults(source) == [("f", "cutoff"), ("f", "dt"),
                                        ("f", "order"), ("h", "max_rank")]


def test_no_real_time_layer_defaults_a_stepper_setting():
    found = [(name, *hit) for name in LAYERS
             for hit in stepper_defaults((ROOT / "src" / "uscqed"
                                          / f"{name}.py").read_text(
                                              encoding="utf-8"))]
    assert found == []
