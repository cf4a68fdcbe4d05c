"""A decision is written in one place.

``repro.obs.decisions.record`` is the only code that fans a decision out
to the metrics registry, the event log and the audit ledger.  Outside
``repro/obs/`` a function may fetch one store for a measurement of its
own; one that reaches for two is hand-writing a decision into several
views again — the shape that let the views disagree.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: Reaching for two of these in one function is a hand-rolled fan-out.
STORE_ACCESSORS = frozenset(
    {"get_registry", "get_event_log", "get_ledger", "record_decision"}
)


def _stores_reached(function: ast.AST) -> set[str]:
    """Store accessors *function* calls, by bare name or as an attribute."""
    reached = set()
    for node in ast.walk(function):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        name = (
            callee.id if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute) else None
        )
        if name in STORE_ACCESSORS:
            reached.add(name)
    return reached


def _multi_store_functions(tree: ast.AST) -> list[tuple[str, list[str]]]:
    return [
        (node.name, sorted(_stores_reached(node)))
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and len(_stores_reached(node)) >= 2
    ]


def test_detector_sees_what_it_should():
    sample = ast.parse(
        "def by_hand(self):\n"
        "    registry = obs_metrics.get_registry()\n"
        "    log = get_event_log()\n"
        "def measurement(self):\n"
        "    registry = obs_metrics.get_registry()\n"
        "    registry = obs_metrics.get_registry()\n"
        "def one_call(self):\n"
        "    decisions.record('claim', domain=self.domain)\n"
    )
    assert _multi_store_functions(sample) == [
        ("by_hand", ["get_event_log", "get_registry"])
    ]


def test_no_function_outside_obs_writes_a_decision_by_hand():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.relative_to(SRC.parent)}: {name} reaches {stores}"
            for name, stores in _multi_store_functions(tree)
        ]
    assert not offenders, (
        "state the decision once with repro.obs.decisions.record instead "
        "of writing it into each store by hand:\n" + "\n".join(offenders)
    )
