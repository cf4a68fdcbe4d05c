"""The hop engine keeps its shape.

``core/hopbyhop.py`` has one per-hop step — gate → decode → verify →
decide → forward — shared by ``reserve()`` and ``process_ingress``, and
one denial writer.  These AST checks keep a second copy of a stage, a
pasted denial block or a monolithic method from growing back.
"""

import ast
from pathlib import Path

import repro

#: The engine, and any file later split from it.
ENGINE_FILES = (Path(repro.__file__).resolve().parent / "core" / "hopbyhop.py",)

MAX_FUNCTION_LINES = 100

#: Stage entry points the engine calls from exactly one place.
EXACTLY_ONE_CALL_SITE = ("admit_signal", "verify_rar", "verify_rar_with_repository")
MAX_DENIAL_SITES = 2


def _trees() -> list[tuple[Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text(encoding="utf-8"), str(path)))
        for path in ENGINE_FILES
    ]


def _call_sites(tree: ast.AST, name: str) -> list[int]:
    """Lines calling *name*, as a bare name or as any object's method."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee = node.func
        called = (
            callee.id if isinstance(callee, ast.Name)
            else callee.attr if isinstance(callee, ast.Attribute) else None
        )
        if called == name:
            lines.append(node.lineno)
    return lines


def _attribute_uses(tree: ast.AST, dotted_tail: str) -> list[int]:
    """Lines where an attribute chain ends in *dotted_tail* (``A.B``)."""
    owner, attr = dotted_tail.split(".")
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == attr
        and ast.unparse(node.value).split(".")[-1] == owner
    ]


def _foreign_private_accesses(tree: ast.AST) -> list[tuple[int, str]]:
    """``obj._name`` where *obj* is not ``self``/``cls`` (dunders such
    as ``exc.__cause__`` exempt)."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        attr = node.attr
        if not attr.startswith("_") or attr.startswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append((node.lineno, ast.unparse(node)))
    return found


def test_detectors_see_what_they_should():
    sample = ast.parse(
        "verify_rar(x)\n"
        "bb.defense.admit_signal(peer=p)\n"
        "trust.verify_rar(y)\n"
        "verify_rar_with_repository(z)\n"
        "obs_audit.RecordKind.DENY\n"
        "RecordKind.DENY.value\n"
        "RecordKind.ADMIT\n"
        "bb.policy_server._trusted_communities\n"
        "self._breakers\n"
        "exc.__cause__\n"
    )
    assert _call_sites(sample, "verify_rar") == [1, 3]
    assert _call_sites(sample, "admit_signal") == [2]
    assert _attribute_uses(sample, "RecordKind.DENY") == [5, 6]
    assert _foreign_private_accesses(sample) == [
        (8, "bb.policy_server._trusted_communities")
    ]


def test_no_function_over_the_limit():
    too_long = []
    for path, tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                assert node.end_lineno is not None
                length = node.end_lineno - node.lineno + 1
                if length > MAX_FUNCTION_LINES:
                    too_long.append(f"{path.name}:{node.lineno} {node.name} ({length})")
    assert not too_long, (
        f"functions over {MAX_FUNCTION_LINES} lines (split into stages, "
        "do not grow a second _signal_inner):\n" + "\n".join(too_long)
    )


def test_each_stage_has_one_call_site():
    for name in EXACTLY_ONE_CALL_SITE:
        sites = [
            f"{path.name}:{line}"
            for path, tree in _trees()
            for line in _call_sites(tree, name)
        ]
        assert len(sites) == 1, (
            f"{name} must be called from exactly one place (the shared "
            f"receive step); found {sites}"
        )


def test_denials_go_through_one_writer():
    trees = _trees()
    signed = [line for _, tree in trees for line in _call_sites(tree, "make_denial")]
    recorded = [
        line for _, tree in trees
        for line in _attribute_uses(tree, "RecordKind.DENY")
    ]
    assert len(signed) <= MAX_DENIAL_SITES, f"make_denial call sites: {signed}"
    assert len(recorded) <= MAX_DENIAL_SITES, f"RecordKind.DENY uses: {recorded}"


def test_engine_keeps_out_of_other_objects_privates():
    offenders = [
        f"{path.name}:{line}: {text}"
        for path, tree in _trees()
        for line, text in _foreign_private_accesses(tree)
    ]
    assert not offenders, (
        "the engine reaches into another object's private state (give "
        "the owner a public method):\n" + "\n".join(offenders)
    )
