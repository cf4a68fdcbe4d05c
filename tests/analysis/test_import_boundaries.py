"""The reference decoder stays a reference.

``codec.from_wire`` = ``codec.unpack(canonical.decode(...))`` is the
eager two-pass decoder the codec property, fuzz and golden-vector suites
compare :class:`~repro.core.codec.WireView` against.  Production code
decodes received bytes through ``WireView`` only, so no module under
``src/repro`` other than ``core/codec.py`` itself may import or call
the reference entry points.
"""

import ast
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent

#: module -> names that are reference-decoder entry points.
REFERENCE_ONLY = {
    "repro.core.codec": {"from_wire", "unpack"},
    "repro.crypto.canonical": {"decode"},
}


def _reference_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted name)`` for every import of, or attribute access
    to, a reference entry point — through any local alias of its module."""
    aliases: dict[str, str] = {}
    uses: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name in REFERENCE_ONLY and alias.asname:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                dotted = f"{node.module}.{alias.name}"
                if dotted in REFERENCE_ONLY:
                    aliases[alias.asname or alias.name] = dotted
                elif alias.name in REFERENCE_ONLY.get(node.module, ()):
                    uses.append((node.lineno, dotted))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        owner = ast.unparse(node.value)
        module = aliases.get(owner, owner)
        if node.attr in REFERENCE_ONLY.get(module, ()):
            uses.append((node.lineno, f"{module}.{node.attr}"))
    return uses


def test_detector_sees_every_spelling():
    sample = ast.parse(
        "from repro.core.codec import from_wire\n"
        "from repro.core import codec as c\n"
        "from repro.crypto import canonical\n"
        "import repro.crypto.canonical\n"
        "c.unpack(x)\n"
        "canonical.decode(b)\n"
        "repro.crypto.canonical.decode(b)\n"
        "payload.decode('ascii')\n"
        "struct.unpack('>I', b)\n"
        "canonical.encode(v)\n"
    )
    assert sorted(_reference_uses(sample)) == [
        (1, "repro.core.codec.from_wire"),
        (5, "repro.core.codec.unpack"),
        (6, "repro.crypto.canonical.decode"),
        (7, "repro.crypto.canonical.decode"),
    ]


def test_only_codec_touches_the_reference_decoder():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if path == SRC / "core" / "codec.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for line, name in _reference_uses(tree)
        ]
    assert not offenders, (
        "production code reaches the reference decoder (decode received "
        "bytes with WireView.parse(...).materialize()):\n"
        + "\n".join(offenders)
    )
