"""The reference decoder stays a reference.

``codec.from_wire`` = ``codec.unpack(canonical.decode(...))`` is the
eager two-pass decoder the codec property, fuzz and golden-vector suites
compare :class:`~repro.core.codec.WireView` against.  Production code
decodes received bytes through ``WireView`` only, so no module under
``src/repro`` other than ``core/codec.py`` itself may import or call
the reference entry points.

The other boundary faces outward: the repo benchmark (``bench/``) is
frozen and reaches into ``src/`` by name — its imports, and the dotted
entry points ``bench/trace.py::TARGETS`` wraps.  Everything it names
must still resolve, so deleting one fails here and not in the bench job
after the fact.

The third keeps process-global state in one place: the one module-level
``Context()`` in ``obs/context.py`` holds the observer stores, the
request scope and the id sequences, and nothing under ``src/repro``
builds an ``itertools.count``, a ``ContextVar`` or a ``Holder`` at import
time — so a campaign in a fresh context owes nothing to what ran before
it.  And a signature verdict is computed from its arguments — the two
signature primitives have no branch that could read one from elsewhere.

The fourth keeps the wire schema in one place: ``codec.pack`` and the
production decoder loop over ``codec._SCHEMA`` instead of spelling the
four object kinds' field lists out, only the reference half calls
``unpack``, and ``WireView.materialize`` re-encodes what it decoded
exactly once — the encoder is the decoder's specification.

The fifth keeps the library on one thread, by rule: no module under
``src/repro`` imports ``threading``, ``_thread``, ``concurrent.futures``
or ``multiprocessing``.  Batch parallelism is a modelled schedule
(``core/concurrent.py``), so nothing in the library needs a lock.

The sixth keeps metric writes in ``repro.obs``: a metric is a decision's
count (``obs/decisions.py``) or a flight-recorder probe's sample, so no
module under ``src/repro`` outside ``repro/obs/`` reaches for the
registry with ``get_registry``, in any spelling.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parent
BENCH = SRC.parents[1] / "bench"

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


#: Modules that would start a second thread (or process) of control.
THREAD_MODULES = ("threading", "_thread", "concurrent.futures", "multiprocessing")


def _is_thread_module(dotted: str) -> bool:
    return any(
        dotted == name or dotted.startswith(f"{name}.")
        for name in THREAD_MODULES
    )


def _thread_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, dotted name)`` for every import of a thread module, at
    any nesting depth, including ``from concurrent import futures`` and
    ``importlib.import_module("threading")``."""
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            names = [node.module] if _is_thread_module(node.module) else [
                f"{node.module}.{alias.name}" for alias in node.names
            ]
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func).split(".")[-1]
            in ("import_module", "__import__")
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            names = [node.args[0].value]
        else:
            continue
        found += [
            (node.lineno, name) for name in names if _is_thread_module(name)
        ]
    return found


def _registry_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """``(line, spelling)`` for every use of ``get_registry``: imported,
    named (also under an import alias), reached as a module attribute at
    any depth, or fetched with ``getattr``."""
    names = {"get_registry"}
    found: list[tuple[int, str]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "get_registry":
                    names.add(alias.asname or alias.name)
                    found.append((node.lineno, f"import {alias.name}"))
    for node in ast.walk(tree):
        if (
            (isinstance(node, ast.Name) and node.id in names)
            or (isinstance(node, ast.Attribute) and node.attr == "get_registry")
            or (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "getattr"
                and any(
                    isinstance(arg, ast.Constant) and arg.value == "get_registry"
                    for arg in node.args
                )
            )
        ):
            found.append((node.lineno, ast.unparse(node)))
    return sorted(found)


#: Constructors of process-global state when called at import time.
PROCESS_STATE = ("itertools.count", "contextvars.ContextVar")
#: The one allowed: the current context.
CONTEXT = "repro.obs.context.Context"


def _import_time_calls(tree: ast.Module) -> list[ast.Call]:
    """Every call evaluated when the module is imported: module and class
    bodies, decorators and argument defaults — not function bodies."""
    calls, stack = [], list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack += [*node.args.defaults, *filter(None, node.args.kw_defaults)]
            stack += getattr(node, "decorator_list", [])
            continue
        if isinstance(node, ast.Call):
            calls.append(node)
        stack += ast.iter_child_nodes(node)
    return calls


def _process_state(tree: ast.Module, module: str) -> list[tuple[int, str]]:
    """``(line, dotted name)`` for every import-time call that builds a
    counter, a ``ContextVar``, a ``Holder`` or a ``Context``, through any
    import alias.  A name not imported resolves inside *module*."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    head = alias.name.split(".")[0]
                    aliases[head] = head
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                aliases[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}" if node.module else alias.name
                )
    found = []
    for call in _import_time_calls(tree):
        head, dot, rest = ast.unparse(call.func).partition(".")
        dotted = aliases.get(head, f"{module}.{head}") + dot + rest
        if (
            dotted in PROCESS_STATE
            or dotted == CONTEXT
            or dotted.rsplit(".", 1)[-1] == "Holder"
        ):
            found.append((call.lineno, dotted))
    return sorted(found)


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
    threads = ast.parse(
        "import threading\n"
        "import _thread as t\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from concurrent import futures\n"
        "def f():\n"
        "    import multiprocessing.pool\n"
        "importlib.import_module('threading')\n"
        "from repro.core.concurrent import run_batch\n"
        "from repro.core import concurrent\n"
        "from . import threading\n"
        "import threadingx, concurrent_tools, multiprocessing\n"
    )
    assert sorted(_thread_imports(threads)) == [
        (1, "threading"),
        (2, "_thread"),
        (3, "concurrent.futures"),
        (4, "concurrent.futures"),
        (6, "multiprocessing.pool"),
        (7, "threading"),
        (11, "multiprocessing"),
    ]
    state = ast.parse(
        "import itertools\n"
        "import itertools as it\n"
        "from itertools import count\n"
        "from itertools import count as tick\n"
        "from contextvars import ContextVar\n"
        "import contextvars\n"
        "from repro.obs import context\n"
        "from repro.obs._holder import Holder\n"
        "a = itertools.count(1)\n"
        "b: object = it.count()\n"
        "c = next(count())\n"
        "if a:\n"
        "    d = tick(5)\n"
        "e = ContextVar('e')\n"
        "f = contextvars.ContextVar('f', default=None)\n"
        "g = Holder()\n"
        "h = context.Context()\n"
        "class K:\n"
        "    ids = count()\n"
        "    def __init__(self):\n"
        "        self.ids = count()\n"
        "def f(x=it.count()):\n"
        "    return itertools.count()\n"
        "new = lambda: count()\n"
        "text.count('a')\n"
        "counts = [n.count() for n in names]\n"
    )
    assert _process_state(state, "repro.sample") == [
        (9, "itertools.count"),
        (10, "itertools.count"),
        (11, "itertools.count"),
        (13, "itertools.count"),
        (14, "contextvars.ContextVar"),
        (15, "contextvars.ContextVar"),
        (16, "repro.obs._holder.Holder"),
        (17, "repro.obs.context.Context"),
        (19, "itertools.count"),
        (22, "itertools.count"),
    ]
    assert _process_state(
        ast.parse("_current = Context()\n"), "repro.obs.context"
    ) == [(1, CONTEXT)]
    registry = ast.parse(
        "from repro.obs import metrics as m\n"
        "from repro.obs.metrics import get_registry\n"
        "from repro.obs.metrics import get_registry as reg\n"
        "import repro.obs.metrics\n"
        "m.get_registry()\n"
        "get_registry()\n"
        "reg()\n"
        "repro.obs.metrics.get_registry()\n"
        "def f():\n"
        "    fetch = m.get_registry\n"
        "getattr(m, 'get_registry')()\n"
        "m.use_registry()\n"
        "ACCESSORS = {'get_registry'}\n"
        "registry.counter('x').inc()\n"
    )
    assert _registry_uses(registry) == [
        (2, "import get_registry"),
        (3, "import get_registry"),
        (5, "m.get_registry"),
        (6, "get_registry"),
        (7, "reg"),
        (8, "repro.obs.metrics.get_registry"),
        (10, "m.get_registry"),
        (11, "getattr(m, 'get_registry')"),
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


def test_the_library_runs_on_one_thread():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for line, name in _thread_imports(tree)
        ]
    assert not offenders, (
        "one thread, by rule: batch parallelism is the modelled schedule "
        "in core/concurrent.py, not a thread pool:\n" + "\n".join(offenders)
    )


def test_only_obs_fetches_the_registry():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        if SRC / "obs" in path.parents:
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        offenders += [
            f"{path.relative_to(SRC.parent)}:{line}: {name}"
            for line, name in _registry_uses(tree)
        ]
    assert not offenders, (
        "a metric is a row of repro.obs.decisions.DECISIONS or a probe in "
        "repro.obs.telemetry.testbed_probes, not a get_registry() block:\n"
        + "\n".join(offenders)
    )


def _bench_imports() -> list[tuple[str, str]]:
    """``(module, name)`` for every ``repro`` import under ``bench/``
    (name ``""`` for a plain ``import``), at any nesting depth —
    ``run.py`` imports lazily."""
    found = set()
    for path in sorted(BENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(
                    (a.name, "") for a in node.names
                    if a.name.split(".")[0] == "repro"
                )
            elif (
                isinstance(node, ast.ImportFrom)
                and node.module
                and node.module.split(".")[0] == "repro"
            ):
                found.update((node.module, a.name) for a in node.names)
    return sorted(found)


def _bench_trace():
    """``bench/trace.py`` loaded from its path (``bench/`` is not a
    package, and its name shadows the stdlib's ``trace``)."""
    spec = importlib.util.spec_from_file_location(
        "bench_trace", BENCH / "trace.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module_name: str, name: str) -> bool:
    try:
        module = importlib.import_module(module_name)
        if name and not hasattr(module, name):
            # ``from package import submodule``
            importlib.import_module(f"{module_name}.{name}")
    except ImportError:
        return False
    return True


def test_every_bench_import_resolves():
    imports = _bench_imports()
    assert ("repro.obs.perf.bench", "machine_fingerprint") in imports
    missing = [spec for spec in imports if not _resolves(*spec)]
    assert not missing, f"bench/ imports names src/ no longer has: {missing}"


def test_every_traced_target_is_defined_by_its_owner():
    """By the tracer's own rule — what ``--self-check`` would report."""
    trace = _bench_trace()
    assert "repro.core.trust.verify_rar" in trace.TARGETS["core.trust"]
    with trace.LayerTracer() as tracer:
        missing = tracer.missing
    assert not tracer.leftovers()
    assert not missing, (
        f"bench/trace.py TARGETS names src/ no longer defines: {missing}"
    )


def _src_trees():
    for path in sorted(SRC.rglob("*.py")):
        module = ".".join(
            ("repro", *path.relative_to(SRC).with_suffix("").parts)
        ).removesuffix(".__init__")
        yield module, ast.parse(path.read_text(encoding="utf-8"), str(path))


def test_one_context_is_the_only_process_global_state():
    found = [
        (module, line, name)
        for module, tree in _src_trees()
        for line, name in _process_state(tree, module)
    ]
    contexts = [(module, name) for module, _, name in found if name == CONTEXT]
    assert contexts == [("repro.obs.context", CONTEXT)]
    others = [
        f"{module}:{line}: {name}"
        for module, line, name in found if name != CONTEXT
    ]
    assert not others, (
        "process-global state outside the one context (draw ids from "
        "repro.obs.context.current()):\n" + "\n".join(others)
    )


def test_signature_primitives_do_not_branch():
    """``verify`` is ``scheme.verify(key, bytes, signature)`` and nothing
    else: no fork that answers from process state instead."""
    for path, cls, method in (
        (SRC / "core" / "envelope.py", "SignedEnvelope", "verify"),
        (SRC / "crypto" / "x509.py", "Certificate", "verify_signature"),
    ):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        (function,) = [
            item
            for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name == cls
            for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == method
        ]
        branches = [
            node for node in ast.walk(function)
            if isinstance(node, (ast.If, ast.IfExp))
        ]
        assert not branches, f"{cls}.{method} branches at line {branches[0].lineno}"


def _codec_functions() -> dict[str, ast.FunctionDef]:
    """``core/codec.py``'s top-level functions and ``WireView.<method>``s."""
    tree = ast.parse(
        (SRC / "core" / "codec.py").read_text(encoding="utf-8")
    )
    functions = {
        node.name: node for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    (view,) = [
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "WireView"
    ]
    functions.update(
        (f"WireView.{node.name}", node) for node in view.body
        if isinstance(node, ast.FunctionDef)
    )
    return functions


def _calls(function: ast.AST, name: str) -> list[ast.Call]:
    return [
        node for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == name
    ]


def test_only_the_reference_half_calls_unpack():
    assert {
        name for name, function in _codec_functions().items()
        if _calls(function, "unpack")
    } == {"unpack", "from_wire"}


def test_materialize_reencodes_exactly_once():
    materialize = _codec_functions()["WireView.materialize"]
    assert len(_calls(materialize, "to_wire")) == 1


def test_schema_kinds_are_not_dispatched_by_hand():
    classes = {
        "Certificate", "SignedAssertion", "ReservationRequest",
        "SignedEnvelope",
    }
    kinds = {"certificate", "assertion", "res_spec", "envelope"}
    hand_written = []
    for name, function in _codec_functions().items():
        if name == "unpack":  # the reference spells the lists out
            continue
        for node in ast.walk(function):
            if (
                isinstance(node, ast.Call)
                and ast.unparse(node.func) == "isinstance"
                and classes & {
                    n.id for n in ast.walk(node.args[1])
                    if isinstance(n, ast.Name)
                }
            ) or (
                isinstance(node, ast.Compare)
                and ast.unparse(node.left) == "kind"
                and kinds & {
                    n.value for comparator in node.comparators
                    for n in ast.walk(comparator)
                    if isinstance(n, ast.Constant)
                }
            ):
                hand_written.append(f"{name}:{node.lineno}")
    assert not hand_written, (
        "pack and the production decoder loop over codec._SCHEMA; "
        f"dispatched by hand at {hand_written}"
    )
