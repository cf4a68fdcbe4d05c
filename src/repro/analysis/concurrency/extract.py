"""AST extraction for the concurrency-soundness pass.

Two phases over the analyzed source set:

* **Phase A (indexing)** — every module is parsed once and scanned for
  classes, their base classes, the types their attributes are assigned
  (``self.reservations = ReservationTable(...)`` or parameter/field
  annotations), lock declarations (``self._lock = threading.RLock()``,
  module globals, dataclass ``field(default_factory=threading.Lock)``),
  and the return annotations of every function.  The result is a
  :class:`ProgramIndex` that later phases use as a nominal type oracle.

* **Phase B (function walk)** — each function body is walked in
  statement order tracking (a) the stack of locks held lexically via
  ``with`` statements and (b) a flow-insensitive local-variable type
  environment seeded from parameter annotations and updated by
  assignments.  The walk emits :class:`Acquisition`, :class:`CallSite`
  and :class:`AttrAccess` events annotated with the held-lock context;
  :mod:`repro.analysis.concurrency.lockgraph` and ``guarded`` assemble
  them into the whole-program lock-order graph and the guarded-state
  report.

Approximations (documented in ``docs/STATIC_ANALYSIS.md``): nominal
types only (no flow-sensitivity, no unions — the first resolvable name
in an annotation wins); calls through unresolvable receivers are
dropped; lock acquisition is recognized on ``with`` statements only
(the repo bans bare ``.acquire()`` on its own locks); nested function
bodies are walked with an empty held-lock stack since their execution
point is unknown.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Sequence

from repro.analysis.concurrency.model import (
    KIND_LOCK,
    KIND_PARAM,
    KIND_RLOCK,
    LockNode,
)
from repro.errors import AnalysisError

__all__ = [
    "LockDecl",
    "Acquisition",
    "CallSite",
    "AttrAccess",
    "FunctionSummary",
    "ClassInfo",
    "ModuleInfo",
    "ProgramIndex",
    "index_sources",
]

#: Method names treated as in-place mutation of the container they are
#: called on (``self.transitions.append(...)`` mutates ``transitions``).
MUTATOR_METHODS = frozenset({
    "append", "extend", "insert", "add", "update", "setdefault",
    "pop", "popitem", "remove", "discard", "clear", "sort", "reverse",
    "appendleft", "popleft", "move_to_end",
})

#: Access kinds (see :class:`AttrAccess`).
READ = "read"
MUTATE = "mutate"
REBIND = "rebind"


@dataclass(frozen=True)
class LockDecl:
    """One lock declaration discovered in phase A."""

    owner: str          # class key ("module.Class") or module name
    attr: str           # attribute / global name
    kind: str           # model.KIND_*
    path: str
    line: int
    #: For ``param`` locks: the ``__init__`` parameter the lock came
    #: from, so constructor calls can unify it with the caller's lock.
    source_param: str | None = None

    @property
    def key(self) -> str:
        return f"{self.owner}.{self.attr}"

    def node(self) -> LockNode:
        return LockNode(self.key, self.kind, self.path, self.line)


@dataclass(frozen=True)
class Acquisition:
    """A ``with <lock>:`` entry, with the locks already held there."""

    lock: str                      # node key
    held: tuple[str, ...]          # node keys held when acquiring
    line: int
    col: int


@dataclass(frozen=True)
class CallSite:
    """A call to a (possibly) program-local function or constructor."""

    target: str | None             # resolved summary key, None if opaque
    held: tuple[str, ...]
    line: int
    #: For constructor calls: (param_name, lock_key) pairs for every
    #: argument that is one of the caller's lock attributes — the alias
    #: unification input.
    lock_args: tuple[tuple[str, str], ...] = ()


@dataclass(frozen=True)
class AttrAccess:
    """One attribute access on ``self`` or on a typed receiver."""

    owner: str                     # class key the attribute belongs to
    attr: str
    kind: str                      # READ | MUTATE | REBIND
    guarded_by: tuple[str, ...]    # held lock keys owned by *owner*
    line: int
    col: int
    function: str                  # accessing function (summary key)
    in_init: bool
    cross_class: bool              # receiver was not ``self``


@dataclass
class FunctionSummary:
    """Everything the global passes need to know about one function."""

    key: str                       # "module.func" or "module.Class.method"
    name: str
    cls: str | None                # owning class key
    path: str
    line: int
    acquisitions: list[Acquisition] = dc_field(default_factory=list)
    calls: list[CallSite] = dc_field(default_factory=list)
    accesses: list[AttrAccess] = dc_field(default_factory=list)


@dataclass
class ClassInfo:
    key: str                       # "module.Class"
    name: str
    module: str
    path: str
    line: int
    bases: tuple[str, ...] = ()    # raw base-class expressions
    lock_decls: dict[str, LockDecl] = dc_field(default_factory=dict)
    #: attr -> raw type expression string ("ReservationTable",
    #: "dict[str, _StatCell]", "MetricsRegistry | None").
    attr_types: dict[str, str] = dc_field(default_factory=dict)
    method_names: set[str] = dc_field(default_factory=set)


@dataclass
class ModuleInfo:
    module: str
    path: str
    tree: ast.Module
    #: local alias -> imported module ("obs_metrics" -> "repro.obs.metrics").
    import_modules: dict[str, str] = dc_field(default_factory=dict)
    #: local alias -> dotted member ("Lock" -> "threading.Lock").
    import_members: dict[str, str] = dc_field(default_factory=dict)
    classes: dict[str, ClassInfo] = dc_field(default_factory=dict)
    global_locks: dict[str, LockDecl] = dc_field(default_factory=dict)
    #: function key -> raw return annotation string.
    return_types: dict[str, str] = dc_field(default_factory=dict)


_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


def _ann_to_str(node: ast.AST | None) -> str:
    if node is None:
        return ""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - unparse is total on parsed trees
        return ""


def _is_lock_factory(node: ast.AST, info: ModuleInfo) -> str | None:
    """``threading.Lock()`` / ``threading.RLock()`` (through import
    aliases) -> lock kind, else None."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    dotted: str | None = None
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        base = info.import_modules.get(func.value.id, func.value.id)
        dotted = f"{base}.{func.attr}"
    elif isinstance(func, ast.Name):
        dotted = info.import_members.get(func.id)
    if dotted == "threading.Lock":
        return KIND_LOCK
    if dotted == "threading.RLock":
        return KIND_RLOCK
    return None


def _annotation_is_lock(ann: str) -> str | None:
    if re.search(r"\bRLock\b", ann):
        return KIND_RLOCK
    if re.search(r"\bLock\b", ann):
        return KIND_LOCK
    return None


# ---------------------------------------------------------------------------
# Phase A — indexing
# ---------------------------------------------------------------------------


class ProgramIndex:
    """Nominal-type oracle over the analyzed source set."""

    def __init__(self, modules: Sequence[ModuleInfo]) -> None:
        self.modules: dict[str, ModuleInfo] = {m.module: m for m in modules}
        self.classes: dict[str, ClassInfo] = {}
        #: bare class name -> class keys sharing it.
        self._by_name: dict[str, list[str]] = {}
        self.functions: dict[str, FunctionSummary] = {}
        self.return_types: dict[str, str] = {}
        for m in modules:
            for cls in m.classes.values():
                self.classes[cls.key] = cls
                self._by_name.setdefault(cls.name, []).append(cls.key)
            self.return_types.update(m.return_types)
        self.lock_decls: dict[str, LockDecl] = {}
        for m in modules:
            self.lock_decls.update(
                {d.key: d for d in m.global_locks.values()}
            )
            for cls in m.classes.values():
                self.lock_decls.update(
                    {d.key: d for d in cls.lock_decls.values()}
                )
        # Phase B fills self.functions.

    # -- name resolution -----------------------------------------------------------

    def resolve_class_name(self, raw: str, module: str) -> str | None:
        """Resolve a raw type/base name to a class key, preferring the
        naming module's own classes, then its imports, then a unique
        program-wide match."""
        if not raw:
            return None
        raw = raw.strip()
        info = self.modules.get(module)
        if info is not None:
            if f"{module}.{raw}" in self.classes:
                return f"{module}.{raw}"
            dotted = info.import_members.get(raw)
            if dotted is not None and dotted in self.classes:
                return dotted
            if "." in raw:
                head, _, tail = raw.partition(".")
                base = info.import_modules.get(head)
                if base is not None and f"{base}.{tail}" in self.classes:
                    return f"{base}.{tail}"
        candidates = self._by_name.get(raw.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def resolve_annotation(self, ann: str, module: str) -> str | None:
        """First resolvable class named in an annotation expression
        (``MetricsRegistry | None`` -> the registry class).  Container
        annotations resolve to their *value* type so that subscripting
        a ``dict[str, _StatCell]`` yields ``_StatCell``."""
        if not ann:
            return None
        m = re.match(r"\s*(dict|Dict|defaultdict|OrderedDict)\s*\[(.*)\]", ann)
        if m:
            inner = m.group(2)
            depth = 0
            for i, ch in enumerate(inner):
                if ch == "[":
                    depth += 1
                elif ch == "]":
                    depth -= 1
                elif ch == "," and depth == 0:
                    ann = inner[i + 1:]
                    break
        m = re.match(r"\s*(list|List|tuple|Tuple|set|Set|frozenset)\s*\[(.*)\]",
                     ann)
        if m:
            ann = m.group(2)
        for ident in _IDENT_RE.findall(ann):
            if ident in ("None", "Optional", "Union", "Any", "object",
                         "str", "int", "float", "bool", "bytes"):
                continue
            resolved = self.resolve_class_name(ident, module)
            if resolved is not None:
                return resolved
        return None

    def mro(self, class_key: str) -> list[str]:
        """Program-local linearization (BFS over resolvable bases)."""
        out: list[str] = []
        queue = [class_key]
        seen: set[str] = set()
        while queue:
            key = queue.pop(0)
            if key in seen:
                continue
            seen.add(key)
            cls = self.classes.get(key)
            if cls is None:
                continue
            out.append(key)
            for base in cls.bases:
                resolved = self.resolve_class_name(base, cls.module)
                if resolved is not None:
                    queue.append(resolved)
        return out

    def find_lock_decl(self, class_key: str, attr: str) -> LockDecl | None:
        for key in self.mro(class_key):
            cls = self.classes.get(key)
            if cls is not None and attr in cls.lock_decls:
                return cls.lock_decls[attr]
        return None

    def find_attr_type(self, class_key: str, attr: str) -> str | None:
        for key in self.mro(class_key):
            cls = self.classes.get(key)
            if cls is not None and attr in cls.attr_types:
                return cls.attr_types[attr]
        return None

    def find_method(self, class_key: str, name: str) -> str | None:
        """Summary key of *name* resolved through the MRO."""
        for key in self.mro(class_key):
            cls = self.classes.get(key)
            if cls is not None and name in cls.method_names:
                return f"{key}.{name}"
        return None

    def class_locks(self, class_key: str) -> dict[str, LockDecl]:
        """Every lock attr visible on *class_key* (inherited included)."""
        out: dict[str, LockDecl] = {}
        for key in reversed(self.mro(class_key)):
            cls = self.classes.get(key)
            if cls is not None:
                out.update(cls.lock_decls)
        return out


def _scan_imports(info: ModuleInfo) -> None:
    for node in ast.walk(info.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                info.import_modules[alias.asname or alias.name.split(".")[0]] = (
                    alias.name
                )
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                info.import_members[alias.asname or alias.name] = (
                    f"{node.module}.{alias.name}"
                )


def _value_type_expr(node: ast.AST) -> str:
    """Raw type expression of an assigned value, best effort."""
    if isinstance(node, ast.Call):
        try:
            return ast.unparse(node.func)
        except Exception:  # pragma: no cover
            return ""
    if isinstance(node, ast.Dict) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Call):
            return f"dict[str, {_value_type_expr(first)}]"
    if isinstance(node, (ast.List, ast.Set)) and node.elts:
        first = node.elts[0]
        if isinstance(first, ast.Call):
            return f"list[{_value_type_expr(first)}]"
    return ""


def _scan_class(info: ModuleInfo, node: ast.ClassDef) -> ClassInfo:
    cls = ClassInfo(
        key=f"{info.module}.{node.name}",
        name=node.name,
        module=info.module,
        path=info.path,
        line=node.lineno,
        bases=tuple(_ann_to_str(b) for b in node.bases),
    )

    def note_lock(attr: str, kind: str, line: int,
                  source_param: str | None = None) -> None:
        cls.lock_decls.setdefault(attr, LockDecl(
            owner=cls.key, attr=attr, kind=kind, path=info.path,
            line=line, source_param=source_param,
        ))

    for stmt in node.body:
        # Dataclass-style: ``lock: threading.Lock = field(default_factory=...)``
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            ann = _ann_to_str(stmt.annotation)
            kind = _annotation_is_lock(ann)
            if kind is not None:
                note_lock(stmt.target.id, kind, stmt.lineno)
            elif ann:
                cls.attr_types.setdefault(stmt.target.id, ann)
        if not isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls.method_names.add(stmt.name)
        ret = _ann_to_str(stmt.returns)
        if ret:
            info.return_types[f"{cls.key}.{stmt.name}"] = ret
        # Parameter annotations, for ``self.x = param`` typing below.
        param_anns: dict[str, str] = {}
        args = stmt.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = _ann_to_str(a.annotation)
            if ann:
                param_anns[a.arg] = ann
        for sub in ast.walk(stmt):
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            else:
                continue
            for target in targets:
                if not (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    continue
                attr = target.attr
                kind = _is_lock_factory(value, info)
                if kind is not None:
                    note_lock(attr, kind, value.lineno)
                    continue
                if isinstance(value, ast.Name):
                    ann = param_anns.get(value.id, "")
                    lock_kind = _annotation_is_lock(ann)
                    if lock_kind is not None:
                        # A lock received from outside: alias node.
                        note_lock(attr, KIND_PARAM, value.lineno,
                                  source_param=value.id)
                        continue
                    if ann:
                        cls.attr_types.setdefault(attr, ann)
                        continue
                if isinstance(sub, ast.AnnAssign):
                    ann = _ann_to_str(sub.annotation)
                    lock_kind = _annotation_is_lock(ann)
                    if lock_kind is not None:
                        note_lock(attr, lock_kind, sub.lineno)
                    elif ann:
                        cls.attr_types.setdefault(attr, ann)
                    continue
                expr = _value_type_expr(value)
                if expr:
                    cls.attr_types.setdefault(attr, expr)
    return cls


def _scan_module(module: str, path: str, source: str) -> ModuleInfo:
    try:
        tree = ast.parse(source)
    except SyntaxError as exc:
        raise AnalysisError(f"{path}: cannot parse: {exc}") from exc
    info = ModuleInfo(module=module, path=path, tree=tree)
    _scan_imports(info)
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            cls = _scan_class(info, node)
            info.classes[cls.name] = cls
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            ret = _ann_to_str(node.returns)
            if ret:
                info.return_types[f"{module}.{node.name}"] = ret
        elif isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name):
                kind = _is_lock_factory(node.value, info)
                if kind is not None:
                    info.global_locks[target.id] = LockDecl(
                        owner=module, attr=target.id, kind=kind,
                        path=path, line=node.value.lineno,
                    )
    return info


# ---------------------------------------------------------------------------
# Phase B — function walk
# ---------------------------------------------------------------------------


class _FunctionWalker:
    """Walks one function body tracking held locks and local types."""

    def __init__(
        self,
        index: ProgramIndex,
        info: ModuleInfo,
        cls: ClassInfo | None,
        node: ast.FunctionDef | ast.AsyncFunctionDef,
        summary: FunctionSummary,
    ) -> None:
        self.index = index
        self.info = info
        self.cls = cls
        self.summary = summary
        self.held: list[str] = []
        self.locals: dict[str, str] = {}   # var -> class key
        self.in_init = summary.name == "__init__"
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            ann = _ann_to_str(a.annotation)
            resolved = index.resolve_annotation(ann, info.module)
            if resolved is not None:
                self.locals[a.arg] = resolved

    # -- type inference ------------------------------------------------------------

    def _type_of(self, node: ast.AST) -> str | None:
        """Class key of an expression, or None."""
        if isinstance(node, ast.Name):
            if node.id == "self" and self.cls is not None:
                return self.cls.key
            return self.locals.get(node.id)
        if isinstance(node, ast.Attribute):
            base = self._type_of(node.value)
            if base is None:
                return None
            raw = self.index.find_attr_type(base, node.attr)
            if raw is None:
                return None
            return self.index.resolve_annotation(raw, self.info.module)
        if isinstance(node, ast.Subscript):
            # Subscripting a typed container yields its value type
            # (resolve_annotation already unwrapped containers).
            return self._type_of(node.value)
        if isinstance(node, ast.Call):
            return self._call_result_type(node)
        return None

    def _call_result_type(self, node: ast.Call) -> str | None:
        target = self._resolve_call_target(node)
        if target is None:
            return None
        kind, key = target
        if kind == "ctor":
            return key
        ret = self.index.return_types.get(key)
        if ret:
            # Resolve the annotation in the module that *defines* the
            # callee, where its names are in scope.
            return self.index.resolve_annotation(
                ret, self._defining_module(key)
            )
        return None

    def _module_alias(self, name: str) -> str | None:
        """Resolve a local name to a module: plain ``import x as y`` or
        ``from pkg import submodule as y`` (detected against the set of
        analyzed modules)."""
        base = self.info.import_modules.get(name)
        if base is not None:
            return base
        member = self.info.import_members.get(name)
        if member is not None and member in self.index.modules:
            return member
        return None

    def _defining_module(self, key: str) -> str:
        """Module that defines a summary key, for annotation scoping."""
        owner = key.rsplit(".", 1)[0]
        cls = self.index.classes.get(owner)
        if cls is not None:
            return cls.module
        if owner in self.index.modules:
            return owner
        return self.info.module

    # -- call resolution -----------------------------------------------------------

    def _resolve_call_target(
        self, node: ast.Call
    ) -> tuple[str, str] | None:
        """-> ("ctor", class_key) | ("func", summary_key) | None."""
        func = node.func
        if isinstance(func, ast.Name):
            name = func.id
            as_class = self.index.resolve_class_name(name, self.info.module)
            if as_class is not None and (
                name in self.info.classes
                or self.info.import_members.get(name, "").endswith(f".{name}")
                or as_class.rsplit(".", 1)[-1] == name
            ):
                # Distinguish classes from functions by registry lookup.
                if as_class in self.index.classes:
                    return ("ctor", as_class)
            dotted = self.info.import_members.get(name)
            if dotted is not None:
                return ("func", dotted)
            return ("func", f"{self.info.module}.{name}")
        if isinstance(func, ast.Attribute):
            value = func.value
            if isinstance(value, ast.Name):
                base_mod = self._module_alias(value.id)
                if base_mod is not None:
                    dotted = f"{base_mod}.{func.attr}"
                    as_class = (
                        dotted if dotted in self.index.classes else None
                    )
                    if as_class is not None:
                        return ("ctor", as_class)
                    return ("func", dotted)
            recv = self._type_of(value)
            if recv is not None:
                method = self.index.find_method(recv, func.attr)
                if method is not None:
                    return ("func", method)
        return None

    # -- lock-reference resolution ---------------------------------------------------

    def _lock_ref(self, node: ast.AST) -> str | None:
        """Node key if *node* denotes a known lock, else None."""
        if isinstance(node, ast.Name):
            decl = self.info.global_locks.get(node.id)
            if decl is not None:
                return decl.key
            member = self.info.import_members.get(node.id)
            if member is not None and member in self.index.lock_decls:
                return member
            return None
        if isinstance(node, ast.Attribute):
            base = self._type_of(node.value)
            if base is not None:
                decl = self.index.find_lock_decl(base, node.attr)
                if decl is not None:
                    return decl.key
            # Module-global lock through a module alias.
            if isinstance(node.value, ast.Name):
                base_mod = self._module_alias(node.value.id)
                if base_mod is not None:
                    key = f"{base_mod}.{node.attr}"
                    if key in self.index.lock_decls:
                        return key
        return None

    # -- the walk -----------------------------------------------------------------

    def walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, ast.With) or isinstance(stmt, ast.AsyncWith):
            acquired: list[str] = []
            for item in stmt.items:
                self._expr(item.context_expr)
                ref = self._lock_ref(item.context_expr)
                if ref is not None:
                    self.summary.acquisitions.append(Acquisition(
                        lock=ref,
                        held=tuple(self.held),
                        line=item.context_expr.lineno,
                        col=item.context_expr.col_offset,
                    ))
                    self.held.append(ref)
                    acquired.append(ref)
                if item.optional_vars is not None:
                    self._expr(item.optional_vars)
            self.walk_body(stmt.body)
            for _ in acquired:
                self.held.pop()
            return
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested function runs at an unknown time: walk it with no
            # held locks so its acquisitions still reach the graph.
            saved_held, self.held = self.held, []
            self.walk_body(stmt.body)
            self.held = saved_held
            return
        if isinstance(stmt, ast.ClassDef):
            return
        # Record assignments for local type inference, then walk
        # expressions generically.
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            bindings = [(stmt.targets[0], stmt.value)]
            if (isinstance(stmt.targets[0], ast.Tuple)
                    and isinstance(stmt.value, ast.Tuple)
                    and len(stmt.targets[0].elts) == len(stmt.value.elts)):
                # ``a, b = f(), g()`` binds element-wise.
                bindings = list(zip(stmt.targets[0].elts, stmt.value.elts))
            for target, value in bindings:
                if isinstance(target, ast.Name):
                    inferred = self._type_of(value)
                    if inferred is not None:
                        self.locals[target.id] = inferred
                    else:
                        self.locals.pop(target.id, None)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            resolved = self.index.resolve_annotation(
                _ann_to_str(stmt.annotation), self.info.module
            )
            if resolved is not None:
                self.locals[stmt.target.id] = resolved
        # Child statements & expressions.
        for child in ast.iter_child_nodes(stmt):
            if isinstance(child, ast.stmt):
                self._stmt(child)
            elif isinstance(child, ast.expr):
                self._expr(child, store=_is_store_ctx(stmt, child))
            elif isinstance(child, (ast.excepthandler,)):
                for sub in child.body:
                    self._stmt(sub)
            elif isinstance(child, ast.withitem):  # pragma: no cover
                self._expr(child.context_expr)

    def _expr(self, node: ast.AST, *, store: bool = False) -> None:
        if isinstance(node, ast.Call):
            self._record_call(node)
            func = node.func
            if isinstance(func, ast.Attribute):
                # ``x.attr.mutator(...)`` mutates ``x.attr``.
                if (isinstance(func.value, ast.Attribute)
                        and func.attr in MUTATOR_METHODS):
                    self._record_access(func.value, MUTATE)
                    self._expr(func.value.value)
                else:
                    self._expr(func.value)
            else:
                self._expr(func)
            for arg in node.args:
                self._expr(arg)
            for kw in node.keywords:
                self._expr(kw.value)
            return
        if isinstance(node, ast.Subscript):
            # ``x.attr[k] = v`` / ``del x.attr[k]`` / ``x.attr[k] += v``
            # mutate ``x.attr``.
            if isinstance(node.value, ast.Attribute) and (
                store or isinstance(node.ctx, (ast.Store, ast.Del))
            ):
                self._record_access(node.value, MUTATE)
                self._expr(node.value.value)
            else:
                self._expr(node.value)
            self._expr(node.slice)
            return
        if isinstance(node, ast.Attribute):
            kind = REBIND if (
                store or isinstance(node.ctx, (ast.Store, ast.Del))
            ) else READ
            self._record_access(node, kind)
            self._expr(node.value)
            return
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child, store=store and isinstance(
                    node, (ast.Tuple, ast.List, ast.Starred)
                ))
            elif isinstance(child, ast.comprehension):
                self._expr(child.iter)
                for cond in child.ifs:
                    self._expr(cond)

    def _record_call(self, node: ast.Call) -> None:
        target = self._resolve_call_target(node)
        if target is None:
            return
        kind, key = target
        lock_args: list[tuple[str, str]] = []
        if kind == "ctor":
            init_key = self.index.find_method(key, "__init__")
            params = _init_params(self.index, init_key) if init_key else []
            for i, arg in enumerate(node.args):
                ref = self._lock_ref(arg)
                if ref is not None and i < len(params):
                    lock_args.append((params[i], ref))
            for kw in node.keywords:
                if kw.arg is None:
                    continue
                ref = self._lock_ref(kw.value)
                if ref is not None:
                    lock_args.append((kw.arg, ref))
            callee = init_key or f"{key}.__init__"
        else:
            callee = key
        self.summary.calls.append(CallSite(
            target=callee,
            held=tuple(self.held),
            line=node.lineno,
            lock_args=tuple(lock_args),
        ))

    def _record_access(self, node: ast.Attribute, kind: str) -> None:
        if node.attr.startswith("__") and node.attr.endswith("__"):
            return
        owner = self._type_of(node.value)
        if owner is None or owner not in self.index.classes:
            return
        cross = not (
            isinstance(node.value, ast.Name) and node.value.id == "self"
        )
        # Locks themselves are not guarded state.
        if self.index.find_lock_decl(owner, node.attr) is not None:
            return
        owner_locks = set(self.index.class_locks(owner))
        guarded = tuple(
            held for held in self.held
            if held.rsplit(".", 1)[0] == owner
            and held.rsplit(".", 1)[-1] in owner_locks
        )
        self.summary.accesses.append(AttrAccess(
            owner=owner,
            attr=node.attr,
            kind=kind,
            guarded_by=guarded,
            line=node.lineno,
            col=node.col_offset,
            function=self.summary.key,
            in_init=self.in_init and not cross,
            cross_class=cross,
        ))


def _is_store_ctx(stmt: ast.stmt, child: ast.expr) -> bool:
    if isinstance(stmt, ast.Assign):
        return child in stmt.targets
    if isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        return child is stmt.target
    if isinstance(stmt, ast.Delete):
        return child in stmt.targets
    return False


def _init_params(index: ProgramIndex, init_key: str) -> list[str]:
    """Positional parameter names of a known ``__init__`` (self dropped)."""
    cls_key = init_key.rsplit(".", 1)[0]
    cls = index.classes.get(cls_key)
    if cls is None:
        return []
    info = index.modules.get(cls.module)
    if info is None:
        return []
    for node in info.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == cls.name:
            for stmt in node.body:
                if (isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and stmt.name == "__init__"):
                    args = stmt.args
                    names = [a.arg for a in (*args.posonlyargs, *args.args)]
                    return names[1:] if names and names[0] == "self" else names
    return []


def _walk_functions(index: ProgramIndex, info: ModuleInfo) -> None:
    def do(node: ast.AST, cls: ClassInfo | None) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                do(child, info.classes.get(child.name))
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = (
                    f"{cls.key}.{child.name}" if cls is not None
                    else f"{info.module}.{child.name}"
                )
                summary = FunctionSummary(
                    key=key, name=child.name,
                    cls=cls.key if cls is not None else None,
                    path=info.path, line=child.lineno,
                )
                walker = _FunctionWalker(index, info, cls, child, summary)
                walker.walk_body(child.body)
                index.functions[key] = summary

    do(info.tree, None)


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def index_sources(
    sources: Iterable[tuple[str, str, str]]
) -> ProgramIndex:
    """Build a :class:`ProgramIndex` from ``(module, path, source)``
    triples: phase A over every module, then phase B."""
    modules = [
        _scan_module(module, path, source)
        for module, path, source in sources
    ]
    index = ProgramIndex(modules)
    for info in modules:
        _walk_functions(index, info)
    return index
