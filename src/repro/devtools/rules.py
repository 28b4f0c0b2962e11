"""Per-file AST rules: R1 determinism, R2 plan-key hygiene, R4 gated
columns, R5 units naming.

Each rule is a pure function ``(path, tree, ...) -> list[Diagnostic]``
over one parsed module; rule *scoping* (which packages a rule applies
to) lives in :mod:`repro.devtools.runner`, and pragma suppression in
:mod:`repro.devtools.diagnostics`.  The repo-level R3 docs flag-table
check is in :mod:`repro.devtools.axes`.
"""

from __future__ import annotations

import ast

from .diagnostics import Diagnostic

#: packages (under ``src/repro/``) whose code feeds row payloads, key
#: fragments, or JSON artifacts — the R1 determinism scope.
R1_PACKAGES = frozenset(
    {"analysis", "core", "cost", "design", "experiments", "sweep"})

#: the only modules allowed to touch :mod:`hashlib` directly (R2): the
#: plan-store content hash and the cache that fronts it.
R2_ALLOWED_SUFFIXES = ("core/planstore.py", "core/plancache.py")

#: packages whose row-dict builders the R4 gated-column rule parses.
R4_PACKAGES = frozenset({"sweep"})

#: variable names R4 treats as sweep row dicts.
R4_ROW_NAMES = frozenset({"row", "out"})

#: calls whose results depend on wall clock, PID, or entropy — anything
#: matching ``(module, attr)`` as the last two dotted components.
_R1_BANNED = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    # Sleeping is wall-clock coupling too; a sweep retries at once, so
    # no call site is sanctioned.
    ("time", "sleep"),
    ("datetime", "now"), ("datetime", "utcnow"), ("datetime", "today"),
    ("date", "today"),
    ("os", "urandom"), ("os", "getpid"),
    ("uuid", "uuid1"), ("uuid", "uuid4"),
    ("random", "random"), ("random", "randint"),
    ("random", "randrange"), ("random", "choice"),
    ("random", "choices"), ("random", "shuffle"),
    ("random", "sample"), ("random", "uniform"),
    ("random", "gauss"), ("random", "getrandbits"),
    ("random", "randbytes"),
}

#: quantity words that demand a unit (or ratio) suffix when they end a
#: numeric field/column name (R5).
_R5_QUANTITY_WORDS = ("latency", "energy", "bandwidth", "frequency",
                      "duration", "period", "power", "time")

#: the suffix vocabulary R5 points offenders at.
R5_SUFFIXES = ("_s", "_ms", "_ns", "_hz", "_ghz", "_gbps", "_j", "_mj",
               "_bytes", "_fps", "_pct", "_share", "_util", "_ratio")


def _dotted(node: ast.AST) -> tuple | None:
    """``a.b.c`` -> ``("a", "b", "c")``; None for non-name chains."""
    parts: list = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _import_aliases(tree: ast.AST) -> dict:
    """Map local names bound by ``from X import y [as z]`` to (X, y)."""
    aliases: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                aliases[alias.asname or alias.name] = \
                    (node.module.rsplit(".", 1)[-1], alias.name)
    return aliases


# ----------------------------------------------------------------------
# R1: determinism
# ----------------------------------------------------------------------

def check_determinism(path: str, tree: ast.AST) -> list:
    """R1: ban wall-clock/entropy calls and unordered-set iteration.

    Row payloads, key fragments, and JSON artifacts must be pure
    functions of the scenario; a ``time.time()`` or a ``for x in {...}``
    in their data path silently breaks the byte-stability contract.
    """
    diags: list = []
    aliases = _import_aliases(tree)

    def resolve(func: ast.AST) -> tuple | None:
        chain = _dotted(func)
        if chain is None:
            return None
        if len(chain) == 1:
            return aliases.get(chain[0])
        return (chain[-2], chain[-1])

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = resolve(node.func)
            if name is not None and name in _R1_BANNED:
                diags.append(Diagnostic(
                    "R1", path, node.lineno, node.col_offset,
                    f"nondeterministic call {'.'.join(name)}(); row "
                    f"bytes, plan keys, and artifacts must be pure "
                    f"functions of the scenario"))
            elif (name == ("random", "Random") and not node.args
                    and not node.keywords):
                diags.append(Diagnostic(
                    "R1", path, node.lineno, node.col_offset,
                    "unseeded random.Random(); pass an explicit seed"))
        iters: list = []
        if isinstance(node, ast.For):
            iters.append(node.iter)
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                               ast.GeneratorExp)):
            iters.extend(gen.iter for gen in node.generators)
        for it in iters:
            if _is_set_expr(it, aliases):
                diags.append(Diagnostic(
                    "R1", path, it.lineno, it.col_offset,
                    "iteration over an unordered set; wrap it in "
                    "sorted(...) before it feeds rows, keys, or "
                    "artifacts"))
    return diags


def _is_set_expr(node: ast.AST, aliases: dict) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        chain = _dotted(node.func)
        return chain is not None and chain[-1] in ("set", "frozenset")
    return False


# ----------------------------------------------------------------------
# R2: plan-key hygiene
# ----------------------------------------------------------------------

def check_hash_hygiene(path: str, tree: ast.AST) -> list:
    """R2: no direct ``hashlib`` use outside the plan-store modules.

    Every plan key must be minted by ``plan_key_hash`` /
    ``PlanStore.key_hash`` so no fast path can mint a subtly different
    canonicalization of the same key.
    """
    if path.replace("\\", "/").endswith(R2_ALLOWED_SUFFIXES):
        return []
    diags: list = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            chain = _dotted(node.func)
            if chain is not None and len(chain) >= 2 \
                    and chain[-2] == "hashlib":
                diags.append(Diagnostic(
                    "R2", path, node.lineno, node.col_offset,
                    f"direct hashlib.{chain[-1]}() outside "
                    f"core/planstore.py|core/plancache.py; route key "
                    f"construction through plan_key_hash or "
                    f"PlanStore.key_hash"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None)
            names = [a.name for a in node.names]
            if module == "hashlib" or "hashlib" in names:
                diags.append(Diagnostic(
                    "R2", path, node.lineno, node.col_offset,
                    "hashlib import outside core/planstore.py|"
                    "core/plancache.py; plan/key hashing is owned by "
                    "plan_key_hash / PlanStore.key_hash"))
    return diags


# ----------------------------------------------------------------------
# R4: gated columns
# ----------------------------------------------------------------------

def check_gated_columns(path: str, tree: ast.AST,
                        frozen_columns: frozenset) -> list:
    """R4: row columns outside the frozen baseline need an axis guard.

    In the sweep row builders, writing a key that is absent from the
    frozen fixtures (``tests/data/frozen_*.json``) without an
    only-when-set ``if`` guard would change the bytes of every default
    artifact.  Keys are resolved from string constants and from loops
    over module-level string tuples (the ``_DRAM_FIELDS`` pattern);
    writes the rule cannot resolve are skipped, and dynamic
    ``row.update(...)`` calls must themselves sit behind a guard.
    """
    if not frozen_columns:
        return []
    diags: list = []
    constants = _module_string_tuples(tree)
    parents = _parent_map(tree)

    def guarded(node: ast.AST) -> bool:
        cur = parents.get(node)
        while cur is not None:
            if isinstance(cur, ast.If):
                return True
            cur = parents.get(cur)
        return False

    def flag(node: ast.AST, keys) -> None:
        for key in keys:
            if key not in frozen_columns and not guarded(node):
                diags.append(Diagnostic(
                    "R4", path, node.lineno, node.col_offset,
                    f"row column {key!r} is not in the frozen baseline "
                    f"(tests/data/frozen_*.json); write it behind an "
                    f"only-when-set guard or extend the fixture"))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in R4_ROW_NAMES):
                    flag(node, _subscript_keys(target, parents, constants))
                elif (isinstance(target, ast.Name)
                        and target.id in R4_ROW_NAMES
                        and isinstance(node.value, ast.Dict)):
                    flag(node, [k.value for k in node.value.keys
                                if isinstance(k, ast.Constant)
                                and isinstance(k.value, str)])
        elif (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "update"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in R4_ROW_NAMES):
            arg = node.args[0] if node.args else None
            if isinstance(arg, ast.Dict) and all(
                    isinstance(k, ast.Constant) for k in arg.keys):
                flag(node, [k.value for k in arg.keys])
            elif not guarded(node):
                diags.append(Diagnostic(
                    "R4", path, node.lineno, node.col_offset,
                    "dynamic row.update(...) outside an axis guard can "
                    "introduce columns absent from the frozen baseline; "
                    "guard it on the axis that produces them"))
    return diags


def _module_string_tuples(tree: ast.AST) -> dict:
    """Module-level ``NAME = ("a", "b", ...)`` constants (R4 loop iters)."""
    constants: dict = {}
    for node in getattr(tree, "body", []):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name) \
                and isinstance(node.value, (ast.Tuple, ast.List)) \
                and all(isinstance(e, ast.Constant)
                        and isinstance(e.value, str)
                        for e in node.value.elts):
            constants[node.targets[0].id] = \
                tuple(e.value for e in node.value.elts)
    return constants


def _parent_map(tree: ast.AST) -> dict:
    parents: dict = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _subscript_keys(target: ast.Subscript, parents: dict,
                    constants: dict) -> list:
    """Resolve ``row[<expr>]`` store keys to string constants, or []."""
    key = target.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return [key.value]
    if isinstance(key, ast.Name):
        # `for name in _FIELDS: row[name] = ...` — resolve the loop iter.
        cur = parents.get(target)
        while cur is not None:
            if isinstance(cur, ast.For) \
                    and isinstance(cur.target, ast.Name) \
                    and cur.target.id == key.id:
                it = cur.iter
                if isinstance(it, ast.Name) and it.id in constants:
                    return list(constants[it.id])
                if isinstance(it, (ast.Tuple, ast.List)) and all(
                        isinstance(e, ast.Constant)
                        and isinstance(e.value, str) for e in it.elts):
                    return [e.value for e in it.elts]
                return []
            cur = parents.get(cur)
    return []


# ----------------------------------------------------------------------
# R5: units naming
# ----------------------------------------------------------------------

def check_unit_suffixes(path: str, tree: ast.AST) -> list:
    """R5: numeric fields/columns must not end in a bare quantity word.

    ``latency`` says nothing about seconds vs milliseconds; ``pipe_ms``
    does.  The rule fires on dataclass field names and row/dict string
    keys whose final word is a unit-less quantity, and points at the
    suffix vocabulary the repo already uses everywhere.
    """
    diags: list = []

    def offends(name: str) -> bool:
        if not isinstance(name, str) or not name:
            return False
        word = name.lower()
        return any(word == q or word.endswith("_" + q)
                   for q in _R5_QUANTITY_WORDS)

    def flag(node: ast.AST, name: str, what: str) -> None:
        diags.append(Diagnostic(
            "R5", path, node.lineno, node.col_offset,
            f"{what} {name!r} names a quantity without a unit; add one "
            f"of {'/'.join(R5_SUFFIXES)} (see docs/LINT.md)"))

    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) \
                        and isinstance(stmt.target, ast.Name) \
                        and _is_numeric_annotation(stmt.annotation) \
                        and offends(stmt.target.id):
                    flag(stmt, stmt.target.id, "numeric field")
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if isinstance(key, ast.Constant) and offends(key.value):
                    flag(key, key.value, "column key")
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Subscript) \
                        and isinstance(target.slice, ast.Constant) \
                        and offends(target.slice.value):
                    flag(target, target.slice.value, "column key")
    return diags


def _is_numeric_annotation(annotation: ast.AST) -> bool:
    text = ast.unparse(annotation)
    return ("float" in text or "int" in text) and "str" not in text
