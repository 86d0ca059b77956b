#!/usr/bin/env python
"""Statically check the observability naming contracts.

``repro.obs`` treats counter and span names as stable contracts
(:data:`repro.obs.counters.COUNTER_NAMES`,
:data:`repro.obs.trace.SPAN_NAMES`): every ``counters.inc("...")`` and
``tracer.span("...")`` in the pipeline must use a registered name, or
the bench trajectory silently grows unvalidated keys.  This tool walks
every Python file under ``src/`` with :mod:`ast` and verifies

* every literal first argument to a ``.inc(...)`` call is a member of
  ``COUNTER_NAMES``;
* every literal first argument to a ``.span(...)`` call is a member of
  ``SPAN_NAMES``;
* every ``span_name = "..."`` class attribute (the pass-manager's
  indirect span naming) is a member of ``SPAN_NAMES``;
* every literal first argument to a ``.get(...)`` call that *looks like*
  a counter name (``namespace.rest`` with a registered counter
  namespace, e.g. ``beam.``) is a member of ``COUNTER_NAMES`` — a typo
  in a counter read silently returns 0, which is exactly the failure
  mode the differential tests' counter assertions must not have;
* every registered counter has at least one literal ``.inc`` site
  under ``src/`` (both arms of ``inc("a" if c else "b")`` count) —
  most counters record work that leaves packs and costs unchanged
  (skips, prunes, memo hits; the pack goldens pin those), so a
  registered-but-never-incremented counter reads 0 forever and hides
  that its code path lost its instrumentation or was deleted.

``tests/``, ``benchmarks/``, and ``tools/`` are walked alongside
``src/``: the read-side contract matters most where counters gate
assertions.  Non-literal arguments (computed names) are counted and
reported but not checked — there are deliberately almost none.  Exits
non-zero on any violation; run by CI next to the tier-1 tests.
"""

from __future__ import annotations

import ast
import os
import sys
from typing import Iterator, List, Tuple

_HERE = os.path.dirname(os.path.abspath(__file__))
_REPO = os.path.dirname(_HERE)
_SRC = os.path.join(_REPO, "src")

sys.path.insert(0, _SRC)

from repro.obs.counters import COUNTER_NAMES  # noqa: E402
from repro.obs.trace import SPAN_NAMES  # noqa: E402

#: Registered counter namespaces ("beam", "slp", ...).  A ``.get("x.y")``
#: whose prefix is one of these is a counter read and must name a
#: registered counter; any other dotted string (file names, phase keys,
#: the deliberate ``never.touched`` probe in the obs tests) is left
#: alone.
COUNTER_NAMESPACES = frozenset(n.split(".", 1)[0] for n in COUNTER_NAMES)


def _python_files(root: str) -> Iterator[str]:
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in sorted(filenames):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _literal_str(node: ast.AST) -> "str | None":
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _literal_arms(node: ast.AST) -> "List[str] | None":
    """The names a call argument can evaluate to: one for a string
    literal, both arms for ``"a" if cond else "b"`` (recursively), or
    None when any arm is computed."""
    if isinstance(node, ast.IfExp):
        body = _literal_arms(node.body)
        orelse = _literal_arms(node.orelse)
        if body is None or orelse is None:
            return None
        return body + orelse
    name = _literal_str(node)
    return None if name is None else [name]


def check_file(path: str,
               writes: bool = True,
               inc_sites: "set | None" = None) -> Tuple[List[str], int]:
    """Return (violations, dynamic_call_count) for one source file.

    ``writes=False`` (used outside ``src/``) applies only the
    counter-read check: the obs tests legitimately exercise the Tracer
    and Counters mechanics with throwaway names, but counter *reads*
    that gate assertions must still be registered everywhere.
    """
    with open(path) as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    rel = os.path.relpath(path, _REPO)
    violations: List[str] = []
    dynamic = 0
    for node in ast.walk(tree):
        if writes and isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("inc", "span") and node.args:
            kind = node.func.attr
            names = _literal_arms(node.args[0])
            if names is None:
                dynamic += 1
                continue
            if kind == "inc" and inc_sites is not None:
                inc_sites.update(names)
            contract = COUNTER_NAMES if kind == "inc" else SPAN_NAMES
            for name in names:
                if name in contract:
                    continue
                registry = ("COUNTER_NAMES" if kind == "inc"
                            else "SPAN_NAMES")
                violations.append(
                    f"{rel}:{node.lineno}: .{kind}({name!r}) uses a "
                    f"name not in {registry}"
                )
        if isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Attribute) and \
                node.func.attr == "get" and node.args:
            name = _literal_str(node.args[0])
            if name is not None and "." in name and \
                    name.split(".", 1)[0] in COUNTER_NAMESPACES and \
                    name not in COUNTER_NAMES:
                violations.append(
                    f"{rel}:{node.lineno}: .get({name!r}) reads a "
                    f"counter name not in COUNTER_NAMES (typo'd reads "
                    f"silently return 0)"
                )
        if writes and isinstance(node, ast.Assign) and \
                len(node.targets) == 1 and \
                isinstance(node.targets[0], ast.Name) and \
                node.targets[0].id == "span_name":
            name = _literal_str(node.value)
            if name is not None and name not in SPAN_NAMES:
                violations.append(
                    f"{rel}:{node.lineno}: span_name = {name!r} is not "
                    f"in SPAN_NAMES"
                )
    return violations, dynamic


def main() -> int:
    roots = [(os.path.join(_SRC, "repro"), True)]
    for extra in ("tests", "benchmarks", "tools"):
        path = os.path.join(_REPO, extra)
        if os.path.isdir(path):
            roots.append((path, False))
    files = [(f, writes) for root, writes in roots
             for f in _python_files(root)]
    all_violations: List[str] = []
    dynamic_total = 0
    src_inc_sites: set = set()
    for path, writes in files:
        violations, dynamic = check_file(
            path, writes=writes,
            inc_sites=src_inc_sites if writes else None)
        all_violations.extend(violations)
        dynamic_total += dynamic
    # Write coverage: a registered counter nothing increments reads 0
    # forever, whether its code path lost the instrumentation or is
    # gone altogether.
    for name in sorted(COUNTER_NAMES):
        if name not in src_inc_sites:
            all_violations.append(
                f"COUNTER_NAMES registers {name!r} but no literal "
                f".inc({name!r}) exists under src/ (its code path lost "
                f"its instrumentation, or no longer exists)"
            )
    for violation in all_violations:
        print(violation, file=sys.stderr)
    print(f"check_contracts: scanned {len(files)} files, "
          f"{len(all_violations)} violation(s), "
          f"{dynamic_total} dynamic call(s) skipped")
    return 1 if all_violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
