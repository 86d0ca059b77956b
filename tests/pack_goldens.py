"""Pack-selection goldens: the frozen output of the search engine.

``tests/golden/packs/<target>.json`` holds, for every bundled kernel at
beam width 2 and at the bench width, the selected packs' structural
signatures, the scalar model cost and the vector model cost.  The
goldens replace the in-tree legacy oracles (the frozenset engine, the
unmemoized, unpruned and pre-bound searches, the pre-pass-manager
pipeline and the fixpoint canonicalizer): each matched these files when
it was deleted, so a run that matches them matches every one of them.

``tools/gen_pack_goldens.py`` writes and checks the files; the test
suites compare live runs against them one cell at a time.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List

from repro.kernels import all_kernels
from repro.obs.bench import DEFAULT_BEAM_WIDTH, DEFAULT_TARGETS
from repro.session import VectorizationSession

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "golden", "packs")
SCHEMA = "repro-pack-goldens/v1"
TARGETS = DEFAULT_TARGETS
#: Beam width 2 keeps the whole matrix cheap; the bench width pins the
#: configuration ``repro bench`` reports.
WIDTHS = (2, DEFAULT_BEAM_WIDTH)


def pack_signature(pack, position: Dict[int, int]) -> list:
    """Structural pack identity, stable across function copies
    (``Pack.key()`` embeds ``id()`` values, so it is not): the pack
    kind, the instruction it uses and its lanes, each lane named by its
    value name or, for unnamed values such as stores, by its position
    in the block (``position`` maps ``id(instruction)`` to it)."""
    inst = getattr(pack, "inst", None)
    return [
        type(pack).__name__,
        inst.name if inst is not None else None,
        [None if v is None else v.name or f"#{position[id(v)]}"
         for v in pack.values()],
    ]


def cell_record(result) -> Dict:
    """The golden record of one vectorization result."""
    position = {id(inst): i
                for i, inst in enumerate(result.function.entry)}
    return {
        "packs": [pack_signature(p, position) for p in result.packs],
        "scalar_cost": result.scalar_cost,
        "vector_cost": result.cost.total,
    }


@lru_cache(maxsize=None)
def _session(target: str, width: int) -> VectorizationSession:
    return VectorizationSession(target=target, beam_width=width)


def vectorize_cell(name: str, target: str, width: int) -> Dict:
    """Vectorize one bundled kernel with the default configuration and
    return its golden record."""
    result = _session(target, width).vectorize(all_kernels()[name])
    return cell_record(result)


def compute_document(target: str) -> Dict:
    """A target's golden document, computed from live runs."""
    return {
        "schema": SCHEMA,
        "target": target,
        "widths": list(WIDTHS),
        "cells": {
            name: {str(width): vectorize_cell(name, target, width)
                   for width in WIDTHS}
            for name in sorted(all_kernels())
        },
    }


def render(doc: Dict) -> str:
    """Deterministic text form: one pack per line, so a diff of a
    changed cell shows exactly which packs moved."""
    lines: List[str] = [
        "{",
        f' "schema": {json.dumps(doc["schema"])},',
        f' "target": {json.dumps(doc["target"])},',
        f' "widths": {json.dumps(doc["widths"])},',
        ' "cells": {',
    ]
    names = sorted(doc["cells"])
    for i, name in enumerate(names):
        lines.append(f"  {json.dumps(name)}: {{")
        widths = sorted(doc["cells"][name], key=int)
        for j, width in enumerate(widths):
            cell = doc["cells"][name][width]
            lines.append(
                f'   "{width}": {{"scalar_cost": '
                f'{json.dumps(cell["scalar_cost"])}, "vector_cost": '
                f'{json.dumps(cell["vector_cost"])}, "packs": ['
            )
            packs = cell["packs"]
            for k, pack in enumerate(packs):
                comma = "," if k + 1 < len(packs) else ""
                lines.append(f"    {json.dumps(pack)}{comma}")
            lines.append("   ]}" + ("," if j + 1 < len(widths) else ""))
        lines.append("  }" + ("," if i + 1 < len(names) else ""))
    lines += [" }", "}"]
    return "\n".join(lines) + "\n"


def golden_path(target: str) -> str:
    return os.path.join(GOLDEN_DIR, target + ".json")


@lru_cache(maxsize=None)
def load_golden(target: str) -> Dict:
    with open(golden_path(target)) as handle:
        return json.load(handle)


def golden_cell(name: str, target: str, width: int) -> Dict:
    return load_golden(target)["cells"][name][str(width)]


def assert_matches_golden(name: str, target: str, width: int) -> None:
    """Vectorize one cell and compare it with its golden record."""
    got = vectorize_cell(name, target, width)
    want = golden_cell(name, target, width)
    assert got == want, (
        f"{name}/{target} at beam width {width}: vector cost "
        f"{got['vector_cost']} (golden {want['vector_cost']}), "
        f"packs equal: {got['packs'] == want['packs']}"
    )
