#!/usr/bin/env python
"""Write or check the pack-selection goldens (``tests/golden/packs/``).

One JSON file per target holds, for every bundled kernel at beam width 2
and at the bench width, the selected packs' structural signatures, the
scalar model cost and the vector model cost (see ``tests/pack_goldens``
for the format).  The test suites compare live runs against these files,
so a change to pack selection that moves any cell must regenerate them
deliberately.

Usage (from the repository root)::

    python tools/gen_pack_goldens.py           # rewrite every target
    python tools/gen_pack_goldens.py --check   # exit 1 on any drift

``--check`` recomputes every cell and compares the rendered text with
the committed file byte for byte; it takes a few minutes.
"""

from __future__ import annotations

import argparse
import os
import sys

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_REPO, "src"))
sys.path.insert(0, _REPO)

from tests.pack_goldens import (  # noqa: E402
    GOLDEN_DIR,
    TARGETS,
    compute_document,
    golden_path,
    render,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files instead "
                             "of writing them")
    args = parser.parse_args(argv)
    stale = []
    for target in TARGETS:
        text = render(compute_document(target))
        path = golden_path(target)
        if args.check:
            try:
                with open(path) as handle:
                    committed = handle.read()
            except FileNotFoundError:
                committed = None
            if committed != text:
                stale.append(target)
            print(f"{target}: {'ok' if committed == text else 'STALE'}")
        else:
            os.makedirs(GOLDEN_DIR, exist_ok=True)
            with open(path, "w") as handle:
                handle.write(text)
            print(f"{target}: wrote {os.path.relpath(path, _REPO)}")
    if stale:
        print(f"stale pack goldens: {', '.join(stale)} (regenerate with "
              f"python tools/gen_pack_goldens.py)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
