#!/usr/bin/env python3
"""Write perfbench/expected.json from the outputs of the program in this checkout.

Run it only on a commit whose outputs are trusted, from the root of the
checkout:

    python3 perfbench/pin.py

It pins the verify CLI's exit code, stdout SHA-256 and per-line digests,
the per-graph digests of the construction route, and the per-digraph
digests of search_xfree_n14 for seeds 0 .. PINNED_SEARCH_SEEDS - 1 (see
``workloads.py``).  It refuses to pin an output that fails the workload's
own reference checks.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    verify = workloads.VerifyN6(ROOT, {})
    code, stdout = verify.run(verify.setup(0))[0]
    lines = stdout.splitlines()
    pins = {"verify_n6": {
        "exit_code": code,
        "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
        "graphs": len(lines) - 1,
        "line_digests": "".join(workloads.item_digest(ln) for ln in lines),
    }}
    if code != 0:
        print(f"error: verify exited {code}", file=sys.stderr)
        return 1

    for wl, seeds in ((workloads.ConstructMd2N8(ROOT, {}), [0]),
                      (workloads.SearchXfreeN14(ROOT, {}), range(workloads.PINNED_SEARCH_SEEDS))):
        for seed in seeds:
            state = wl.setup(seed)
            attempted, failed, digests = wl.check(state, wl.run(state)[0], seed)
            if failed:
                print(f"error: {wl.name} seed {seed}: {failed} of {attempted} items "
                      f"fail the reference checks", file=sys.stderr)
                return 1
            if wl.name == "search_xfree_n14":
                pins.setdefault(wl.name, {"seeds": {}})["seeds"][str(seed)] = digests
            else:
                pins[wl.name] = {"item_digests": digests}

    with open(HERE / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(pins, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
