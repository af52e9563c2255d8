"""Record the exact-oracle values the ``exact`` workload checks against.

Run from the root of a checkout:  python3 perfbench/record_references.py

The values are recorded once, at the commit that defined the benchmark,
and must not be re-recorded to absorb a change in the program: a later
value that leaves the library's EXACT_TOL_* of these is a failed item.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import import_mdelta  # noqa: E402


def main() -> None:
    import_mdelta()
    import workloads as w
    from mdelta import coders

    pasts = [format(code, f"0{w.SHTARKOV_DEPTH}b") for code in range(1 << w.SHTARKOV_DEPTH)]
    shtarkov = {past: coders.shtarkov_sum(w.SHTARKOV_DEPTH, past, w.SHTARKOV_N).log2_sum for past in pasts}
    exact_avg = [w.exact_avg_value(i) for i in range(w.AVG_POOL)]
    w.REFERENCES_PATH.write_text(json.dumps({"shtarkov": shtarkov, "exact_avg": exact_avg}, indent=1) + "\n")


if __name__ == "__main__":
    main()
