"""Write randomly relabeled Cayley tables for the relabeled_tables workload.

    python3 perfbench/tables.py SEED OUT_DIR MANIFEST_JSON

MANIFEST_JSON maps each file name to a family spec. Each group is built
from its spec, its elements are permuted by a permutation drawn from SEED
(the identity lands anywhere), and the table is written in the ``cayley n``
file format. The same seed and manifest give the same files.
"""

from __future__ import annotations

import json
import os
import sys

import numpy as np

from soclelab import parse_family


def relabeled_text(table: np.ndarray, rng: np.random.Generator) -> str:
    n = table.shape[0]
    perm = rng.permutation(n)
    out = np.empty((n, n), dtype=np.int64)
    out[np.ix_(perm, perm)] = perm[table]
    rows = (" ".join(map(str, row)) for row in out.tolist())
    return f"cayley {n}\n" + "\n".join(rows) + "\n"


def main(argv: list[str]) -> int:
    seed, out_dir, manifest = int(argv[0]), argv[1], json.loads(argv[2])
    rng = np.random.default_rng(seed)
    for name, spec in manifest.items():
        group = parse_family(spec, max_order=4000)
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(relabeled_text(np.asarray(group.table), rng))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
