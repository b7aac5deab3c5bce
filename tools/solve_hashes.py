"""Print the SHA-1 of the solution of each solve recorded in
``bench/expected.json``, one ``key sha1`` line each, in the file's order.

    python3 tools/solve_hashes.py

Each solve is ``solve_case`` with the direct solver at unit amplitude; the
hash is over the bytes of the coefficient vector on all DoFs.  Two
checkouts that print the same lines solve every recorded level bit for
bit.  BLAS runs on one thread, as in the benchmark, so that the factor's
summation order does not depend on the machine's thread count.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from triharm import family_from_name, get_case, solve_case  # noqa: E402


def main() -> int:
    with open(ROOT / "bench" / "expected.json") as fh:
        keys = json.load(fh)["solves"]
    for key in keys:
        case, family, n = key.split("/")
        _, coeffs, _ = solve_case(get_case(case), family_from_name(family), int(n))
        print(key, hashlib.sha1(coeffs.tobytes()).hexdigest(), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
