"""Print the SHA-1 of the solution of each solve recorded in
``bench/expected.json``, one ``key sha1`` line each, in the file's order,
then one ``key cg sha1 iterations=k`` line for each CG cross-check of the
benchmark's workloads (``bench/workloads.py``), at its tolerance.

    python3 tools/solve_hashes.py

Each recorded solve is ``solve_case`` with the direct solver at unit
amplitude; the hash is over the bytes of the coefficient vector on all
DoFs.  Two checkouts that print the same lines solve every recorded level,
and the CG cross-check, bit for bit.  BLAS runs on one thread, as in the
benchmark, so that the factor's summation order does not depend on the
machine's thread count.
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
sys.path.insert(0, str(ROOT / "bench"))

from triharm import family_from_name, get_case, solve_case  # noqa: E402
import workloads  # noqa: E402


def sha1(coeffs) -> str:
    return hashlib.sha1(coeffs.tobytes()).hexdigest()


def main() -> int:
    with open(ROOT / "bench" / "expected.json") as fh:
        keys = json.load(fh)["solves"]
    for key in keys:
        case, family, n = key.split("/")
        _, coeffs, _ = solve_case(get_case(case), family_from_name(family), int(n))
        print(key, sha1(coeffs), flush=True)
    checks = {op[1:] for w in workloads.WORKLOADS.values() for op in w.full
              if op[0] == "cg"}
    for case, family, n in sorted(checks):
        _, coeffs, rep = solve_case(get_case(case), family_from_name(family), n,
                                    solver="cg", cg_tol=workloads.CG_TOL)
        print(f"{case}/{family}/{n} cg", sha1(coeffs),
              f"iterations={rep.iterations}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
