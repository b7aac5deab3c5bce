"""Print the SHA-1 of the solution of each solve recorded in
``bench/expected.json``, one ``key sha1`` line each, in the file's order,
then one ``key cg sha1 iterations=k`` line for each CG cross-check of the
benchmark's workloads (``bench/workloads.py``), at its tolerance.

    python3 tools/solve_hashes.py
    python3 tools/solve_hashes.py --check FILE

Each recorded solve is ``solve_case`` with the direct solver at unit
amplitude; the hash is over the bytes of the coefficient vector on all
DoFs.  Two checkouts that print the same lines solve every recorded level,
and the CG cross-check, bit for bit.  BLAS runs on one thread, as in the
benchmark, so that the factor's summation order does not depend on the
machine's thread count.

With ``--check FILE``, where FILE holds another checkout's output, it
prints its own lines, then names on stderr each key whose hash or CG
iteration count differs from FILE's, or that only one side has, and
exits 1 if there is any.
"""

import argparse
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


def hashes():
    """Yield each output line: ``key sha1`` for a recorded solve, then
    ``key cg sha1 iterations=k`` for a CG cross-check."""
    with open(ROOT / "bench" / "expected.json") as fh:
        keys = json.load(fh)["solves"]
    for key in keys:
        case, family, n = key.split("/")
        _, coeffs, _ = solve_case(get_case(case), family_from_name(family), int(n))
        yield f"{key} {sha1(coeffs)}"
    checks = {op[1:] for w in workloads.WORKLOADS.values() for op in w.full
              if op[0] == "cg"}
    for case, family, n in sorted(checks):
        _, coeffs, rep = solve_case(get_case(case), family_from_name(family), n,
                                    solver="cg", cg_tol=workloads.CG_TOL)
        yield f"{case}/{family}/{n} cg {sha1(coeffs)} iterations={rep.iterations}"


def split(line: str) -> tuple[str, str]:
    """``(key, value)`` of an output line: the key is the solve, with ``cg``
    for a CG cross-check; the value its hash and iteration count."""
    words = line.split()
    n = 2 if words[1:2] == ["cg"] else 1
    return " ".join(words[:n]), " ".join(words[n:])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", metavar="FILE",
                        help="compare with another checkout's output in FILE")
    args = parser.parse_args()
    if args.check:
        with open(args.check) as fh:
            want = dict(split(line) for line in fh if line.strip())
    got = {}
    for line in hashes():
        print(line, flush=True)
        key, value = split(line)
        got[key] = value
    if not args.check:
        return 0
    differ = [key for key in {**want, **got} if want.get(key) != got.get(key)]
    for key in differ:
        print(f"differs: {key}: {args.check} has {want.get(key, 'no line')},"
              f" this checkout {got.get(key, 'no line')}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
