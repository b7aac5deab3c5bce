"""The benchmark's workloads, metric names, and the checks on their answers.

Each workload is a list of operations on the public API of ``triharm``:

- ``("solve", case, family, n)``: ``solve_case`` then ``broken_norms``;
- ``("study", case, family, levels)``: ``convergence_study``;
- ``("cg", case, family, n)``: a direct and a CG ``solve_case``, compared;
- ``("suite", name, dims)``: ``run_suite``.

``bench/README.md`` says why each workload exists and which layer metric
should move which end-to-end metric on it.
"""

from __future__ import annotations

import dataclasses
import json
import random
from pathlib import Path

EXPECTED_FILE = Path(__file__).resolve().parent / "expected.json"

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "h3_rel_err": "ratio",
}

PER_LAYER = {
    "solver.calls": "count",
    "solver.direct_s": "s",
    "solver.direct_rss_mb": "MB",
    "solver.residual": "ratio",
    "solver.cg_s": "s",
    "solver.cg_iterations": "count",
    "analysis.calls": "count",
    "analysis.norms_s": "s",
    "analysis.norm_points": "count",
    "mesh.calls": "count",
    "mesh.build_s": "s",
    "mesh.cells": "count",
    "space.calls": "count",
    "space.build_s": "s",
    "space.dofs": "count",
    "assembly.calls": "count",
    "assembly.assemble_s": "s",
    "assembly.nnz": "count",
    "assembly.dirichlet_s": "s",
    "assembly.free_dofs": "count",
    "interpolation.calls": "count",
    "interpolation.boundary_s": "s",
    "reference.calls": "count",
    "reference.build_s": "s",
    "verify.calls": "count",
    "verify.unisolvence_s": "s",
    "verify.duality_s": "s",
    "verify.continuity_s": "s",
    "verify.local_interp_s": "s",
    "verify.patch_s": "s",
    "verify.items": "count",
    "verify.failed": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead": "ratio",
}

# Published H3 errors of the paper's tables: (case, family) -> {N: H3}.
PUBLISHED_H3 = {
    ("smooth2d", "adini"): {4: 1.436e+02, 8: 6.971e+01, 16: 3.455e+01,
                            32: 1.723e+01, 64: 8.612e+00},
    ("lshape2d", "adini"): {2: 2.353e+00, 4: 1.630e+00, 8: 1.140e+00,
                            16: 8.030e-01, 32: 5.670e-01, 64: 4.007e-01},
    ("smooth3d", "adini"): {2: 9.809e+01, 4: 3.741e+01, 8: 1.781e+01,
                            16: 8.785e+00},
    ("smooth3d", "morley"): {2: 1.153e+02, 4: 4.254e+01, 8: 1.888e+01,
                             16: 8.949e+00},
}

RESIDUAL_MAX = 1e-9       # SolveReport.relative_residual of a direct solve
CG_AGREEMENT_MAX = 1e-7   # max |x_cg - x_direct| / max |x_direct|
CG_TOL = 1e-12            # CG relative tolerance of the cross-check


@dataclasses.dataclass(frozen=True)
class Workload:
    bases: tuple            # (family, dim) pairs whose dual basis set-up builds
    full: tuple             # operations at the measured size
    tiny: tuple             # the same operations at smoke-test size


WORKLOADS = {
    "solve3d-morley16": Workload(
        bases=(("morley", 3),),
        full=(("solve", "smooth3d", "morley", 16),),
        tiny=(("solve", "smooth3d", "morley", 2),),
    ),
    "solve2d-lshape64": Workload(
        bases=(("adini", 2),),
        full=(("solve", "lshape2d", "adini", 64),),
        tiny=(("solve", "lshape2d", "adini", 4),),
    ),
    "sweep-coarse": Workload(
        bases=(("adini", 2), ("morley", 2), ("adini", 3), ("morley", 3)),
        full=(("study", "smooth2d", "adini", (4, 8, 16, 32)),
              ("study", "smooth2d", "morley", (4, 8, 16, 32)),
              ("study", "lshape2d", "adini", (2, 4, 8, 16)),
              ("study", "smooth3d", "adini", (2, 4, 8)),
              ("study", "smooth3d", "morley", (2, 4, 8)),
              ("cg", "lshape2d", "adini", 16)),
        tiny=(("study", "smooth2d", "adini", (4, 8)),
              ("study", "smooth2d", "morley", (4, 8)),
              ("study", "lshape2d", "adini", (2, 4)),
              ("study", "smooth3d", "adini", (2, 4)),
              ("study", "smooth3d", "morley", (2, 4)),
              ("cg", "lshape2d", "adini", 4)),
    ),
    "verify2d": Workload(
        bases=(("morley", 2), ("adini", 2)),
        # the coarsest smooth2d table solve anchors h3_rel_err
        full=(("suite", "all", (2,)),
              ("solve", "smooth2d", "adini", 4)),
        tiny=(("suite", "unisolvence", (2,)),
              ("suite", "local-interp", (2,)),
              ("solve", "smooth2d", "adini", 4)),
    ),
}


def amplitude(seed: int) -> float:
    """The seed's input: an amplitude ``c`` for the manufactured solutions.

    The problem is linear, so scaling the exact solution by ``c`` scales
    every error by ``c``; checks compare against ``c`` times the recorded
    and published values.
    """
    return 2.0 ** random.Random(seed).uniform(-1.0, 1.0)


def solve_key(case: str, family: str, n: int) -> str:
    return f"{case}/{family}/{n}"


def load_expected(path=EXPECTED_FILE) -> dict:
    with open(path) as fh:
        return json.load(fh)


class Checker:
    """Counts checked operations and their failures; a failure never raises."""

    def __init__(self, expected: dict, amplitude: float):
        self.rtol = float(expected["rtol"])
        self.recorded = expected["solves"]
        self.amplitude = amplitude
        self.attempted = 0
        self.failures: list[str] = []
        self.h3_rel: list[float] = []

    def _count(self, label: str, problems: list[str]):
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def solve(self, case, family, n, errs, report, dofs=None):
        """A direct solve: residual, recorded errors, DoFs, published H3."""
        key = solve_key(case, family, n)
        c = self.amplitude
        problems = []
        if not report.relative_residual <= RESIDUAL_MAX:
            problems.append(f"residual {report.relative_residual:.3e}")
        want = self.recorded.get(key)
        if want is None:
            problems.append("no recorded errors")
        else:
            for label, got, ref in zip(("L2", "H1", "H2", "H3"), errs,
                                       want["errors"]):
                if not abs(got - c * ref) <= self.rtol * abs(c * ref):
                    problems.append(f"{label} {got / c:.9e} vs recorded "
                                    f"{ref:.9e}")
            if dofs is not None and dofs != want.get("dofs", dofs):
                problems.append(f"dofs {dofs} vs {want['dofs']}")
        published = PUBLISHED_H3.get((case, family), {}).get(n)
        if published is not None:
            self.h3_rel.append(abs(errs[3] / c - published) / published)
        self._count(key, problems)

    def agreement(self, label, rel, report):
        problems = []
        if not report.relative_residual <= RESIDUAL_MAX:
            problems.append(f"direct residual {report.relative_residual:.3e}")
        if not rel <= CG_AGREEMENT_MAX:
            problems.append(f"cg vs direct {rel:.3e}")
        self._count(label, problems)

    def verification(self, reports):
        for rep in reports:
            for label, ok, detail in rep.items:
                self._count(f"{rep.suite}: {label}", [] if ok else [detail or "failed"])

    def crashed(self, label, exc, count=1):
        """An operation that raised counts as ``count`` failed attempts."""
        for _ in range(count):
            self._count(label, [f"{type(exc).__name__}: {exc}"])
