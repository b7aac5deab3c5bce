"""Spans around calls into triharm's layers, recorded from outside the program.

``install`` replaces the module attributes that ``triharm.analysis``,
``triharm.cases``, ``triharm.space`` and ``triharm.verify`` look up at call
time with timing wrappers, so the spans follow the program's own call path.
Each span has a name, a parent id, start and end times, the growth of the
process's peak RSS across the call, and counts read from the call's
arguments and result.  ``layer_metrics`` turns a job's spans into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import resource
import time


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []      # ids of unfinished spans, innermost last

    def wrap(self, module, attr: str, name: str, counts=None):
        """Replace ``module.attr`` by a wrapper recording one span per call.

        ``counts(result, arguments)`` maps the result and the bound
        arguments (defaults applied) to a dict of counts for the span.
        """
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans),
                    "parent": self._open[-1] if self._open else None,
                    "name": name}
            self.spans.append(span)
            self._open.append(span["id"])
            rss0 = peak_rss_mb()
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            span["rss_growth_mb"] = peak_rss_mb() - rss0
            if counts is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counts(result, bound.arguments)
            return result

        setattr(module, attr, traced)


def _items(report, _args):
    return {"items": len(report.items), "failed": len(report.failures())}


def _norm_points(_result, args):
    space = args["space"]
    return {"norm_points": space.mesh.n_cells * args["q"] ** space.dim}


def install(tracer: Tracer):
    """Wrap the names the program calls between its layers."""
    from triharm import analysis, cases, reference, space, verify

    cells = lambda mesh, _args: {"cells": mesh.n_cells}
    table = [
        (cases, "uniform_mesh", "mesh.build", cells),
        (cases, "lshape_mesh", "mesh.build", cells),
        (analysis, "build_space", "space.build",
         lambda sp, _a: {"dofs": sp.n_dofs}),
        # set-up calls the reference module's name, build_space its own
        (reference, "build_dual_basis", "reference.build", None),
        (space, "build_dual_basis", "reference.build", None),
        (analysis, "assemble", "assembly.assemble",
         lambda system, _a: {"nnz": system.matrix.nnz}),
        (analysis, "apply_dirichlet", "assembly.dirichlet",
         lambda reduced, _a: {"free_dofs": len(reduced.free)}),
        (analysis, "boundary_values_from_case", "interpolation.boundary", None),
        (analysis, "solve_direct", "solver.direct",
         lambda r, _a: {"residual": r[1].relative_residual}),
        (analysis, "solve_cg", "solver.cg",
         lambda r, _a: {"cg_iterations": r[1].iterations,
                        "residual": r[1].relative_residual}),
        (analysis, "broken_norms", "analysis.norms", _norm_points),
        (analysis, "solve_case", "analysis.solve_case", None),
        (analysis, "convergence_study", "analysis.convergence_study", None),
        (verify, "run_suite", "verify.run_suite", None),
        (verify, "verify_unisolvence", "verify.unisolvence", _items),
        (verify, "verify_duality", "verify.duality", _items),
        (verify, "verify_weak_continuity", "verify.continuity", _items),
        (verify, "verify_local_interpolation", "verify.local_interp", _items),
        (verify, "verify_patch_test", "verify.patch", _items),
    ]
    for module, attr, name, counts in table:
        tracer.wrap(module, attr, name, counts)


# span name -> per-layer metric that sums the spans' self time
_SELF_TIME = {
    "solver.direct": "solver.direct_s",
    "solver.cg": "solver.cg_s",
    "analysis.norms": "analysis.norms_s",
    "mesh.build": "mesh.build_s",
    "space.build": "space.build_s",
    "assembly.assemble": "assembly.assemble_s",
    "assembly.dirichlet": "assembly.dirichlet_s",
    "interpolation.boundary": "interpolation.boundary_s",
    "reference.build": "reference.build_s",
    "verify.unisolvence": "verify.unisolvence_s",
    "verify.duality": "verify.duality_s",
    "verify.continuity": "verify.continuity_s",
    "verify.local_interp": "verify.local_interp_s",
    "verify.patch": "verify.patch_s",
}


def layer_metrics(spans: list[dict], names) -> dict[str, float]:
    """Per-layer metrics of one job: self times, calls and counts.

    A span's self time is its duration minus the time its child spans
    cover.  Counts add up over calls, except the solver residual, which is
    the worst call's.
    """
    out = {name: 0.0 for name in names}
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]
    for s in spans:
        layer = s["name"].split(".")[0]
        out[f"{layer}.calls"] += 1
        metric = _SELF_TIME.get(s["name"])
        if metric is not None:
            out[metric] += s["end"] - s["start"] - child_time[s["id"]]
        if s["name"] == "solver.direct":
            out["solver.direct_rss_mb"] += s["rss_growth_mb"]
        for key, value in s.get("counts", {}).items():
            metric = f"{layer}.{key}"
            if key == "residual":
                out[metric] = max(out[metric], value)
            else:
                out[metric] += value
    out["trace.spans"] = len(spans)
    return out
