"""Per-layer tracing of the bkm modules from outside the package.

:class:`Tracer` replaces the public functions and methods of each module
with wrappers that record a span (name, start, end, parent) and a few
counts, and puts every original back on exit. Callers that imported a
function by name hold their own binding, so every ``bkm.*`` module
attribute bound to a traced function is replaced, not only the defining
module's. A layer's self time is its span's duration minus its children's.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from bkm import _linalg, drm, frm, geometry, kernels, solver

#: Radii above this take the far (Miller / asymptotic) Bessel branch.
BESSEL_SERIES_CUTOFF = 9.0


def _on_bessel(tr, args, result, span):
    r = np.asarray(args[0])
    tr.counts["kernels.bessel_entries"] += r.size
    tr.counts["kernels.bessel_far"] += int(np.count_nonzero(r > BESSEL_SERIES_CUTOFF))


def _on_mq(tr, args, result, span):
    tr.counts["kernels.mq_entries"] += np.size(args[1])


def _on_factor(tr, args, result, span):
    tr.counts["linalg.factorizations"] += 1
    tr.maxima["linalg.condition_max"] = max(
        tr.maxima["linalg.condition_max"], args[0].condition)
    tr.maxima["linalg.factor_s_max"] = max(
        tr.maxima["linalg.factor_s_max"], span[2] - span[1])


def _on_normal(tr, args, result, span):
    tr.counts["drm.normal_calls"] += 1


def _on_rows(tr, args, result, span):
    tr.counts["solver.rows_kept"] += args[0].n_boundary
    tr.counts["solver.rows_assembled"] += result.shape[0]


def _on_truncate(tr, args, result, span):
    n = result.size
    tr.counts["frm.systems"] += 1
    tr.counts["frm.nnz"] += result.matrix.nnz
    tr.counts["frm.dense_bytes"] += n * n * 8
    tr.nnz_per_system.append((n, result.k, result.matrix.nnz))


def _on_sparse_solve(tr, args, result, span):
    """Backward error of the returned solution, recomputed from outside."""
    system = args[0]
    a, b, x = system.matrix, system.rhs, result
    resid = np.abs(b - a @ x)
    scale = np.abs(a) @ np.abs(x) + np.abs(b)
    eta = float(np.max(resid / np.maximum(scale, 1e-300)))
    tr.maxima["frm.backward_error_max"] = max(
        tr.maxima["frm.backward_error_max"], eta)


#: (span name, owner, attribute, hook). An owner is a module, whose binding
#: is replaced in every bkm module, or a class, whose attribute is replaced.
TARGETS = (
    ("geometry.ellipse_knots", geometry, "ellipse_knots", None),
    ("kernels.bessel", kernels, "bessel_j0", _on_bessel),
    ("kernels.bessel", kernels, "bessel_j1", _on_bessel),
    ("kernels.mq", kernels.KernelPair, "phi", _on_mq),
    ("kernels.mq", kernels.KernelPair, "phi_hat", _on_mq),
    ("kernels.mq", kernels.KernelPair, "phi_hat_normal", _on_mq),
    ("drm.build_interpolation_matrix", drm, "build_interpolation_matrix", None),
    ("drm.evaluate_particular", drm, "evaluate_particular", None),
    ("drm.evaluate_particular_normal", drm, "evaluate_particular_normal",
     _on_normal),
    ("linalg.factor", _linalg.FactoredMatrix, "__init__", _on_factor),
    ("linalg.solve", _linalg.FactoredMatrix, "solve", None),
    ("solver.assemble_homogeneous_rows", solver, "assemble_homogeneous_rows",
     _on_rows),
    ("solver.boundary_rhs", solver, "_boundary_rhs", None),
    ("solver.evaluate", solver, "evaluate", None),
    ("frm.truncate_system", frm, "truncate_system", _on_truncate),
    ("frm.solve_sparse", frm, "solve_sparse", _on_sparse_solve),
)


def _bkm_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "bkm" or name.startswith("bkm."))]


class Tracer:
    """Context manager that traces the bkm layers while it is active.

    ``spans`` holds ``[name, start, end, parent_index]`` lists in call
    order; ``counts`` and ``maxima`` accumulate until :meth:`reset`.
    ``missing`` lists targets the package no longer defines.
    """

    def __init__(self):
        self._replaced = []        # (owner, attribute, original)
        self._stack = []
        self.missing = []
        self.reset()

    def reset(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(float)
        self.nnz_per_system = []

    def _wrap(self, name, fn, hook):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            self.spans.append(span)
            stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result, span)
            return result

        return traced

    def __enter__(self):
        modules = _bkm_modules()
        self.missing = []
        try:
            for name, owner, attr, hook in TARGETS:
                original = owner.__dict__.get(attr)
                if original is None:
                    self.missing.append(f"{name}:{attr}")
                    continue
                wrapper = self._wrap(name, original, hook)
                if isinstance(owner, type):
                    self._replace(owner, attr, original, wrapper)
                    continue
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._replace(module, key, original, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def _replace(self, owner, attr, original, wrapper):
        self._replaced.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _restore(self):
        while self._replaced:
            owner, attr, original = self._replaced.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    def self_times(self) -> dict:
        """Seconds per span name, each span less its direct children."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out
