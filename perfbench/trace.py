"""In-memory spans around koszulkit's public functions, from outside.

``Tracer.install()`` replaces every binding of each traced function with
a wrapper: the defining module's attribute and every from-import of it
in other koszulkit modules (``tower`` calls its own imported
``kernel_of_power``, so patching ``ell2`` alone would miss those calls).
Methods are patched on their class.  A span is ``[name, start, end,
parent, op]``; counters are plain integers.  ``uninstall()`` restores
every original binding.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter, defaultdict

perf_counter = time.perf_counter

#: (span name, module, attribute) for module-level functions
FUNCTIONS = (
    ("cli.main", "koszulkit.cli", "main"),
    ("linalg.rank", "koszulkit.linalg", "rank"),
    ("linalg.kernel_basis", "koszulkit.linalg", "kernel_basis"),
    ("linalg.solve", "koszulkit.linalg", "solve"),
    ("linalg.column_space_basis", "koszulkit.linalg", "column_space_basis"),
    ("koszul.complex", "koszulkit.koszul", "koszul_complex"),
    ("koszul.cohomology", "koszulkit.koszul", "cohomology"),
    ("koszul.induced_map", "koszulkit.koszul", "induced_map"),
    ("koszul.augment_les", "koszulkit.koszul", "augment_les"),
    ("spectrum.joint_spectrum", "koszulkit.spectrum", "joint_spectrum"),
    ("ell2.kernel_of_power", "koszulkit.ell2", "kernel_of_power"),
    ("ell2.fredholm_index", "koszulkit.ell2", "fredholm_index_banded"),
    ("tower.kernel_tower", "koszulkit.tower", "kernel_tower"),
    ("tower.commutant_blocks", "koszulkit.tower", "commutant_blocks"),
    ("tower.obstruction_certificate", "koszulkit.tower", "obstruction_certificate"),
    ("tower.growth_table", "koszulkit.tower", "growth_table"),
    ("jsonio.parse", "koszulkit.cli", "_load_json"),
    ("jsonio.parse", "koszulkit.jsonio", "tuple_from_json"),
    ("jsonio.parse", "koszulkit.jsonio", "operator_from_json"),
    ("jsonio.parse", "koszulkit.jsonio", "polymap_from_json"),
    ("jsonio.emit", "koszulkit.jsonio", "emit_report"),
    ("numpy.svd", "numpy.linalg", "svd"),
)

#: (span name, module, class, method)
METHODS = (
    ("linalg.matmul", "koszulkit.linalg", "Mat", "__matmul__"),
    ("polymap.eval_matrices", "koszulkit.polymap", "Polynomial", "eval_matrices"),
    ("ell2.banded_mul", "koszulkit.ell2", "BandedOperator", "__mul__"),
)

#: (counter name, module, class or None, attribute): counted, not timed,
#: because a span per call would cost more than the call
COUNTED = (
    ("scalars.mul.calls", "koszulkit.scalars", "GaussianRational", "__mul__"),
    ("scalars.mul.calls", "koszulkit.scalars", "GaussianRational", "__rmul__"),
    ("scalars.div.calls", "koszulkit.scalars", "GaussianRational", "__truediv__"),
    ("ell2.sections", "koszulkit.ell2", None, "_section_kernel"),
)


def _cells(args):
    """rows * cols of the first argument (a Mat or an ndarray)."""
    a = args[0] if args else None
    if hasattr(a, "rows") and hasattr(a, "cols"):
        return a.rows * a.cols
    shape = getattr(a, "shape", ())
    return shape[0] * shape[1] if len(shape) >= 2 else 0


#: extra counters taken from a call: name -> function of (args, result)
EXTRAS = {
    "linalg.rank": ("linalg.rank.cells", lambda args, res: _cells(args)),
    "numpy.svd": ("numpy.svd.cells", lambda args, res: _cells(args)),
    "jsonio.emit": ("jsonio.emit.bytes", lambda args, res: len(res)),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._restore = []

    # -- wrappers -------------------------------------------------------

    def _timed(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        extra = EXTRAS.get(name)
        deflation = name == "spectrum.joint_spectrum"

        def wrapper(*args, **kwargs):
            sid = len(spans)
            span = [name, perf_counter(), None, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(sid)
            try:
                res = fn(*args, **kwargs)
            except Exception as exc:
                if deflation and type(exc).__name__ == "DeflationFailure":
                    counts["spectrum.deflation_failures"] += 1
                raise
            finally:
                stack.pop()
                span[2] = perf_counter()
            if extra is not None:
                counts[extra[0]] += extra[1](args, res)
            return res

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, make):
        mod = importlib.import_module(module)
        orig = getattr(mod, attr, None)
        if orig is None:
            return
        wrapped = make(orig)
        owners = [mod] + [
            m for n, m in list(sys.modules.items())
            if m is not mod and n.startswith("koszulkit") and m is not None
        ]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is orig:
                    self._set(owner, key, wrapped)

    def _patch_method(self, module, cls, attr, make):
        klass = getattr(importlib.import_module(module), cls, None)
        if klass is None or attr not in vars(klass):
            return
        self._set(klass, attr, make(vars(klass)[attr]))

    def install(self):
        for name, module, attr in FUNCTIONS:
            self._patch_function(module, attr, lambda f, n=name: self._timed(n, f))
        for name, module, cls, attr in METHODS:
            self._patch_method(module, cls, attr, lambda f, n=name: self._timed(n, f))
        for name, module, cls, attr in COUNTED:
            make = lambda f, n=name: self._counted(n, f)  # noqa: E731
            if cls is None:
                self._patch_function(module, attr, make)
            else:
                self._patch_method(module, cls, attr, make)

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results --------------------------------------------------------

    def layer_totals(self):
        """{name: (calls, self seconds)} over the recorded spans.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap, since calls are synchronous.
        """
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[sid]
        return {name: (calls[name], self_s[name]) for name in calls}
