"""Span tracing of spindj's layers from outside the program.

:meth:`Tracer.install` wraps the public functions of ``cli``, ``protocol``,
``oracle``, ``pulses`` and ``core`` at every module attribute where a
caller looks them up (``protocol.conjugate`` and ``oracle.conjugate`` as
well as ``core.conjugate``), and ``BasisPermutation.__init__`` on its
class. Each call records one span (name, start, end, parent) in memory;
:func:`self_times` turns the spans into per-layer self time and calls.
Byte and flop figures are computed from array shapes, not measured.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import time
from array import array
from collections import defaultdict

LAYERS = ("cli", "protocol", "oracle", "pulses", "core")

# (layer, function) wrapped at every lookup site.
FUNCTIONS = (
    ("cli", "main"),
    ("cli", "cmd_run"),
    ("cli", "cmd_sweep"),
    ("protocol", "run_liouville_dj"),
    ("protocol", "run_pseudo_pure_dj"),
    ("protocol", "prepare_liouville_input"),
    ("protocol", "classical_dj"),
    ("oracle", "reversible_oracle"),
    ("oracle", "oracle_channel"),
    ("oracle", "random_balanced"),
    ("pulses", "fanout_unitary"),
    ("core", "embed"),
    ("core", "polarization_operator"),
    ("core", "pauli_z"),
    ("core", "pauli_z_diagonal"),
    ("core", "expectation"),
    ("core", "to_dense"),
)

# Span names: one per wrapped function, conjugate split by state backend.
SPAN_NAMES = tuple(f"{layer}.{fn}" for layer, fn in FUNCTIONS) + (
    "core.conjugate.dense",
    "core.conjugate.diagonal",
    "core.BasisPermutation.init",
)

# Computed from array shapes, with their units.
COUNTERS = {"core.state_bytes.max": "B", "core.embed.bytes": "B", "core.conjugate.dense.flops": "flop"}


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = list(SPAN_NAMES)
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._core = None  # spindj.core, set by install()

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span_id):
        """Wrap ``fn``; ``span_id(args)`` gives the index into ``self.names``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.start)
            tracer.name_id.append(span_id(args))
            tracer.parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.end.append(0.0)
            tracer._open.append(index)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[index] = time.perf_counter()
                tracer._open.pop()
            tracer._count(tracer.names[tracer.name_id[index]], args, result)
            return result

        return traced

    def _count(self, name: str, args, result) -> None:
        core = self._core
        if isinstance(result, core.DiagonalState):
            nbytes = result.populations.nbytes
        elif isinstance(result, core.DensityOperator):
            nbytes = result.matrix.nbytes
        else:
            nbytes = 0
        counters = self.counters
        counters["core.state_bytes.max"] = max(counters["core.state_bytes.max"], nbytes)
        if name == "core.embed":
            counters["core.embed.bytes"] += result.nbytes
        elif name == "core.conjugate.dense" and isinstance(args[1], core.Operator):
            # U rho U^dagger: two complex d x d matrix products, 8 d^3 flops each.
            counters["core.conjugate.dense.flops"] += 16 * args[1].dim ** 3

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, package) -> None:
        """Wrap the traced functions of ``package`` (the imported ``spindj``)."""
        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        owners = [package, *modules.values()]
        core = self._core = modules["core"]
        wrapped = []
        for layer, fn in FUNCTIONS:
            original = getattr(modules[layer], fn)
            index = self.names.index(f"{layer}.{fn}")
            wrapped.append((original, self._wrap(original, lambda args, i=index: i)))
        dense = self.names.index("core.conjugate.dense")
        diagonal = self.names.index("core.conjugate.diagonal")
        by_backend = lambda args: diagonal if isinstance(args[0], core.DiagonalState) else dense
        wrapped.append((core.conjugate, self._wrap(core.conjugate, by_backend)))
        for original, traced in wrapped:
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, attr, traced)
        init = self.names.index("core.BasisPermutation.init")
        traced_init = self._wrap(core.BasisPermutation.__init__, lambda args: init)
        self._patch(core.BasisPermutation, "__init__", traced_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_tsv(self, path) -> None:
        """Write the spans as gzip'd TSV: index, name, start_s, end_s, parent."""
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("span\tname\tstart_s\tend_s\tparent\n")
            for i, (name, start, end, parent) in enumerate(
                zip(self.name_id, self.start, self.end, self.parent)
            ):
                out.write(f"{i}\t{self.names[name]}\t{start!r}\t{end!r}\t{parent}\n")


def self_times(names, name_id, start, end, parent) -> dict[str, tuple[float, int]]:
    """``{name: (self seconds, calls)}`` from spans.

    A span's self time is its duration minus the time its child spans
    cover. Spans come from one thread, so the children of a span never
    overlap and the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child_time[p] += end[i] - start[i]
    totals: dict[str, list] = {}
    for i, n in enumerate(name_id):
        entry = totals.setdefault(names[n], [0.0, 0])
        entry[0] += end[i] - start[i] - child_time[i]
        entry[1] += 1
    return {name: (self_s, calls) for name, (self_s, calls) in totals.items()}
