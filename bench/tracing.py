"""Per-layer spans recorded from outside the program.

``Tracer.installed()`` replaces module-level functions of ``orbent`` by
timing wrappers for the duration of a ``with`` block and restores them on
exit.  Each name is wrapped where the caller looks it up: a from-import such
as ``interacting.two_orbital_rdm`` is wrapped in the importing module, and
``DensityMatrix`` is timed through ``__init__`` on the class.

Spans nest on one stack shared by all threads.  That is exact as long as
the program never runs two spans at once, which ``ORBENT_THREADS=1``
guarantees: the CLI's one-worker pool runs while the calling thread waits.

A layer's self time is its span's duration minus the time covered by its
direct child spans.  A wrapped name that a later commit removes or renames
is skipped, and every metric built from it is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    request: object  # tag of the request that caused the span
    parent: "Span | None"
    start: float = 0.0
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _ree_counts(args, kwargs, result):
    return {"outer_iters": result.iterations, "atoms": result.diagnostics["atoms"]}


def _build_counts(args, kwargs, result):
    return {"nnz": result.matrix.nnz, "sector_dim": result.dim}


def _ground_counts(args, kwargs, result):
    return {"max_residual": result.residual}


def _rdm_counts(args, kwargs, result):
    state = args[0] if args else kwargs["state"]
    return {"fock_dim": state.space.dim}


def _fcidump_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0] if args else kwargs["path"])}


# (module, attribute, span name, counts taken from the call and its result)
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("entanglement", "ree_numeric", "entanglement.ree_numeric", _ree_counts),
    ("entanglement", "_objective_and_grad", "entanglement.objective", None),
    ("entanglement", "_best_product", "entanglement.oracle", None),
    ("entanglement", "_polish_weights", "entanglement.polish", None),
    ("entanglement", "nssr_entanglement_dm", "entanglement.nssr_closed", None),
    ("entanglement", "gpi_local", "channels.pinch", None),
    ("entanglement", "gn_local", "channels.pinch", None),
    ("channels", "gpi_local", "channels.pinch", None),
    ("channels", "gn_local", "channels.pinch", None),
    ("channels", "run_swap_protocol", "channels.run_swap_protocol", None),
    ("interacting", "build_hamiltonian", "interacting.build_hamiltonian", _build_counts),
    ("interacting", "ground_state", "interacting.ground_state", _ground_counts),
    ("interacting", "two_orbital_rdm", "fock.two_orbital_rdm", _rdm_counts),
    ("freefermion", "two_orbital_state_from_block",
     "freefermion.two_orbital_state_from_block", None),
    ("fcidump", "read_fcidump", "fcidump.read_fcidump", _fcidump_counts),
    ("fock.DensityMatrix", "__init__", "fock.DensityMatrix", None),
)

# per-layer metric -> (span name, statistic); statistic is calls, total_s,
# self_s, or a count summed ("sum:<key>") or maximized ("max:<key>") over calls
METRICS = {
    "entanglement.ree_numeric.calls": ("entanglement.ree_numeric", "calls"),
    "entanglement.ree_numeric.total_s": ("entanglement.ree_numeric", "total_s"),
    "entanglement.ree_numeric.self_s": ("entanglement.ree_numeric", "self_s"),
    "entanglement.ree_numeric.outer_iters": ("entanglement.ree_numeric", "sum:outer_iters"),
    "entanglement.ree_numeric.atoms": ("entanglement.ree_numeric", "sum:atoms"),
    "entanglement.objective.calls": ("entanglement.objective", "calls"),
    "entanglement.objective.self_s": ("entanglement.objective", "self_s"),
    "entanglement.oracle.calls": ("entanglement.oracle", "calls"),
    "entanglement.oracle.self_s": ("entanglement.oracle", "self_s"),
    "entanglement.polish.calls": ("entanglement.polish", "calls"),
    "entanglement.polish.self_s": ("entanglement.polish", "self_s"),
    "entanglement.nssr_closed.total_s": ("entanglement.nssr_closed", "total_s"),
    "interacting.build_hamiltonian.calls": ("interacting.build_hamiltonian", "calls"),
    "interacting.build_hamiltonian.total_s": ("interacting.build_hamiltonian", "total_s"),
    "interacting.build_hamiltonian.nnz": ("interacting.build_hamiltonian", "sum:nnz"),
    "interacting.build_hamiltonian.sector_dim": ("interacting.build_hamiltonian",
                                                 "sum:sector_dim"),
    "interacting.ground_state.calls": ("interacting.ground_state", "calls"),
    "interacting.ground_state.total_s": ("interacting.ground_state", "total_s"),
    "interacting.ground_state.max_residual": ("interacting.ground_state", "max:max_residual"),
    "fock.two_orbital_rdm.calls": ("fock.two_orbital_rdm", "calls"),
    "fock.two_orbital_rdm.total_s": ("fock.two_orbital_rdm", "total_s"),
    "fock.two_orbital_rdm.fock_dim": ("fock.two_orbital_rdm", "sum:fock_dim"),
    "fock.DensityMatrix.calls": ("fock.DensityMatrix", "calls"),
    "fock.DensityMatrix.total_s": ("fock.DensityMatrix", "total_s"),
    "channels.pinch.calls": ("channels.pinch", "calls"),
    "channels.pinch.self_s": ("channels.pinch", "self_s"),
    "channels.run_swap_protocol.calls": ("channels.run_swap_protocol", "calls"),
    "channels.run_swap_protocol.self_s": ("channels.run_swap_protocol", "self_s"),
    "freefermion.two_orbital_state_from_block.total_s": (
        "freefermion.two_orbital_state_from_block", "total_s"),
    "fcidump.read_fcidump.total_s": ("fcidump.read_fcidump", "total_s"),
    "fcidump.read_fcidump.bytes": ("fcidump.read_fcidump", "sum:bytes"),
    "cli.main.self_s": ("cli.main", "self_s"),
}

UNITS = {"calls": "count", "total_s": "s", "self_s": "s", "outer_iters": "count",
         "atoms": "count", "nnz": "count", "sector_dim": "count", "fock_dim": "count",
         "max_residual": "norm", "bytes": "B", "starts_per_iter": "ratio"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


class Tracer:
    """Collects spans while installed; ``request`` tags the spans of one call."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self.wrapped: set[str] = set()  # span names with at least one wrapper
        self.broken: set[str] = set()  # span names whose counts could not be read
        self._stack: list[Span] = []

    def _wrap(self, name, fn, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, tracer.request, parent)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    parent.child_s += span.duration
                tracer.spans.append(span)
            if counts is not None:
                try:
                    span.counts = counts(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError, OSError):
                    tracer.broken.add(name)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists, and restore the originals on exit."""
        undo = []
        try:
            for modname, attr, name, counts in TARGETS:
                path, _, cls = modname.partition(".")
                try:
                    owner = importlib.import_module(f"orbent.{path}")
                    if cls:
                        owner = getattr(owner, cls)
                    fn = owner.__dict__[attr] if cls else getattr(owner, attr)
                except (ImportError, AttributeError, KeyError):
                    continue
                undo.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(name, fn, counts))
                self.wrapped.add(name)
            yield self
        finally:
            for owner, attr, fn in reversed(undo):
                setattr(owner, attr, fn)

    def metrics(self, spans) -> tuple[dict, list]:
        """Per-layer metrics over ``spans``: the values and the absent names."""
        values, absent = {}, []
        for metric, (name, stat) in METRICS.items():
            mine = [s for s in spans if s.name == name]
            if name not in self.wrapped:
                absent.append(metric)
            elif stat == "calls":
                values[metric] = len(mine)
            elif stat == "total_s":
                values[metric] = sum(s.duration for s in mine)
            elif stat == "self_s":
                values[metric] = sum(s.duration - s.child_s for s in mine)
            elif name in self.broken:
                absent.append(metric)
            else:
                how, key = stat.split(":")
                got = [s.counts[key] for s in mine]
                values[metric] = (sum(got) if how == "sum" else max(got, default=0))
        oracle = values.get("entanglement.oracle.calls")
        iters = values.get("entanglement.ree_numeric.outer_iters")
        if oracle is None or iters is None:
            absent.append("entanglement.oracle.starts_per_iter")
        else:
            values["entanglement.oracle.starts_per_iter"] = oracle / iters if iters else 0.0
        return values, absent


def median_metrics(per_pass: list) -> dict:
    """Median of each metric over passes; counts repeat exactly pass to pass."""
    names = per_pass[0].keys()
    return {name: statistics.median(p[name] for p in per_pass) for name in names}
