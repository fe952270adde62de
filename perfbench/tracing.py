"""Span tracer that wraps blochlab's public functions from outside the package.

``Tracer.install()`` replaces every public module-level function of every
``blochlab`` module, plus a few named methods, with a wrapper that records a
span.  The wrapper is bound under every name the function is reachable by,
so ``blochlab.observability.coeffs_to_values`` is traced as well as
``blochlab.bloch.coeffs_to_values``.  Spans nest through a stack; the self
time of a span is its duration minus the durations of its direct children.

Counters are computed from call arguments and return values only, so they
repeat exactly between runs of the same config.  Computing them takes place
outside every span: the time is charged to no layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import pkgutil
import sys
import time
from collections import defaultdict

import numpy as np

# Functions reported under one span name instead of their own.
_SPAN_ALIASES = {
    "blochlab.observability.constant_toeplitz": "observability.penalty_constants",
    "blochlab.observability.argmin_lambda_toeplitz": "observability.penalty_constants",
    "blochlab.observability.constant_pure": "observability.penalty_constants",
    "blochlab.observability.hbar_threshold": "observability.penalty_constants",
}
# Methods traced besides the module-level functions: (module, class, method, span).
_METHODS = (
    ("lattice", "Region", "contains", "lattice.Region"),
    ("lattice", "Region", "contains_dilated", "lattice.Region"),
    ("lattice", "Region", "distance", "lattice.Region"),
    ("classical_dynamics", "TrigPotential", "lipschitz_gradient",
     "classical_dynamics.lipschitz_gradient"),
)
# Counters the hooks below produce; ``bloch.pad_frac`` is derived from two of them.
COUNTERS = ("bloch.transform_points", "bloch.coeff_points", "bloch.transform_len",
            "bloch.pad_frac", "states.coherent_coeff_batch.rows", "quantization.rank",
            "quantization.vector_mb", "quantization.effective_rank_frac",
            "quantization.husimi.evaluations", "quantum_dynamics.strang_steps",
            "classical_dynamics.gc_constant.trajectory_steps")
# Counters combined across commands by maximum; all others are summed.
MAX_COUNTERS = ("bloch.transform_len", "quantization.rank", "quantization.vector_mb",
                "quantization.effective_rank_frac")
# Relative trace tail that the effective rank of a fiber may leave out.
RANK_TAIL = 1e-10


def _batch(shape, d: int) -> int:
    return int(math.prod(shape[:len(shape) - d]))


def effective_rank(rho, tail: float = RANK_TAIL) -> int:
    """Largest, over fibers, number of eigenvalues needed for a ``tail`` trace tail.

    The nonzero spectrum of a fiber operator ``sum_j l_j |v_j><v_j|`` equals
    that of the rank x rank Gram matrix of the weighted vectors.
    """
    worst = 0
    for lam, vecs in zip(rho.lambdas, rho.vectors):
        a = np.sqrt(np.clip(lam, 0.0, None))[:, None] * vecs
        ev = np.clip(np.linalg.eigvalsh(a @ a.conj().T), 0.0, None)[::-1]
        total = float(ev.sum())
        if total == 0.0:
            continue
        # tails[r] = sum of ev[r:]; the first r whose tail fits is the rank needed
        tails = np.concatenate([np.cumsum(ev[::-1])[::-1], [0.0]])
        worst = max(worst, int(np.argmax(tails <= tail * total)))
    return worst


class Tracer:
    """In-memory spans (total time, self time, calls), counters and error counts."""

    def __init__(self):
        self.spans = defaultdict(lambda: {"total_s": 0.0, "self_s": 0.0, "calls": 0})
        self.counters = defaultdict(float)
        self.errors = defaultdict(int)
        self._stack = []            # child time accumulated by each open span
        self._counted = set()       # ids of exceptions already charged to a module

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, span: str, module: str, counter=None):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if id(exc) not in self._counted:
                    self._counted.add(id(exc))
                    self.errors[module] += 1
                raise
            finally:
                elapsed = time.perf_counter() - t0
                child = self._stack.pop()
                rec = self.spans[span]
                rec["total_s"] += elapsed
                rec["self_s"] += elapsed - child
                rec["calls"] += 1
                if self._stack:
                    self._stack[-1] += elapsed
            if counter is not None:
                t1 = time.perf_counter()
                counter(self, sig.bind(*args, **kwargs), result)
                if self._stack:     # keep the counter's time out of the parent span
                    self._stack[-1] += time.perf_counter() - t1
            return result

        return traced

    def _max(self, name: str, value: float) -> None:
        self.counters[name] = max(self.counters[name], float(value))

    def _transform(self, n_transform: int, n_coeff: int, shape, d: int) -> None:
        batch = _batch(shape, d)
        self.counters["bloch.transform_points"] += batch * n_transform ** d
        self.counters["bloch.coeff_points"] += batch * n_coeff ** d
        self._max("bloch.transform_len", n_transform)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap blochlab's public functions and rebind every reference to them."""
        import blochlab

        modules = [importlib.import_module(f"blochlab.{info.name}")
                   for info in pkgutil.iter_modules(blochlab.__path__)]
        wrapped = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                key = f"{mod.__name__}.{name}"
                span = _SPAN_ALIASES.get(key, f"{short}.{name}")
                wrapped[id(obj)] = self._wrap(obj, span, short, _COUNTERS.get(span))
        for mod in [blochlab] + modules:
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    setattr(mod, name, wrapped[id(obj)])
        for short, cls_name, meth, span in _METHODS:
            cls = getattr(sys.modules[f"blochlab.{short}"], cls_name)
            setattr(cls, meth, self._wrap(getattr(cls, meth), span, short,
                                          _COUNTERS.get(span)))

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        return {"spans": {k: dict(v) for k, v in self.spans.items()},
                "counters": dict(self.counters), "errors": dict(self.errors)}


# Counter hooks: (tracer, bound arguments, return value) -> None.

def _count_c2v(tr: Tracer, args, result) -> None:
    coeffs, lat = args.arguments["coeffs"], args.arguments["lat"]
    d = lat.dimension
    nout = args.arguments.get("nout") or coeffs.shape[-1]
    tr._transform(nout, coeffs.shape[-1], coeffs.shape, d)


def _count_v2c(tr: Tracer, args, result) -> None:
    values, lat, m = args.arguments["values"], args.arguments["lat"], args.arguments["m"]
    tr._transform(values.shape[-1], 2 * m + 1, values.shape, lat.dimension)


def _count_packets(tr: Tracer, args, result) -> None:
    tr.counters["states.coherent_coeff_batch.rows"] += result.shape[0]


def _count_quantize(tr: Tracer, args, result) -> None:
    tr._max("quantization.rank", result.rank)
    tr._max("quantization.vector_mb", result.vectors.nbytes / 2 ** 20)
    tr._max("quantization.effective_rank_frac", effective_rank(result) / result.rank)


def _count_husimi(tr: Tracer, args, result) -> None:
    rho = args.arguments["rho"]
    n_q = np.atleast_2d(args.arguments["qs"]).shape[0]
    n_p = np.atleast_2d(args.arguments["ps"]).shape[0]
    tr.counters["quantization.husimi.evaluations"] += rho.kgrid.size * rho.rank * n_q * n_p


def _count_strang(tr: Tracer, args, result) -> None:
    h, t, dt = args.arguments["h"], args.arguments["t"], args.arguments["dt"]
    if t != 0.0 and not h.potential.is_zero:
        tr.counters["quantum_dynamics.strang_steps"] += max(1, math.ceil(abs(t) / dt))


def _count_gc(tr: Tracer, args, result) -> None:
    args.apply_defaults()
    tr.counters["classical_dynamics.gc_constant.trajectory_steps"] += \
        result.n_samples * args.arguments["n_time"]


_COUNTERS = {
    "bloch.coeffs_to_values": _count_c2v,
    "bloch.values_to_coeffs": _count_v2c,
    "states.coherent_coeff_batch": _count_packets,
    "quantization.toeplitz_quantize": _count_quantize,
    "quantization.husimi": _count_husimi,
    "quantum_dynamics.propagate_batch": _count_strang,
    "classical_dynamics.gc_constant": _count_gc,
}
