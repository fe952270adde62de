"""Line-oriented experiment configuration: parsing, validation, scenario assembly.

Format: ``[section]`` headers and ``key = value`` pairs; values are Python
literals (numbers, tuples, nested lists), comments start with ``#``.  Parsing
errors carry line/column information; validation errors name the offending
``section.key``.
"""

from __future__ import annotations

import ast
import itertools
import os
from dataclasses import dataclass

import numpy as np

from .classical_dynamics import TrigPotential
from .errors import ConfigParseError, ConfigValidationError
from .lattice import LatticeSpec, Region, gamma_bounds
from .observability import Discretization, ObservabilityScenario
from .quantization import PhaseBoxSet

# Every accepted key of every section; any other key is a validation error.
_KEYS = {
    "lattice": ("basis",),
    "potential": ("terms",),
    "physics": ("hbar", "T", "dt", "lambda"),
    "discretization": ("m", "n_k", "n_q", "n_p", "p_max", "n_time_obs", "n_time_gc",
                       "gc_per_axis", "gc_quasi"),
    "scenario": ("K", "omega", "delta"),
    "initial": ("kind", "center_q", "center_p", "sigma_q", "sigma_p"),
    "output": ("prefix",),
}


def parse_config(text: str) -> dict:
    """Parse the config text into {section: {key: value}} with literal values."""
    sections: dict = {}
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("["):
            if not stripped.endswith("]"):
                raise ConfigParseError("unterminated section header", lineno,
                                       len(line))
            name = stripped[1:-1].strip()
            if name not in _KEYS:
                raise ConfigParseError(f"unknown section [{name}]", lineno, 1)
            current = sections.setdefault(name, {})
            continue
        if current is None:
            raise ConfigParseError("key outside any [section]", lineno, 1)
        if "=" not in stripped:
            raise ConfigParseError("expected 'key = value'", lineno, 1)
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigParseError("empty key", lineno, 1)
        try:
            parsed = ast.literal_eval(value)
        except (ValueError, SyntaxError):
            parsed = value  # bare word, kept as string
        current[key] = parsed
    return sections


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment: the scenario and the output prefix."""

    _scenario: ObservabilityScenario
    prefix: str = "out"

    def scenario(self) -> ObservabilityScenario:
        return self._scenario


_REQUIRED = object()


def _value(sections: dict, section: str, key: str, convert, default=_REQUIRED):
    """``convert(section.key)``, or ``default`` when absent; failures name the key."""
    if key not in sections.get(section, {}):
        if default is _REQUIRED:
            raise ConfigValidationError(f"{section}.{key}", "required key is missing")
        return default
    raw = sections[section][key]
    try:
        return convert(raw)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigValidationError(f"{section}.{key}",
                                    f"invalid value {raw!r}: {exc}") from None


def _real(value) -> float:
    x = float(value)
    if not np.isfinite(x):
        raise ValueError("must be finite")
    return x


def _positive(value) -> float:
    x = _real(value)
    if x <= 0:
        raise ValueError("must be positive")
    return x


def _width(value) -> float:
    """A positive Gaussian width sigma whose 2 sigma^2 is finite."""
    x = _positive(value)
    if not np.isfinite(2.0 * x * x):
        raise ValueError("2 sigma^2 overflows")
    return x


def _integer(value) -> int:
    """An integral finite number as an int; 2.5, inf and ints beyond float range fail."""
    x = _real(value)
    if not x.is_integer():
        raise ValueError("must be an integer")
    return int(value) if isinstance(value, int) else int(x)


def _reals(value) -> np.ndarray:
    x = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("entries must be finite")
    return x


def _lattice(value) -> LatticeSpec:
    basis = _reals(value)
    if basis.ndim != 2 or basis.shape[0] != basis.shape[1]:
        raise ValueError("must be a square matrix")
    return LatticeSpec(basis)


def _terms(value, d: int) -> tuple:
    terms = []
    for n, c, phi in value:
        n = tuple(_integer(v) for v in np.atleast_1d(n))
        if len(n) != d:
            raise ValueError(f"reciprocal index {n} is not of dimension {d}")
        terms.append((n, _real(c), _real(phi)))
    return tuple(terms)


def _boxes(value, corners: int, d: int) -> np.ndarray:
    """Boxes as an (nb, corners, d) array; in 1-D a corner may be a bare number."""
    boxes = np.array([[np.atleast_1d(_reals(c)) for c in box] for box in value], dtype=float)
    if boxes.size == 0:
        return boxes.reshape(0, corners, d)
    if boxes.shape[1:] != (corners, d):
        raise ValueError(f"each box is {corners} corners of dimension {d}")
    # corners alternate lo, hi: (lo, hi) for omega, (q_lo, q_hi, p_lo, p_hi) for K
    if np.any(boxes[:, 0::2] >= boxes[:, 1::2]):
        raise ValueError("every box needs lo < hi on every axis")
    return boxes


def _point(value, d: int) -> np.ndarray:
    point = np.atleast_1d(_reals(value))
    if point.shape != (d,):
        raise ValueError(f"must have dimension {d}")
    return point


def _check_sizes_fit(sizes: dict, d: int) -> None:
    """Reject sizes whose smallest array cannot fit in physical memory.

    Each array is one that some command builds from the sizes alone: the
    state block, at least one complex vector per fiber; the n_q^d n_p^d
    phase-space grid; the gc_per_axis^(2d) and gc_quasi sub-boxes of the
    geometric-control flow route, 4d reals each; the n_time_obs + 1 observation
    times.  The counts are taken in Python ints, so no size overflows, and of
    two factors the larger one's key is named.
    """
    m, n_k, n_q, n_p = sizes["m"], sizes["n_k"], sizes["n_q"], sizes["n_p"]
    arrays = (
        ("n_k" if n_k > 2 * m + 1 else "m", (n_k * (2 * m + 1)) ** d * 16,
         "the smallest state block, n_k^d (2m+1)^d complex values,"),
        ("n_q" if n_q > n_p else "n_p", (n_q * n_p) ** d * 8,
         "the phase-space grid, n_q^d n_p^d reals,"),
        ("gc_per_axis", sizes["gc_per_axis"] ** (2 * d) * 32 * d,
         "the geometric-control first level, gc_per_axis^(2d) sub-boxes of 4d reals,"),
        ("gc_quasi", sizes["gc_quasi"] * 32 * d,
         "the geometric-control refinement, gc_quasi sub-boxes of 4d reals,"),
        ("n_time_obs", (sizes["n_time_obs"] + 1) * 8,
         "the observation time grid, n_time_obs + 1 reals,"),
    )
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    for key, need, what in arrays:
        if need > have:
            raise ConfigValidationError(
                f"discretization.{key}", f"{what} exceeds the {have:.3g} bytes of physical memory")


def load_config(text: str) -> ExperimentConfig:
    """Parse and validate; raises ConfigParseError / ConfigValidationError."""
    sections = parse_config(text)
    for section, entries in sections.items():
        for key in entries:
            if key not in _KEYS[section]:
                raise ConfigValidationError(f"{section}.{key}", "unknown key")

    lat = _value(sections, "lattice", "basis", _lattice)
    d = lat.dimension
    potential = TrigPotential(lat, _value(sections, "potential", "terms",
                                          lambda v: _terms(v, d), ()))

    hbar = _value(sections, "physics", "hbar", _real)
    if not (1e-4 <= hbar <= 1.0):
        raise ConfigValidationError("physics.hbar", "supported range is [1e-4, 1]")
    horizon = _value(sections, "physics", "T", _positive)
    dt = _value(sections, "physics", "dt", _positive, 1e-3)
    lam = _value(sections, "physics", "lambda", _positive, None)

    sizes = {}
    for key, default, least in (("m", 64 if d == 1 else 24, 2),
                                ("n_k", 32 if d == 1 else 4, 2),
                                ("n_q", 16, 2), ("n_p", 24, 2),
                                ("n_time_obs", 200, 1), ("n_time_gc", 2000, 1),
                                ("gc_per_axis", round(32 ** (1 / d)), 1), ("gc_quasi", 1000, 0)):
        sizes[key] = _value(sections, "discretization", key, _integer, default)
        if sizes[key] < least:
            raise ConfigValidationError(f"discretization.{key}", f"must be at least {least}")
    m = sizes["m"]
    _check_sizes_fit(sizes, d)
    p_max = _value(sections, "discretization", "p_max", _positive, None)
    disc = Discretization(p_max=p_max, dt=dt, **sizes)
    if m * np.sqrt(hbar) < 4.0:
        raise ConfigValidationError(
            "discretization.m", f"m*sqrt(hbar) = {m * np.sqrt(hbar):.2f} < 4; "
            "the packet width is unresolved")
    bw = potential.bandwidth
    if bw and m < 2 * bw:
        raise ConfigValidationError(
            "discretization.m", f"m = {m} must be at least twice the potential "
            f"bandwidth {bw} (anti-aliasing)")

    delta = _value(sections, "scenario", "delta", _positive)
    k_boxes = _value(sections, "scenario", "K", lambda v: _boxes(v, 4, d))
    if not k_boxes.size:
        raise ConfigValidationError("scenario.K", "must be nonempty")
    # the Husimi mass on K is summed box by box, so an overlap would count twice
    for i, j in itertools.combinations(range(k_boxes.shape[0]), 2):
        if np.all(np.maximum(k_boxes[i, ::2], k_boxes[j, ::2])
                  < np.minimum(k_boxes[i, 1::2], k_boxes[j, 1::2])):
            raise ConfigValidationError("scenario.K", f"boxes {i} and {j} overlap")
    omega_boxes = _value(sections, "scenario", "omega", lambda v: _boxes(v, 2, d),
                         np.zeros((0, 2, d)))
    # Region periodizes through the 3^d translates next to the cell, so a box
    # must lie in those cells: fractional coordinates within [-3/2, 3/2]
    corners = np.stack([omega_boxes[:, c, range(d)] for c in itertools.product((0, 1), repeat=d)],
                       axis=1)
    outside = np.any(np.abs(corners @ lat.inverse_basis) > 1.5 + 1e-12, axis=(1, 2))
    if np.any(outside):
        raise ConfigValidationError(
            "scenario.omega", f"box {int(np.argmax(outside))} reaches beyond the 3^d cells "
            "around the unit cell; move it by a lattice vector")

    kind = _value(sections, "initial", "kind", str, "toeplitz")
    if kind not in ("toeplitz", "pure"):
        raise ConfigValidationError("initial.kind", "must be 'toeplitz' or 'pure'")
    center_q = _value(sections, "initial", "center_q", lambda v: _point(v, d), None)
    center_p = _value(sections, "initial", "center_p", lambda v: _point(v, d), None)
    sigma_q = _value(sections, "initial", "sigma_q", _width, 0.1)
    sigma_p = _value(sections, "initial", "sigma_p", _width, 0.15)

    # momentum coverage: the plane-wave band must reach the data's momenta
    b_min = float(np.min(np.linalg.norm(lat.reciprocal, axis=1)))
    reach = hbar * m * b_min
    p_need = 6.0 * np.sqrt(hbar)
    if center_p is not None:
        p_need += float(np.max(np.abs(center_p)))
    else:
        p_need += float(np.max(np.abs(k_boxes[:, 2])) + np.max(np.abs(k_boxes[:, 3])))
    if reach < p_need:
        raise ConfigValidationError(
            "discretization.m", f"momentum coverage hbar*m*|b| = {reach:.3f} "
            f"is below the data's requirement {p_need:.3f}")

    geom = gamma_bounds(lat)
    scenario = ObservabilityScenario(
        lat=lat, geom=geom, potential=potential, hbar=hbar, horizon=horizon, delta=delta,
        omega=Region(omega_boxes, lat), k_set=PhaseBoxSet(k_boxes[:, :2], k_boxes[:, 2:]),
        disc=disc, lam=lam, initial_kind=kind, center_q=center_q, center_p=center_p,
        sigma_q=sigma_q, sigma_p=sigma_p)
    prefix = _value(sections, "output", "prefix", str, "out")
    if not prefix or os.path.basename(prefix) != prefix:
        raise ConfigValidationError("output.prefix",
                                    "must be non-empty and contain no path separator")
    return ExperimentConfig(scenario, prefix)
