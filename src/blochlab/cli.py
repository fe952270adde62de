"""Configuration-driven experiment runner.

Subcommands: ``evolve``, ``husimi``, ``metric``, ``stability``, ``constants``,
``verify``.  Each reads one config file, writes CSV artifacts with a
provenance comment, and uses exit codes

    0  success (for ``verify``: margin within the error budget)
    1  verify margin below the budget
    2  usage error (flags or their environment values, an --out that cannot be
       made a directory) or config parse error
    3  config validation error, including sizes whose smallest state block
       exceeds the machine's physical memory

Exit code 4 is not produced; it is reserved.

Each ``_cmd_*`` takes the scenario and returns ``(tables, lines, exit code)``,
with ``tables`` mapping a CSV name suffix to ``(header, rows)``.  ``main`` is
the only writer: it writes ``<prefix>_<suffix>.csv`` into ``--out`` for each
table, then prints the lines.  The rows of ``_verify.csv`` and the verdict
lines come from ``verify_theorem``'s report as they are.

Deterministic by construction: reductions run in fixed order and the only
randomness (quasi-random sampling of K) is seeded from the config hash.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys

import numpy as np
from scipy import fft as sfft

from . import __version__
from .bloch import grid_weight, position_grid
from .config import load_config
from .errors import ConfigParseError, ConfigValidationError
from .observability import (PRUNE_TOL, default_p_max, initial_density, initial_state,
                            observed_time_integral, theorem_constants, verify_theorem)
from .quantization import husimi, momentum_grid, periodic_trace
from .transport_metric import CostParams, c_bold, coupling_energy_husimi, \
    coupling_energy_toeplitz, gronwall_rate, stability_envelope, std_dev


def _fmt(x) -> str:
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.17g}"
    return str(x)


def _write_csv(path, header, rows, cfg_hash):
    with open(path, "w") as fh:
        fh.write(f"# blochlab {__version__} config={cfg_hash}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _assignments(rows) -> list:
    """``name = value`` stdout lines, floats to 12 significant digits."""
    return [f"{name} = {value:.12g}" if isinstance(value, float) else f"{name} = {value}"
            for name, value in rows]


def _cmd_evolve(scn):
    rho = initial_state(scn).compressed(PRUNE_TOL)[0]
    trace0 = periodic_trace(rho)    # before the evolution, which advances rho in place
    integral, series, times, quad_err, drift = observed_time_integral(
        rho, scn.omega, scn.delta, scn.potential, scn.horizon,
        scn.disc.n_time_obs, scn.disc.dt)
    lines = [f"time integral = {integral:.12g}  (quad err est {quad_err:.3g})",
             f"initial periodic trace = {trace0:.12g}",
             f"trace drift = {drift:.3g}"]
    return {"evolve": (("t", "observed"), list(zip(times, series)))}, lines, 0


def _cmd_husimi(scn):
    rho = initial_state(scn).compressed(PRUNE_TOL)[0]
    d = scn.lat.dimension
    p_max = default_p_max(scn)
    qs = position_grid(scn.lat, scn.disc.n_q)
    ps, wp = momentum_grid(d, scn.disc.n_p, p_max)
    w = husimi(rho, qs, ps, grid_weight(scn.lat, scn.disc.n_q) * wp)
    header = tuple(f"q{i}" for i in range(d)) + tuple(f"p{i}" for i in range(d)) + ("value",)
    rows = [tuple(q) + tuple(p) + (v,)
            for q, p, v in zip(w.nodes_q, w.nodes_p, w.values)]
    return {"husimi": (header, rows)}, [f"husimi mass = {w.mass:.12g}"], 0


def _cmd_metric(scn):
    rho = initial_state(scn)
    if scn.initial_kind == "toeplitz":
        lam = scn.lam if scn.lam is not None else 1.0
        ce = coupling_energy_toeplitz(initial_density(scn), rho, CostParams(lam, scn.geom))
        extra = [("lambda", lam)]
    else:
        ce = coupling_energy_husimi(rho)
        extra = [("std_dev", std_dev(rho)), ("c_bold", c_bold(rho))]
    rows = [("coupling_energy_sq", ce.total), ("bound_sq", ce.bound),
            ("position_part", ce.position_part), ("momentum_part", ce.momentum_part), *extra]
    return {"metric": (("quantity", "value"), rows)}, _assignments(rows), 0


def _cmd_stability(scn):
    if scn.initial_kind != "toeplitz":
        raise ConfigValidationError("initial.kind",
                                    "stability envelope requires a toeplitz datum")
    lam = scn.lam if scn.lam is not None else max(scn.potential.lipschitz_gradient().value, 1.0)
    env = stability_envelope(initial_density(scn), initial_state(scn),
                             CostParams(lam, scn.geom), scn.potential, scn.horizon,
                             n_times=20, dt=scn.disc.dt)
    rows = list(zip(env.times, env.energies, env.bounds))
    lines = [f"eta = {env.eta:.12g}, max energy/bound = {env.max_ratio():.12g}"]
    return {"stability": (("t", "energy", "bound"), rows)}, lines, 0


def _cmd_constants(scn):
    c = theorem_constants(scn)
    lam = scn.lam if scn.lam is not None else 1.0
    rows = [
        ("gamma_minus", scn.geom.gamma_minus),
        ("gamma_plus", scn.geom.gamma_plus),
        ("lip_grad_V", c.lip.value),
        ("lip_grad_V_analytic", c.lip.analytic),
        ("lip_grad_V_grid", c.lip.grid),
        ("C_GC", c.gc.value),
        ("GC_satisfied", int(c.gc.satisfied)),
        ("C_toeplitz", c.c_toeplitz),
        ("C_pure", c.c_pure),
        ("eta_at_lambda", gronwall_rate(scn.geom, lam, c.lip.value)),
        ("hbar_threshold", c.hbar_threshold),
    ]
    return {"constants": (("constant", "value"), rows)}, _assignments(rows), 0


def _cmd_verify(scn):
    report = verify_theorem(scn)
    tables = {"verify": (("quantity", "value"), list(report.rows.items())),
              "observation": (("t", "observed"),
                              list(zip(report.times, report.observation_series)))}
    return tables, report.summary(), 0 if report.passed else 1


_COMMANDS = {
    "evolve": _cmd_evolve,
    "husimi": _cmd_husimi,
    "metric": _cmd_metric,
    "stability": _cmd_stability,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
}


def _tolerance_scale(text: str) -> float:
    try:
        scale = float(text)
    except ValueError:
        scale = float("nan")
    if not (np.isfinite(scale) and scale >= 0):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number >= 0")
    return scale


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blochlab",
        description="Periodic semiclassical dynamics and observability experiments.")
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", default=os.environ.get("BLOCHLAB_CONFIG"),
                        help="path to the experiment config (env BLOCHLAB_CONFIG)")
    parser.add_argument("--out", default=os.environ.get("BLOCHLAB_OUT", "."),
                        help="output directory for CSV artifacts (env BLOCHLAB_OUT)")
    # string defaults go through ``type`` like the command line, so a malformed
    # environment value is a usage error (exit 2), not a traceback
    parser.add_argument("--threads", type=int,
                        default=os.environ.get("BLOCHLAB_THREADS", "1"),
                        help="FFT worker threads (env BLOCHLAB_THREADS)")
    parser.add_argument("--tolerance-scale", type=_tolerance_scale,
                        default=os.environ.get("BLOCHLAB_TOLERANCE_SCALE", "1.0"),
                        help="scales the verify error budget, finite and >= 0 "
                             "(env BLOCHLAB_TOLERANCE_SCALE)")
    args = parser.parse_args(argv)

    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return 2
    try:
        with open(args.config, "rb") as fh:
            raw = fh.read()
        text = raw.decode("utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2

    cfg_hash = hashlib.sha256(raw).hexdigest()[:12]
    try:
        cfg = load_config(text)
        scn = cfg.scenario()
        scn.tolerance_scale = args.tolerance_scale
        scn.disc.seed = int(cfg_hash, 16) % (2 ** 31)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory: {exc}", file=sys.stderr)
            return 2
        # the worker count holds for this command only, not for later calls in the process
        with sfft.set_workers(max(1, args.threads)):
            tables, lines, code = _COMMANDS[args.subcommand](scn)
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 3
    for name, (header, rows) in tables.items():
        _write_csv(os.path.join(args.out, f"{cfg.prefix}_{name}.csv"), header, rows, cfg_hash)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
