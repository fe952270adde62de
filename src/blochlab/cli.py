"""Configuration-driven experiment runner.

Subcommands: ``husimi``, ``metric``, ``stability``, ``constants``, ``verify``.
Each reads one config file, writes CSV artifacts with a provenance comment,
and uses exit codes

    0  success (for ``verify``: margin within the error budget)
    1  verify margin below the budget
    2  usage error (flags or their environment values, an --out that cannot be
       made a directory, a CSV that cannot be written there) or config parse
       error
    3  config validation error, including sizes whose smallest array (the
       state block, the phase-space grid, ...) exceeds the machine's physical
       memory

Exit code 4 is not produced; it is reserved.

Each ``_cmd_*`` takes the scenario and returns ``(tables, lines, exit code)``,
with ``tables`` mapping a CSV name suffix to ``(header, rows)``.  ``main`` is
the only writer: it writes ``<prefix>_<suffix>.csv`` into ``--out`` for each
table, then prints the lines.  The rows of ``_verify.csv`` and the verdict
lines come from ``verify_theorem``'s report as they are.

Deterministic by construction: reductions run in fixed order and nothing is
random, so the outputs depend on the config's values only.
"""

from __future__ import annotations

import argparse
import hashlib
# argparse's first message lookup loads locale; loaded here, it stays out of a command's time
import locale  # noqa: F401
import os
import sys

import numpy as np

from . import __version__
from .bloch import fft_threads, grid_weight, position_grid
from .config import load_config
from .errors import ConfigParseError, ConfigValidationError
from .observability import PRUNE_TOL, default_p_max, initial_state, k_grid_size, \
    theorem_constants, verify_theorem
from .quantization import husimi, momentum_grid, periodic_trace
from .transport_metric import CostParams, coupling_energy_husimi, coupling_energy_toeplitz, \
    gronwall_rate, stability_envelope


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


def _k_grid_line(scn) -> str:
    """The stdout line of the k-grid a command evaluated and its alias bound."""
    n_k_used, bound = k_grid_size(scn)
    return f"n_k_used = {n_k_used}, k_alias_bound = {bound:.12g}"


# Relative gap between the Husimi grid mass and the exact mass above which ``husimi`` warns.
_HUSIMI_MASS_TOL = 1e-3


def _cmd_husimi(scn):
    _, rho = initial_state(scn)
    rho = rho.compressed(PRUNE_TOL)[0]
    d = scn.lat.dimension
    p_max = default_p_max(scn)
    qs = position_grid(scn.lat, scn.disc.n_q)
    ps, wp = momentum_grid(d, scn.disc.n_p, p_max)
    w = husimi(rho, qs, ps, grid_weight(scn.lat, scn.disc.n_q) * wp)
    header = tuple(f"q{i}" for i in range(d)) + tuple(f"p{i}" for i in range(d)) + ("value",)
    rows = [tuple(q) + tuple(p) + (v,)
            for q, p, v in zip(w.nodes_q, w.nodes_p, w.values)]
    # the Husimi transform keeps the trace, so the exact mass is the periodic trace
    exact = periodic_trace(rho)
    lines = [f"husimi mass = {w.mass:.12g} (grid), {exact:.12g} (exact: periodic trace)"]
    gap = abs(w.mass - exact) / exact
    if gap > _HUSIMI_MASS_TOL:
        lines.append(f"warning: the grid mass is {gap:.3g} relative off the exact mass; "
                     "refine discretization.n_q and discretization.n_p")
    return {"husimi": (header, rows)}, lines + [_k_grid_line(scn)], 0


def _cmd_metric(scn):
    f, rho = initial_state(scn)
    if scn.initial_kind == "toeplitz":
        lam = scn.lam if scn.lam is not None else 1.0
        ce = coupling_energy_toeplitz(f, rho, CostParams(lam, scn.geom))
        extra = [("lambda", lam)]
    else:
        ce = coupling_energy_husimi(rho)
        extra = [("std_dev", ce.std_dev), ("c_bold", ce.c_bold)]
    rows = [("coupling_energy_sq", ce.total), ("bound_sq", ce.bound),
            ("position_part", ce.position_part), ("momentum_part", ce.momentum_part), *extra]
    return {"metric": (("quantity", "value"), rows)}, _assignments(rows) + [_k_grid_line(scn)], 0


def _cmd_stability(scn):
    if scn.initial_kind != "toeplitz":
        raise ConfigValidationError("initial.kind",
                                    "stability envelope requires a toeplitz datum")
    lip = scn.potential.lipschitz_gradient().value
    lam = scn.lam if scn.lam is not None else max(lip, 1.0)
    f, rho = initial_state(scn)
    env = stability_envelope(f, rho, CostParams(lam, scn.geom), scn.potential, scn.horizon,
                             n_times=20, dt=scn.disc.dt, lipschitz=lip)
    rows = list(zip(env.times, env.energies, env.bounds))
    lines = [f"eta = {env.eta:.12g}, max energy/bound = {env.max_ratio():.12g}",
             _k_grid_line(scn)]
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
        ("C_GC_lo", c.gc.lower),
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
    "husimi": _cmd_husimi,
    "metric": _cmd_metric,
    "stability": _cmd_stability,
    "constants": _cmd_constants,
    "verify": _cmd_verify,
}


def _thread_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 1")
    return count


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
    parser.add_argument("--threads", type=_thread_count,
                        default=os.environ.get("BLOCHLAB_THREADS", "1"),
                        help="FFT threads, an integer >= 1; the fibers are split among them and "
                             "the output does not depend on the count (env BLOCHLAB_THREADS)")
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
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create output directory: {exc}", file=sys.stderr)
            return 2
        # the worker count holds for this command only, not for later calls in the process
        with fft_threads(args.threads):
            tables, lines, code = _COMMANDS[args.subcommand](scn)
    except ConfigParseError as exc:
        print(f"config parse error: {exc}", file=sys.stderr)
        return 2
    except ConfigValidationError as exc:
        print(f"config validation error: {exc}", file=sys.stderr)
        return 3
    for name, (header, rows) in tables.items():
        path = os.path.join(args.out, f"{cfg.prefix}_{name}.csv")
        try:
            _write_csv(path, header, rows, cfg_hash)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror}", file=sys.stderr)
            return 2
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
