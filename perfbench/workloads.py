"""The benchmark's workloads: generated configs, command lists and output checks.

Every workload is one blochlab config, generated from the workload seed, and a
fixed list of CLI commands run against it.  The seed only moves the centre of
the initial data inside the phase-space box K, to one of ``JITTER_VARIANTS``
centres, each with a stored reference for the verdict's ``lhs``; the program
sees nothing but the generated config text.  The jitter is small enough that
every quadrature node of K survives pruning on every seed, so the work per
command (rank, transform sizes, step counts) does not change with the seed.

The quasimomentum grids are four times coarser than in the full-size runs
(the acceptance config has n_k = 32), and cell-2d has half the observation
and a quarter of the classical time samples (20 and 200); nothing else is
scaled down.  Single samples of one command vary by about 10% on a shared
2-core machine even after rescaling to a fixed machine speed, and now and
then by 2x, so a 40 s run has to hold at least three samples of every
command for its medians to be steady; the per-fiber work, transform lengths
and stored vectors are those of the full-size runs.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

# Relative tolerance of the ``lhs`` check.  The grid-mask observation
# of the seed commit is off by about 3e-3 relative from the exact box
# integral, and planned accuracy fixes may move ``lhs`` by that much, so the
# check is three times wider than that error.
LHS_REL_TOL = 1e-2
# Slack on "energy <= bound" for the stability and metric checks.
BOUND_SLACK = 1e-3
# Largest jitter of each coordinate of the initial-data centre.
CENTRE_JITTER = 0.05
# Number of distinct jittered centres; seed s uses centre s % JITTER_VARIANTS,
# so that every seed's verify ``lhs`` has a stored reference.
JITTER_VARIANTS = 16


@dataclass(frozen=True)
class Command:
    """One CLI call: ``blochlab <subcommand>`` on the config with ``initial.kind``."""

    subcommand: str
    kind: str
    # Prefix of this command's end-to-end metrics.
    metric: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: str            # template; {center_q} and {center_p} are filled per seed
    center_q: tuple
    center_p: tuple
    commands: tuple
    # lhs of each verify kind for each jitter variant (index seed %
    # JITTER_VARIANTS), measured with ``blochlab verify`` at the commit that
    # added the benchmark.
    lhs_reference: dict
    # End-to-end metric -> layer metrics whose change should move it on this workload.
    layer_map: dict
    # Layer metrics an optimisation of another workload's mechanism should leave
    # unchanged here: this workload bypasses that mechanism.
    unchanged: tuple


_FREE_1D = """\
[lattice]
basis = [[1.0]]

[physics]
hbar = 0.001
T = 1.0
dt = 1e-3

[discretization]
m = 384
n_k = 8
n_q = 12
n_p = 20
n_time_obs = 200
n_time_gc = 2000
gc_per_axis = 32
gc_quasi = 1000

[scenario]
K = [((-0.5,), (0.5,), (1.0,), (2.0,))]
omega = [((-0.1,), (0.1,))]
delta = 0.05

[initial]
kind = {kind}
center_q = {center_q}
center_p = {center_p}
sigma_q = 0.1
sigma_p = 0.15
"""

_POTENTIAL_1D = _FREE_1D.replace(
    "[physics]\nhbar = 0.001", "[potential]\nterms = [((1,), 0.1, 0.0)]\n\n[physics]\nhbar = 0.01"
).replace("m = 384\nn_k = 8", "m = 64\nn_k = 4")

_CELL_2D = """\
[lattice]
basis = [[1.0, 0.0], [0.5, 0.8660254037844386]]

[physics]
hbar = 0.03
T = 0.8
dt = 1e-3

[discretization]
m = 24
n_k = 2
n_q = 12
n_p = 16
n_time_obs = 20
n_time_gc = 200
gc_per_axis = 6
gc_quasi = 500

[scenario]
K = [((-0.3, -0.3), (0.3, 0.3), (0.0, 1.0), (0.5, 2.0))]
omega = [((-0.5, -0.1), (0.5, 0.1))]
delta = 0.05

[initial]
kind = {kind}
center_q = {center_q}
center_p = {center_p}
sigma_q = 0.1
sigma_p = 0.15
"""

_VERIFY_T = Command("verify", "toeplitz", "verify_toeplitz")
_VERIFY_P = Command("verify", "pure", "verify_pure")
_STABILITY = Command("stability", "toeplitz", "stability")

# Layer metrics of one mechanism each, for the ``unchanged`` predictions.
_PADDING = ("bloch.transform_len", "bloch.pad_frac")
_SPLIT_STEP = ("quantum_dynamics.propagate_batch.self_s",
               "quantum_dynamics.propagate_batch.calls", "quantum_dynamics.strang_steps")
_RANK = ("quantization.rank", "quantization.vector_mb", "quantization.effective_rank_frac")
_PAIR_MOMENTS = ("observability.std_dev.self_s", "lattice.reduce_to_cell.self_s")
_SETUP = ("lattice.gamma_bounds.self_s", "config.load_config.self_s")

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="free-1d",
            why="acceptance physics (V = 0, hbar = 1e-3, m = 384): batched observation "
                "transforms at prime length 769 and Husimi; split-step never runs",
            config=_FREE_1D, center_q=(0.0,), center_p=(1.5,),
            commands=(_VERIFY_T, _VERIFY_P, _STABILITY),
            lhs_reference={
                "toeplitz": (
                    0.27936025338336434, 0.31497228237937014, 0.27117885294767924,
                    0.3148224924808296, 0.32253016187504474, 0.29112991505927405,
                    0.281044273377086, 0.3170434420191557, 0.30830823393412277,
                    0.3057350797738149, 0.2989432917519857, 0.30316571606263587,
                    0.30035841344976133, 0.3113016540821299, 0.3188723078786707,
                    0.284591947431698,
                ),
                "pure": (
                    0.2715183236327622, 0.31621001540697835, 0.2609529856356541,
                    0.3156978600376163, 0.32536864674621585, 0.28634332399555695,
                    0.2737183138544418, 0.3183160190928864, 0.3078867693364357,
                    0.30419328553766967, 0.29579792760247364, 0.3011311500492509,
                    0.2977249510704795, 0.31137851755091067, 0.32103576415589424,
                    0.2771606249875561,
                ),
            },
            layer_map={
                "setup_s": _SETUP,
                "verify_toeplitz_s": ("bloch.coeffs_to_values.self_s", "bloch.transform_len",
                                      "bloch.pad_frac"),
                "stability_s": ("bloch.coeffs_to_values.self_s", "bloch.transform_len"),
                "verify_pure_s": ("quantization.husimi.self_s",),
            },
            unchanged=_SPLIT_STEP + _RANK + _PAIR_MOMENTS),
        Workload(
            name="potential-1d",
            why="cosine potential (hbar = 0.01, m = 64): Strang split-step is most of "
                "verify, as many small transforms at n = 129, plus the Verlet sweep with forces",
            config=_POTENTIAL_1D, center_q=(0.0,), center_p=(1.5,),
            commands=(_VERIFY_T, _VERIFY_P, _STABILITY),
            lhs_reference={
                "toeplitz": (
                    0.2820462492206022, 0.31256170874181616, 0.2752043738113331,
                    0.312515678814405, 0.31930612904968736, 0.29197773997957865,
                    0.28343719499690334, 0.31447714679122585, 0.30668478379785963,
                    0.3046049340848628, 0.29873236869147307, 0.30235334402723485,
                    0.2999056242103162, 0.3093977919154242, 0.3160456168590852,
                    0.2865652060807059,
                ),
                "pure": (
                    0.2683030559336958, 0.31130574675430883, 0.2585455512651418,
                    0.31086282709043545, 0.3203750706773977, 0.28227665118119694,
                    0.2702976247281381, 0.31346602814622065, 0.30318467452627795,
                    0.29963466917566334, 0.29147501464110714, 0.2966214435287577,
                    0.29329167534801875, 0.30662254809628686, 0.3160316331335098,
                    0.27441514865226097,
                ),
            },
            layer_map={
                "setup_s": _SETUP,
                "verify_toeplitz_s": ("bloch.coeffs_to_values.calls",
                                      "quantum_dynamics.propagate_batch.self_s",
                                      "quantum_dynamics.strang_steps",
                                      "classical_dynamics.gc_constant.self_s"),
                "verify_pure_s": ("quantum_dynamics.propagate_batch.self_s",
                                  "classical_dynamics.gc_constant.self_s"),
                "stability_s": ("quantum_dynamics.propagate_batch.self_s",
                                "classical_dynamics.lipschitz_gradient.self_s"),
            },
            unchanged=_PAIR_MOMENTS),
        Workload(
            name="cell-2d",
            why="2-D hexagonal cell (hbar = 0.03, m = 24, 2x2 fibers): dense pair-moment "
                "matrices, and 134 stored fiber vectors (20 MB, 12% of verify toeplitz RSS) of "
                "which 57 carry the trace",
            config=_CELL_2D, center_q=(0.0, 0.0), center_p=(0.25, 1.5),
            commands=(_VERIFY_T, _VERIFY_P, _STABILITY),
            lhs_reference={
                "toeplitz": (
                    0.2679652325048573, 0.2658722147692604, 0.2653552798669566,
                    0.2688342722931319, 0.283178085243974, 0.25963064266580665,
                    0.2664061394909003, 0.28299809739540227, 0.2572995602432708,
                    0.2697281865590301, 0.2761044259323302, 0.2701825534285071,
                    0.2716118589239744, 0.2622349158932962, 0.2606436455159546,
                    0.2847810545329217,
                ),
                "pure": (
                    0.2706644770926937, 0.26696569008648957, 0.2648518603261302,
                    0.2754158240693084, 0.29719441239467387, 0.2626633909569483,
                    0.2679528481256665, 0.29623113713356, 0.25641351912070953,
                    0.2792394731126025, 0.28470795054867426, 0.2764580082327122,
                    0.2761833125259528, 0.2662971588180349, 0.2643653282337573,
                    0.3001817138533472,
                ),
            },
            layer_map={
                "setup_s": _SETUP,
                "verify_toeplitz_s": ("quantization.rank", "quantization.vector_mb",
                                      "quantization.effective_rank_frac"),
                "verify_toeplitz_rss_mb": ("quantization.rank", "quantization.vector_mb",
                                           "quantization.effective_rank_frac"),
                "verify_pure_s": ("observability.std_dev.self_s",
                                  "lattice.reduce_to_cell.self_s"),
                "stability_s": ("transport_metric.stability_envelope.self_s",
                                "bloch.coeffs_to_values.self_s"),
            },
            # its 49 x 49 transform grid needs no padding (49 = 7 * 7)
            unchanged=_PADDING + _SPLIT_STEP),
    )
}


def _literal(values) -> str:
    return "(" + ", ".join(repr(float(v)) for v in values) + ",)"


def centres(workload: Workload, seed: int):
    """Initial-data centre (q, p) for a seed, jittered inside K."""
    rng = random.Random(seed % JITTER_VARIANTS)
    q = [c + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER) for c in workload.center_q]
    p = [c + rng.uniform(-CENTRE_JITTER, CENTRE_JITTER) for c in workload.center_p]
    return q, p


def config_text(workload: Workload, seed: int, kind: str) -> str:
    q, p = centres(workload, seed)
    return workload.config.format(kind=kind, center_q=_literal(q), center_p=_literal(p))


def read_csv(path) -> list:
    """Rows of a blochlab CSV artifact, without the provenance comment and header."""
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if not ln.startswith("#")]
    return [ln.split(",") for ln in lines[1:] if ln]


def check_output(workload: Workload, command: Command, seed: int, outdir: str) -> str | None:
    """None when the command's CSVs satisfy the paper's invariants, else the reason."""
    path = os.path.join(outdir, f"out_{command.subcommand}.csv")
    try:
        rows = read_csv(path)
    except OSError as exc:
        return f"missing output: {exc}"
    try:
        if command.subcommand == "verify":
            vals = {k: v for k, v in rows}
            if vals["passed"] != "1":
                return "verify did not pass"
            if not float(vals["C_GC"]) > 0.0:
                return f"C_GC = {vals['C_GC']} is not positive"
            ref = workload.lhs_reference[command.kind][seed % JITTER_VARIANTS]
            lhs = float(vals["lhs"])
            if not abs(lhs - ref) <= LHS_REL_TOL * abs(ref):
                return f"lhs {lhs!r} differs from the reference {ref!r}"
        elif command.subcommand == "stability":
            worst = max(float(e) / float(b) for _, e, b in rows)
            if not worst <= 1.0 + BOUND_SLACK:
                return f"stability energy/bound {worst!r} exceeds 1 + {BOUND_SLACK}"
        elif command.subcommand == "metric":
            vals = {k: float(v) for k, v in rows}
            ce, bound = vals["coupling_energy_sq"], vals["bound_sq"]
            if not ce <= bound * (1.0 + BOUND_SLACK):
                return f"coupling energy {ce!r} exceeds its bound {bound!r}"
        else:
            return f"no check for subcommand {command.subcommand!r}"
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        return f"malformed output {path}: {exc!r}"
    return None
