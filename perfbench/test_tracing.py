"""Tests of the benchmark's tracer and output checks.

    python3 -m pytest perfbench

Traced commands run in child interpreters through ``child.py``, exactly as the
benchmark runs them, so wrapping blochlab never leaks into this process.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import run
from tracing import effective_rank
from workloads import JITTER_VARIANTS, WORKLOADS, Command, check_output, config_text

ROOT = os.path.dirname(run.HERE)


def _child(tmp_path, workload: str, kind: str, subcommand: str, mode: str) -> dict:
    cfg = tmp_path / f"{workload}-{kind}.cfg"
    cfg.write_text(config_text(WORKLOADS[workload], 0, kind))
    out = tmp_path / "out"
    cwd = os.getcwd()
    os.chdir(ROOT)
    try:
        env = run._child_env()
    finally:
        os.chdir(cwd)
    proc = subprocess.run([sys.executable, run.CHILD, mode, str(cfg), str(out), subcommand],
                          env=env, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["exit"] == 0
    return result


def _traced(tmp_path, workload: str, kind: str, subcommand: str) -> dict:
    return _child(tmp_path, workload, kind, subcommand, "trace")["trace"]


def _calls(trace: dict, span: str) -> int:
    return trace["spans"].get(span, {}).get("calls", 0)


def test_free_verify_counts_every_observation_transform(tmp_path):
    trace = _traced(tmp_path, "free-1d", "toeplitz", "verify")
    # 200 time samples plus the initial one, each one batched transform,
    # reached through the name observability imported
    assert _calls(trace, "bloch.coeffs_to_values") == 201
    assert _calls(trace, "quantum_dynamics.propagate_batch") == 0
    assert trace["counters"]["bloch.transform_len"] == 769
    assert trace["counters"]["quantization.effective_rank_frac"] == 1.0
    assert _calls(trace, "cli.main") == 1
    assert trace["spans"]["cli.main"]["self_s"] <= trace["spans"]["cli.main"]["total_s"]


def test_potential_verify_counts_split_step_calls(tmp_path):
    trace = _traced(tmp_path, "potential-1d", "toeplitz", "verify")
    # 4 fibers x 200 time samples, each 5 Strang steps of dt = 1e-3
    assert _calls(trace, "quantum_dynamics.propagate_batch") == 800
    assert trace["counters"]["quantum_dynamics.strang_steps"] == 4000


def test_traced_counts_repeat_exactly(tmp_path):
    first = _traced(tmp_path, "potential-1d", "pure", "verify")
    second = _traced(tmp_path, "potential-1d", "pure", "verify")
    assert first["counters"] == second["counters"]
    assert first["errors"] == second["errors"] == {}
    assert ({k: v["calls"] for k, v in first["spans"].items()}
            == {k: v["calls"] for k, v in second["spans"].items()})


def test_effective_rank_drops_repeated_vectors():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((2, 5)) + 1j * rng.standard_normal((2, 5))
    rho = types.SimpleNamespace(lambdas=np.array([[0.5, 0.25, 0.25]]),
                                vectors=np.stack([v[0], v[1], v[0]])[None])
    assert effective_rank(rho) == 2


def _write(path, rows, header):
    path.write_text("# blochlab test\n" + header + "\n"
                    + "".join(",".join(map(str, r)) + "\n" for r in rows))


@pytest.mark.parametrize("energy, ok", [(0.1001, True), (0.10019, True), (0.1003, False)])
def test_metric_check_allows_only_the_stated_slack(tmp_path, energy, ok):
    _write(tmp_path / "out_metric.csv",
           [("coupling_energy_sq", energy), ("bound_sq", 0.1001)], "quantity,value")
    err = check_output(WORKLOADS["cell-2d"], Command("metric", "pure", "metric_pure"), 5,
                       str(tmp_path))
    assert (err is None) == ok


# No workload runs ``metric`` for this reason; when this starts to pass, the
# command can join cell-2d again.
@pytest.mark.xfail(strict=True, reason="the Husimi coupling quadrature at n_q = 12, n_p = 16 "
                   "puts the 2-D pure coupling energy about 4% above its closed-form bound")
def test_cell_metric_pure_coupling_energy_is_within_its_bound(tmp_path):
    cmd = Command("metric", "pure", "metric_pure")
    _child(tmp_path, "cell-2d", cmd.kind, cmd.subcommand, "run")
    assert check_output(WORKLOADS["cell-2d"], cmd, 0, str(tmp_path / "out")) is None


@pytest.mark.parametrize("seed", [0, 3, 17])
def test_verify_check_compares_lhs_at_every_seed(tmp_path, seed):
    workload = WORKLOADS["free-1d"]
    cmd = Command("verify", "toeplitz", "verify_toeplitz")
    ref = workload.lhs_reference["toeplitz"][seed % JITTER_VARIANTS]
    for lhs, ok in ((ref * 1.005, True), (ref * 1.02, False)):
        _write(tmp_path / "out_verify.csv", [("lhs", repr(lhs)), ("passed", 1), ("C_GC", 0.1)],
               "quantity,value")
        err = check_output(workload, cmd, seed, str(tmp_path))
        assert (err is None) == ok, err
