import importlib.util
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import blochlab
from blochlab import bloch, gamma_bounds, quantum_dynamics, transport_metric
from blochlab.cli import _COMMANDS, _fmt, main
from blochlab.config import load_config, parse_config
from blochlab.errors import ConfigParseError, ConfigValidationError
from blochlab.observability import default_p_max, initial_state, k_grid_size, verify_theorem

from oracles import cubic_lattice, default_window, k_alias_moves

BASE = """\
[lattice]
basis = [[1.0]]

[physics]
hbar = 0.02
T = 0.5
dt = 1e-3

[discretization]
m = 48
n_k = 8
n_q = 10
n_p = 14
n_time_obs = 16
n_time_gc = 200
gc_per_axis = 8
gc_quasi = 40

[scenario]
K = [((-0.5,), (0.5,), (0.5,), (1.5,))]
omega = [((-0.1,), (0.1,))]
delta = 0.05

[initial]
kind = toeplitz
center_q = (0.0,)
center_p = (1.0,)
sigma_q = 0.1
sigma_p = 0.15
"""


def test_parse_sections_and_literals():
    sections = parse_config(BASE)
    assert sections["physics"]["hbar"] == 0.02
    assert sections["scenario"]["K"][0][2] == (0.5,)
    assert sections["initial"]["kind"] == "toeplitz"


def test_parse_error_reports_line():
    with pytest.raises(ConfigParseError) as err:
        parse_config("[lattice]\nbasis [[1.0]]\n")
    assert err.value.line == 2


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigParseError):
        parse_config("[nonsense]\nx = 1\n")


def test_parse_rejects_orphan_key():
    with pytest.raises(ConfigParseError):
        parse_config("x = 1\n")


def test_missing_required_field_names_it():
    text = BASE.replace("hbar = 0.02\n", "")
    with pytest.raises(ConfigValidationError) as err:
        load_config(text)
    assert "physics.hbar" in str(err.value)


def test_validator_packet_resolution():
    text = BASE.replace("m = 48", "m = 8")
    with pytest.raises(ConfigValidationError) as err:
        load_config(text)
    assert "discretization.m" in str(err.value)


def test_validator_bad_horizon():
    text = BASE.replace("T = 0.5", "T = 0.0")
    with pytest.raises(ConfigValidationError) as err:
        load_config(text)
    assert "physics.T" in str(err.value)


def test_validator_antialiasing():
    text = BASE + "\n[potential]\nterms = [((40,), 0.1, 0.0)]\n"
    with pytest.raises(ConfigValidationError) as err:
        load_config(text)
    assert "anti-aliasing" in str(err.value)


@pytest.mark.parametrize("old, new, field", [
    ("basis = [[1.0]]", "basis = [[0.0]]", "lattice.basis"),
    ("sigma_q = 0.1", "sigma_q = 0.0", "initial.sigma_q"),
    # 2 sigma^2 overflowed in the bump's exponent and ended in a traceback
    ("sigma_p = 0.15", "sigma_p = 1.6108436293376755e+188", "initial.sigma_p"),
    ("sigma_q = 0.1", "sigma_q = 1e155", "initial.sigma_q"),
    ("T = 0.5", "T = nan", "physics.T"),
    ("center_q = (0.0,)", "center_q = (1e999,)", "initial.center_q"),
    ("n_time_gc = 200", "n_time_gc = 0", "discretization.n_time_gc"),
    ("n_p = 14", "n_p = 14\np_max = -1.0", "discretization.p_max"),
    ("center_p = (1.0,)", "center_p = (1.0, 0.0)", "initial.center_p"),
    ("K = [((-0.5,), (0.5,), (0.5,), (1.5,))]", "K = [((-0.5,), (0.5,))]", "scenario.K"),
    ("omega = [((-0.1,), (0.1,))]", "omega = 0.1", "scenario.omega"),
    ("[initial]", "[potential]\nterms = [((1, 1), 0.1, 0.0)]\n\n[initial]", "potential.terms"),
    # inverted or degenerate boxes: np.clip with lo > hi observed a ball around one point
    ("K = [((-0.5,), (0.5,),", "K = [((0.5,), (-0.5,),", "scenario.K"),
    ("(0.5,), (1.5,))]", "(1.5,), (1.5,))]", "scenario.K"),
    ("omega = [((-0.1,), (0.1,))]", "omega = [((0.1,), (-0.1,))]", "scenario.omega"),
    ("[initial]", "[output]\nprefix = nodir/x\n\n[initial]", "output.prefix"),
    ("[initial]", "[output]\nprefix = ''\n\n[initial]", "output.prefix"),
])
def test_validator_names_malformed_values(old, new, field):
    with pytest.raises(ConfigValidationError) as err:
        load_config(BASE.replace(old, new))
    assert err.value.field == field


@pytest.mark.parametrize("old, new, field", [
    ("m = 48", "m = 1e400", "discretization.m"),
    ("n_k = 8", "n_k = 1e400", "discretization.n_k"),
    ("gc_quasi = 40", "gc_quasi = 40\nl_cut = 2", "discretization.l_cut"),
    ("[initial]", "[potential]\nterms = [((1e400,), 0.1, 0.0)]\n\n[initial]", "potential.terms"),
    ("hbar = 0.02", "hbar = " + "7" * 400, "physics.hbar"),
    ("n_p = 14", "n_p = 2.9", "discretization.n_p"),
    ("[initial]", "[potential]\nterms = [((1.5,), 0.1, 0.0)]\n\n[initial]", "potential.terms"),
], ids=["m-inf", "n_k-inf", "l_cut-unknown-key", "index-inf", "hbar-400-digits", "n_p-fraction",
        "index-fraction"])
def test_numeric_values_exit_3_naming_the_key(tmp_path, capsys, old, new, field):
    # overflowing values once ended in a traceback with exit 1 (a FAIL verdict's
    # code), and fractional sizes and indices were silently truncated
    text = BASE.replace(old, new)
    assert text != BASE
    assert main(["constants", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path)]) == 3
    assert f"config validation error: {field}:" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("field", ["physics.T", "physics.dt", "physics.lambda",
                                   "discretization.p_max", "scenario.delta", "initial.sigma_q",
                                   "initial.sigma_p"])
def test_nonpositive_values_exit_3_naming_the_key(tmp_path, capsys, field, value):
    section, key = field.split(".")
    lines = [line for line in BASE.splitlines() if not line.startswith(f"{key} =")]
    at = lines.index(f"[{section}]") + 1
    text = "\n".join(lines[:at] + [f"{key} = {value}"] + lines[at:]) + "\n"
    assert main(["constants", "--config", write_cfg(tmp_path, text), "--out",
                 str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"config validation error: {field}:" in err and "must be positive" in err


def test_integral_floats_are_accepted_as_sizes():
    cfg = load_config(BASE.replace("m = 48", "m = 48.0").replace("[initial]",
                      "[potential]\nterms = [((1.0,), 0.1, 0.0)]\n\n[initial]"))
    assert cfg.scenario().disc.m == 48 and type(cfg.scenario().disc.m) is int
    assert cfg.scenario().potential.terms[0][0] == (1,)


def test_load_config_roundtrip_objects():
    cfg = load_config(BASE)
    scn = cfg.scenario()
    assert scn.hbar == 0.02
    assert scn.k_set.n_boxes == 1
    assert scn.omega.boxes.shape == (1, 2, 1)
    assert scn.potential.is_zero
    assert scn.disc.dt == 1e-3 and cfg.prefix == "out"


def write_cfg(tmp_path, text=BASE, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_exit_codes(tmp_path, capsys):
    # parse error -> 2
    bad = write_cfg(tmp_path, "[lattice]\nbasis [[1.0]]\n", "bad.cfg")
    assert main(["constants", "--config", bad, "--out", str(tmp_path)]) == 2
    # bytes that are not UTF-8 -> 2
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"[lattice]\nbasis = [[1.0]]  # \xff\n")
    assert main(["constants", "--config", str(binary), "--out", str(tmp_path)]) == 2
    # validation error -> 3 naming the field
    missing = write_cfg(tmp_path, BASE.replace("hbar = 0.02\n", ""), "missing.cfg")
    assert main(["constants", "--config", missing, "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "physics.hbar" in err
    # T = 0 -> 3
    zt = write_cfg(tmp_path, BASE.replace("T = 0.5", "T = 0"), "zt.cfg")
    assert main(["constants", "--config", zt, "--out", str(tmp_path)]) == 3
    # a value that cannot be read as its type -> 3 naming the field
    bad_m = write_cfg(tmp_path, BASE.replace("m = 48", "m = 3x4"), "bad_m.cfg")
    assert main(["constants", "--config", bad_m, "--out", str(tmp_path)]) == 3
    assert "discretization.m" in capsys.readouterr().err
    # a misspelled key -> 3 naming it
    typo = write_cfg(tmp_path, BASE.replace("n_time_obs = 16", "n_time_ob = 7"), "typo.cfg")
    assert main(["constants", "--config", typo, "--out", str(tmp_path)]) == 3
    assert "discretization.n_time_ob" in capsys.readouterr().err
    # overlapping boxes of K -> 3 naming it; boxes that only touch are accepted
    k = "K = [((-0.5,), (0.5,), (0.5,), (1.5,))]"
    for other, code in (("((0.0,), (0.5,), (1.0,), (2.0,))", 3),
                        ("((-0.5,), (0.5,), (1.5,), (2.0,))", 0)):
        two = write_cfg(tmp_path, BASE.replace(k, k[:-1] + ", " + other + "]"), "two.cfg")
        assert main(["constants", "--config", two, "--out", str(tmp_path)]) == code
        assert ("scenario.K" in capsys.readouterr().err) == (code == 3)


def test_python_dash_m_runs_the_cli(tmp_path):
    typo = write_cfg(tmp_path, BASE.replace("n_time_obs = 16", "n_time_ob = 7"), "typo.cfg")
    src = os.path.dirname(os.path.dirname(blochlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-m", "blochlab", "constants", "--config", typo,
                           "--out", str(tmp_path)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 3
    assert "discretization.n_time_ob" in done.stderr


def _constants_in_subprocess(cfg, out, timeout):
    src = os.path.dirname(os.path.dirname(blochlab.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "blochlab", "constants", "--config", cfg,
                           "--out", str(out)], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=timeout)


def test_huge_n_time_gc_ends_on_the_exact_route(tmp_path):
    # in 1-D with no start of K that can turn, and at V = 0 in any dimension, the
    # control constant is bracketed without a time grid, so n_time_gc = 1e30, a
    # loop the sampler would never finish, costs nothing
    huge = "n_k = 2\nn_time_gc = 1e30\n"
    for name, text in (("line", BASE.replace("n_time_gc = 200", "n_time_gc = 1e30")),
                       ("hexagonal", HEX_PURE.replace("n_k = 2\n", huge))):
        done = _constants_in_subprocess(write_cfg(tmp_path, text, f"{name}.cfg"), tmp_path, 30)
        assert done.returncode == 0, done.stderr
        assert "C_GC_lo = " in done.stdout


def test_constants_at_the_2d_sampler_defaults_ends_in_seconds(tmp_path):
    # a 2-D config at V = 0 with the flow route's keys at their defaults, which
    # the free route does not read
    done = _constants_in_subprocess(write_cfg(tmp_path, HEX_PURE, "hex.cfg"), tmp_path, 10)
    assert done.returncode == 0, done.stderr
    assert "C_GC_lo = " in done.stdout and "GC_satisfied = 1" in done.stdout


def test_constants_on_the_flow_route_at_the_defaults_ends_in_seconds(tmp_path):
    # a 2-D config under a cosine takes the flow route.  At a default
    # gc_per_axis of 32 in every dimension its first level was 32^4 centres of
    # 2000 steps, minutes of work; the default now keeps about 32^2 centres in
    # every dimension: 32 in 1-D, 6 in 2-D, 3 in 3-D
    done = _constants_in_subprocess(write_cfg(tmp_path, HEX_COSINE, "hex.cfg"), tmp_path, 60)
    assert done.returncode == 0, done.stderr
    assert "C_GC_lo = 0\n" in done.stdout and "GC_satisfied = 0" in done.stdout
    cube = HEX_COSINE
    for old, new in (("[1.0, 0.0], [0.5, 0.8660254037844386]", "[1, 0, 0], [0, 1, 0], [0, 0, 1]"),
                     ("(1, 0), 0.1", "(1, 0, 0), 0.1"),
                     ("(-0.3, -0.3), (0.3, 0.3), (0.0, 1.0), (0.5, 2.0)",
                      "(0, 0, 0), (0.3, 0.3, 0.3), (0, 0, 1), (0.5, 0.5, 2)"),
                     ("(-0.5, -0.1), (0.5, 0.1)", "(-0.5, -0.5, -0.1), (0.5, 0.5, 0.1)"),
                     ("(0.0, 0.0)\ncenter_p = (0.25, 1.5)", "(0, 0, 0)\ncenter_p = (0, 0, 1.5)")):
        cube = cube.replace(old, new)
    defaults = [load_config(text).scenario().disc.gc_per_axis
                for text in (BASE.replace("gc_per_axis = 8\n", ""), HEX_COSINE, cube)]
    assert defaults == [32, 6, 3]


def test_flow_route_outputs_depend_on_the_config_values_only(tmp_path):
    # nothing is random: a comment line or another output prefix moves no
    # constants row and no verify value on the flow route (each CSV's first
    # line, its provenance comment, names the config's hash)
    text = HEX_COSINE.replace("n_k = 2\n", "n_k = 2\nn_time_obs = 8\nn_time_gc = 200\n"
                                           "gc_per_axis = 3\ngc_quasi = 200\n")
    variants = {"plain": (text, "out"), "comment": ("# another comment\n" + text, "out"),
                "prefix": (text + "\n[output]\nprefix = other\n", "other")}
    seen = {}
    for name, (variant, prefix) in variants.items():
        cfg, out = write_cfg(tmp_path, variant, f"{name}.cfg"), tmp_path / name
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
        main(["verify", "--config", cfg, "--out", str(out)])
        seen[name] = [(out / f"{prefix}_{table}.csv").read_text().splitlines()[1:]
                      for table in ("constants", "verify", "observation")]
    assert seen["comment"] == seen["plain"] == seen["prefix"]
    assert {"C_GC_lo,0", "GC_satisfied,0"} <= set(seen["plain"][0])


def test_omega_box_beyond_the_neighbouring_cells_is_rejected(tmp_path, capsys):
    # [1.6, 1.8) lies past the cells next to the unit line, where the region's
    # membership and distance never look: its mask was empty and lhs silently 0;
    # the same set moved by a lattice vector loads
    text = BASE.replace("omega = [((-0.1,), (0.1,))]", "omega = [((1.6,), (1.8,))]")
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "scenario.omega" in err and "Traceback" not in err
    moved = BASE.replace("omega = [((-0.1,), (0.1,))]", "omega = [((-0.4,), (-0.2,))]")
    omega = load_config(moved).scenario().omega
    assert omega.contains(np.array([[-0.3], [0.7], [1.7]])).all()


def test_constants_on_a_2d_config_without_omega(tmp_path, capsys):
    # omega defaults to no box; the free route brackets the constant at 0
    text = HEX_PURE.replace("omega = [((-0.5, -0.1), (0.5, 0.1))]\n", "")
    assert main(["constants", "--config", write_cfg(tmp_path, text, "hex.cfg"),
                 "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "C_GC = 0\n" in out and "C_GC_lo = 0\n" in out and "GC_satisfied = 0" in out


def test_benchmark_verify_is_bitwise_the_same_on_one_two_and_three_threads(tmp_path,
                                                                         monkeypatch):
    # the seed-0 benchmark configs, whose control constant is bracketed in 1-D
    # and, at V = 0, in 2-D; and their stability envelopes, whose support-boxed
    # transforms split the fibers over the threads
    workloads = _benchmark_workloads(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        for command, kind in (("verify", "toeplitz"), ("verify", "pure"),
                              ("stability", "toeplitz")):
            cfg = write_cfg(tmp_path, workloads.config_text(workload, 0, kind), f"{name}.cfg")
            outs = [tmp_path / f"{name}-{command}-{kind}-threads{t}" for t in (1, 2, 3)]
            for t, out in zip((1, 2, 3), outs):
                assert main([command, "--config", cfg, "--out", str(out),
                             "--threads", str(t)]) == 0
            first = (outs[0] / f"out_{command}.csv").read_bytes()
            assert (b"\nC_GC_lo," if command == "verify" else b"\nt,energy,bound\n") in first
            assert all((out / f"out_{command}.csv").read_bytes() == first for out in outs[1:])


GUARD = """\
import sys
import blochlab.cli
from blochlab.config import load_config

cfg, out = sys.argv[1:]
with open(cfg) as fh:
    load_config(fh.read()).scenario()
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
loaded = set(sys.modules)
code = blochlab.cli.main(["verify", "--config", cfg, "--out", out])
print(code, sorted(set(sys.modules) - loaded))
"""


RANDOM_GUARD = """\
import sys
import blochlab.cli

cfg, out = sys.argv[1:]
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
for command in ("verify", "constants"):
    blochlab.cli.main([command, "--config", cfg, "--out", out])
print(sorted(m for m in sys.modules if m.startswith("numpy.random")))
"""


def test_no_command_loads_numpy_random(tmp_path):
    # nothing in the package is random, so numpy.random (about 2 MB of peak
    # RSS) is loaded neither by the import nor by the flow route's commands
    src = os.path.dirname(os.path.dirname(blochlab.__file__))
    text = HEX_COSINE.replace("n_k = 2\n", "n_k = 2\nn_time_obs = 8\nn_time_gc = 20\n"
                                           "gc_per_axis = 2\ngc_quasi = 8\n")
    done = subprocess.run([sys.executable, "-c", RANDOM_GUARD, write_cfg(tmp_path, text),
                           str(tmp_path)], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "C_GC_lo = 0" in lines and lines[0] == lines[-1] == "[]"


def test_set_up_loads_every_module_and_no_scipy(tmp_path):
    # the import and config -> scenario load every module a command uses, so
    # none is loaded inside a timed command; scipy is a test dependency only
    src = os.path.dirname(os.path.dirname(blochlab.__file__))
    done = subprocess.run([sys.executable, "-c", GUARD, write_cfg(tmp_path), str(tmp_path)],
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "[]"
    assert lines[-1] == "0 []"


def test_cli_output_path_errors(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    # an --out naming a file is a usage error, not a traceback
    not_a_dir = tmp_path / "file"
    not_a_dir.write_text("")
    assert main(["constants", "--config", cfg, "--out", str(not_a_dir)]) == 2
    assert "output directory" in capsys.readouterr().err
    # a prefix pointing into a directory that does not exist is a validation error
    nested = write_cfg(tmp_path, BASE + "\n[output]\nprefix = nodir/x\n", "nested.cfg")
    assert main(["constants", "--config", nested, "--out", str(tmp_path)]) == 3
    assert "output.prefix" in capsys.readouterr().err


def test_cli_unwritable_csv_is_a_usage_error(tmp_path, capsys):
    # a CSV that cannot be written is a usage error naming its path, not a traceback
    cfg = write_cfg(tmp_path)
    csv = tmp_path / "out" / "out_constants.csv"
    csv.mkdir(parents=True)
    assert main(["constants", "--config", cfg, "--out", str(csv.parent)]) == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {csv}: " in err
    assert "Traceback" not in err


def _benchmark_workloads(monkeypatch):
    """The benchmark's ``workloads`` module, loaded from its file."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look the defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    return workloads


def test_benchmark_configs_are_valid(monkeypatch):
    # the benchmark's generated configs, every workload, kind and seed variant,
    # load into a scenario; a key they set that the loader rejects fails here
    workloads = _benchmark_workloads(monkeypatch)
    assert workloads.WORKLOADS
    for workload in workloads.WORKLOADS.values():
        for kind in ("toeplitz", "pure"):
            for seed in range(workloads.JITTER_VARIANTS):
                scn = load_config(workloads.config_text(workload, seed, kind)).scenario()
                assert scn.initial_kind == kind


def test_benchmark_verify_observes_through_the_form_at_v0(monkeypatch):
    # the seed-0 benchmark configs: packets end at the unit roundoff of their
    # peak, so at V = 0 both kinds observe through the band form (W = 191 and 87
    # on free-1d, 215 and 186 on cell-2d); potential-1d pure keeps the Strang
    # loop for the observation and the evolution
    workloads = _benchmark_workloads(monkeypatch)
    rule = quantum_dynamics._band_path
    expected = {("free-1d", "toeplitz"): [True], ("free-1d", "pure"): [True],
                ("cell-2d", "toeplitz"): [True], ("cell-2d", "pure"): [True],
                ("potential-1d", "pure"): [False, False]}
    for (name, kind), want in expected.items():
        chosen = []

        def recorded(*args):
            chosen.append(rule(*args))
            return chosen[-1]

        monkeypatch.setattr(quantum_dynamics, "_band_path", recorded)
        text = workloads.config_text(workloads.WORKLOADS[name], 0, kind)
        verify_theorem(load_config(text).scenario())
        assert chosen == want, (name, kind)


def test_benchmark_commands_pass_the_harness_output_check(tmp_path, monkeypatch):
    # the seed-0 configs of every workload, each command as the harness runs it,
    # judged by the harness's own check; its stability check unpacks exactly
    # three columns, so the k-grid report of ``stability`` stays on stdout
    workloads = _benchmark_workloads(monkeypatch)
    for name, workload in workloads.WORKLOADS.items():
        for command in workload.commands:
            out = tmp_path / f"{name}-{command.metric}"
            cfg = write_cfg(tmp_path, workloads.config_text(workload, 0, command.kind),
                            f"{name}-{command.kind}.cfg")
            assert main([command.subcommand, "--config", cfg, "--out", str(out)]) == 0
            assert workloads.check_output(workload, command, 0, str(out)) is None, (name, command)
            if command.subcommand == "stability":
                lines = (out / "out_stability.csv").read_text().splitlines()
                assert lines[1] == "t,energy,bound"
                assert {len(line.split(",")) for line in lines[2:]} == {3}


def test_benchmark_k_grids(monkeypatch):
    # free-1d (V = 0, hbar = 1e-3) runs 2 of its 8 fibers for both kinds; cell-2d
    # already has the smallest grid, 2 x 2; potential-1d (V != 0) keeps its 4
    workloads = _benchmark_workloads(monkeypatch)
    for name, used, fibers in (("free-1d", 2, 2), ("cell-2d", 2, 4), ("potential-1d", 4, 4)):
        for kind in ("toeplitz", "pure"):
            scn = load_config(workloads.config_text(workloads.WORKLOADS[name], 0, kind)).scenario()
            assert k_grid_size(scn)[0] == used <= scn.disc.n_k
            assert initial_state(scn)[1].kgrid.size == fibers
            bound = k_grid_size(scn)[1]
            assert np.isnan(bound) if name == "potential-1d" else bound >= 0.0


def test_free_benchmark_k_alias_bound_covers_the_doubled_grid(monkeypatch):
    # free-1d at the 2 fibers it runs against 4: lhs, mass_on_K, std_dev and the
    # stability energies move by rounding only, within the bound and 1e-12 of the value
    workloads = _benchmark_workloads(monkeypatch)
    for kind in ("toeplitz", "pure"):
        text = workloads.config_text(workloads.WORKLOADS["free-1d"], 0, kind)
        bound, moves, allowance = k_alias_moves(load_config(text).scenario())
        assert bound < 1e-50
        assert all(moves[k] <= bound + allowance[k] for k in moves), (kind, moves)


def test_bump_without_a_node_in_k_names_n_p(tmp_path, capsys):
    # p_max = 1 + 6 sqrt(hbar) = 2.2 puts the six momentum nodes at +-0.37, +-1.1
    # and +-1.83, none in K's momenta [0.5, 1.0]
    text = (BASE.replace("hbar = 0.02", "hbar = 0.04").replace("m = 48", "m = 20")
            .replace("n_p = 14", "n_p = 6")
            .replace("(0.5,), (1.5,))]", "(0.5,), (1.0,))]"))
    cfg = write_cfg(tmp_path, text)
    for sub in ("husimi", "metric", "stability", "verify"):
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 3
        assert "discretization.n_p" in capsys.readouterr().err


def test_default_window_follows_the_cell():
    # this cell is 0.5 wide (gamma_minus 0.25): the shell at l = 1 touches a packet
    # at the cell's edge, the one at l = 2 is 0.5 away, past sqrt(2 hbar ln 1e10) = 0.37
    lat = cubic_lattice(1, 0.5)
    assert default_window(lat, 0.003, gamma_bounds(lat).gamma_minus) == 2
    # at hbar = 0.01 the reach is 0.68: the window needs l = 3 on this cell, 2 on the unit cell
    assert default_window(lat, 0.01, 0.25) == 3
    assert default_window(cubic_lattice(1), 0.01, 0.5) == 2


def test_cli_constants_and_metric(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
    text = (tmp_path / "out_constants.csv").read_text().splitlines()
    assert text[0].startswith("# blochlab")
    assert text[1] == "constant,value"
    names = [line.split(",")[0] for line in text[2:]]
    assert {"C_GC", "C_toeplitz", "C_pure", "hbar_threshold"} <= set(names)
    assert main(["metric", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out_metric.csv").read_text().splitlines()[2:])
    assert float(rows["coupling_energy_sq"]) <= float(rows["bound_sq"]) * (1 + 1e-6)


def test_cli_verify_writes_report_and_observation(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out_verify.csv").read_text().splitlines()[2:])
    assert float(rows["margin"]) >= -float(rows["error_budget"])
    assert int(rows["rank_evolved"]) <= int(rows["rank"])
    assert float(rows["rank_tail"]) <= 1e-10
    assert float(rows["initial_periodic_trace"]) == pytest.approx(1.0, rel=1e-12)
    lines = (tmp_path / "out_observation.csv").read_text().splitlines()
    assert lines[1] == "t,observed"
    assert len(lines) == 2 + 16 + 1


@pytest.mark.parametrize("kind, kind_rows", [("toeplitz", ["hbar_threshold"]),
                                              ("pure", ["std_dev", "c_bold"])])
def test_verify_csv_is_the_report_rows(tmp_path, kind, kind_rows):
    # main writes the report's rows as they are: the same names in the same
    # order, each value through the one CSV formatter
    text = BASE.replace("kind = toeplitz", f"kind = {kind}")
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
    rows = verify_theorem(load_config(text).scenario()).rows
    lines = (tmp_path / "out_verify.csv").read_text().splitlines()
    assert lines[1] == "quantity,value"
    assert lines[2:] == [f"{name},{_fmt(value)}" for name, value in rows.items()]
    assert list(rows)[-len(kind_rows):] == kind_rows


def test_cli_stability_and_husimi(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["stability", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_stability.csv").read_text().splitlines()
    data = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
    assert np.all(data[:, 1] <= data[:, 2] * (1 + 1e-3))
    assert main(["husimi", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_husimi.csv").read_text().splitlines()
    assert lines[1] == "q0,p0,value"
    vals = np.array([float(line.split(",")[2]) for line in lines[2:]])
    assert np.all(vals >= -1e-12)


def _husimi_lines(tmp_path, capsys, text):
    """The stdout lines of ``husimi`` on a config, and its grid mass from the CSV."""
    cfg = write_cfg(tmp_path, text, "husimi.cfg")
    assert main(["husimi", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_husimi.csv").read_text().splitlines()
    assert lines[1] == "q0,p0,value"
    sections = parse_config(text)["discretization"]
    n_q, n_p = sections["n_q"], sections["n_p"]
    assert len(lines) == 2 + n_q * n_p
    values = np.array([float(line.split(",")[2]) for line in lines[2:]])
    # node weight: the unit cell over n_q times the momentum step 2 p_max / n_p
    p_max = default_p_max(load_config(text).scenario())
    return capsys.readouterr().out.splitlines(), values.sum() * (1.0 / n_q) * (2 * p_max / n_p)


def test_cli_husimi_warns_when_the_grid_mass_is_off_the_exact_mass(tmp_path, capsys):
    # n_q = 10, n_p = 14 under-resolve the Husimi function of width sqrt(hbar) = 0.14
    lines, grid_mass = _husimi_lines(tmp_path, capsys, BASE)
    first = lines[0].split()
    assert first[:3] == ["husimi", "mass", "="] and first[4] == "(grid),"
    assert float(first[3]) == pytest.approx(grid_mass, rel=1e-11)
    assert abs(grid_mass - 1.0) > 1e-2
    assert lines[0].endswith(", 1 (exact: periodic trace)")
    assert lines[1].startswith("warning: the grid mass is ")
    assert "discretization.n_q" in lines[1] and "discretization.n_p" in lines[1]
    assert lines[2].startswith("n_k_used = ")


def test_cli_husimi_resolved_grid_mass_is_the_exact_mass(tmp_path, capsys):
    text = BASE.replace("n_q = 10", "n_q = 20").replace("n_p = 14", "n_p = 40")
    lines, grid_mass = _husimi_lines(tmp_path, capsys, text)
    assert grid_mass == pytest.approx(1.0, rel=1e-3)
    assert lines[0].endswith(", 1 (exact: periodic trace)")
    assert not any(line.startswith("warning") for line in lines)
    assert lines[1].startswith("n_k_used = ")


@pytest.mark.parametrize("sub", ["bloch-check", "evolve"])
def test_bloch_check_is_not_a_subcommand(tmp_path, capsys, sub):
    # removed subcommands: the Bloch checks are tests against an oracle, and
    # verify writes evolve's series as _observation.csv
    with pytest.raises(SystemExit) as exc:
        main([sub, "--config", write_cfg(tmp_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert f"invalid choice: '{sub}'" in capsys.readouterr().err


def test_readme_subcommand_table_lists_every_subcommand():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        lines = fh.read().splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith("| subcommand"))
    listed = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        listed.append(line.split("|")[1].strip().strip("`"))
    assert sorted(listed) == sorted(_COMMANDS)


def test_cli_determinism_bitwise(tmp_path):
    cfg = write_cfg(tmp_path)
    pure = write_cfg(tmp_path, BASE.replace("kind = toeplitz", "kind = pure"), "pure.cfg")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    for out in (out1, out2):
        assert main(["verify", "--config", cfg, "--out", str(out), "--threads", "1"]) == 0
        assert main(["constants", "--config", cfg, "--out", str(out)]) == 0
    for name in ("out_verify.csv", "out_observation.csv", "out_constants.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # the same bytes with one, two and three FFT threads; on the hexagonal cell
    # three threads split its 2 x 2 fibers unevenly (1 + 1 + 2), in the 2-D
    # head-pruned transforms of the pure datum at V = 0 and in the Strang
    # steps of a quantized bump under a potential
    hex_pure = HEX_PURE.replace("n_k = 2\n", "n_k = 2\nn_time_obs = 8\nn_time_gc = 20\n"
                                              "gc_per_axis = 3\ngc_quasi = 8\n")
    hex_toeplitz = hex_pure.replace("kind = pure", "kind = toeplitz") \
        .replace("m = 24", "m = 8").replace("hbar = 0.03", "hbar = 0.25") \
        .replace("T = 0.8", "T = 0.2\ndt = 0.01") \
        .replace("[physics]", "[potential]\nterms = [((1, 0), 0.1, 0.0)]\n\n[physics]")
    hex_pure = write_cfg(tmp_path, hex_pure, "hex_pure.cfg")
    hex_toeplitz = write_cfg(tmp_path, hex_toeplitz, "hex_toeplitz.cfg")
    runs = (("verify", cfg, ("out_verify.csv", "out_observation.csv")),
            ("stability", cfg, ("out_stability.csv",)),
            ("metric", cfg, ("out_metric.csv",)),
            ("metric", pure, ("out_metric.csv",)),
            ("verify", hex_pure, ("out_verify.csv", "out_observation.csv")),
            ("metric", hex_pure, ("out_metric.csv",)),
            ("verify", hex_toeplitz, ("out_verify.csv", "out_observation.csv")),
            ("stability", hex_toeplitz, ("out_stability.csv",)))
    for i, (sub, path, names) in enumerate(runs):
        outs = [tmp_path / f"run{i}-threads{t}" for t in (1, 2, 3)]
        for t, out in zip((1, 2, 3), outs):
            assert main([sub, "--config", path, "--out", str(out), "--threads", str(t)]) == 0
        for name in names:
            first = (outs[0] / name).read_bytes()
            assert all((out / name).read_bytes() == first for out in outs[1:])


def test_cli_free_observation_form_is_bitwise_deterministic(tmp_path, monkeypatch):
    # with 40 samples the V = 0 toeplitz config observes by one form per fiber;
    # its bytes do not depend on the FFT worker count either
    chosen = []
    rule = quantum_dynamics._band_path

    def recorded(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(quantum_dynamics, "_band_path", recorded)
    cfg = write_cfg(tmp_path, BASE.replace("n_time_obs = 16", "n_time_obs = 40"), "form.cfg")
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        assert main(["verify", "--config", cfg, "--out", str(out), "--threads", str(t)]) == 0
    assert chosen == [True, True]
    for name in ("out_verify.csv", "out_observation.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_free_commands_make_no_split_step(tmp_path, monkeypatch):
    # at V = 0 the plane waves are the band basis: verify of either kind, on
    # the masked-trace loop (16 samples) and on the form (40 samples), and
    # stability move every fiber by phases and never call the Strang step
    calls = []
    step = quantum_dynamics.propagate_batch

    def counted(*args):
        calls.append(args[0].shape)
        return step(*args)

    monkeypatch.setattr(quantum_dynamics, "propagate_batch", counted)
    for kind, samples, subs in (("toeplitz", 16, ("verify", "stability")),
                                ("toeplitz", 40, ("verify",)), ("pure", 16, ("verify",))):
        text = BASE.replace("kind = toeplitz", f"kind = {kind}") \
            .replace("n_time_obs = 16", f"n_time_obs = {samples}")
        cfg = write_cfg(tmp_path, text, f"{kind}{samples}.cfg")
        for sub in subs:
            assert main([sub, "--config", cfg, "--out", str(tmp_path / f"{kind}{samples}")]) == 0
    assert calls == []


def test_cli_potential_band_path_is_exact_and_bitwise_deterministic(tmp_path, monkeypatch):
    # with a cosine potential the quantized bump takes the band path in verify
    # (the form in each fiber's eigenbasis) and in stability (the vectors
    # moved in each fiber's eigenbasis): the trace drift is at rounding level,
    # and the bytes do not depend on the FFT worker count
    chosen = []
    rule = quantum_dynamics._band_path

    def recorded(*args):
        chosen.append(rule(*args))
        return chosen[-1]

    monkeypatch.setattr(quantum_dynamics, "_band_path", recorded)
    text = BASE.replace("[physics]", "[potential]\nterms = [((1,), 0.1, 0.0)]\n\n[physics]")
    cfg = write_cfg(tmp_path, text, "potential.cfg")
    outs = [tmp_path / f"threads{t}" for t in (1, 2)]
    for t, out in zip((1, 2), outs):
        for sub in ("verify", "stability"):
            assert main([sub, "--config", cfg, "--out", str(out), "--threads", str(t)]) == 0
    assert chosen == [True] * 4
    rows = dict(line.split(",") for line in
                (outs[0] / "out_verify.csv").read_text().splitlines()[2:])
    assert float(rows["trace_drift"]) <= 1e-13
    for name in ("out_verify.csv", "out_observation.csv", "out_stability.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_threads_hold_for_one_command_only(tmp_path, monkeypatch):
    # record the thread count of every transform and the threads its parts ran on
    counts, idents = [], set()
    fft, lines = bloch._fft, bloch._fft_lines

    def counted(*args, **kwargs):
        counts.append(bloch._threads)
        return fft(*args, **kwargs)

    def traced(*args):
        idents.add(threading.get_ident())
        return lines(*args)

    monkeypatch.setattr(bloch, "_fft", counted)
    monkeypatch.setattr(bloch, "_fft_lines", traced)
    cfg = write_cfg(tmp_path, BASE.replace("kind = toeplitz", "kind = pure"))
    assert main(["verify", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0
    assert counts and set(counts) == {2}
    assert len(idents) == 2 and threading.get_ident() in idents
    counts.clear()
    idents.clear()
    bloch._fft(np.ones((8, 5), dtype=complex), 1)
    assert counts == [1] and idents == {threading.get_ident()}
    assert bloch._pool is None


def test_cli_env_overrides(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "env_out"
    monkeypatch.setenv("BLOCHLAB_CONFIG", cfg)
    monkeypatch.setenv("BLOCHLAB_OUT", str(out))
    assert main(["constants"]) == 0
    assert (out / "out_constants.csv").exists()


@pytest.mark.parametrize("variable, value", [("BLOCHLAB_THREADS", "abc"),
                                             ("BLOCHLAB_THREADS", "0"),
                                             ("BLOCHLAB_THREADS", "-1"),
                                             ("BLOCHLAB_TOLERANCE_SCALE", "x")])
def test_cli_malformed_environment_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                    variable, value):
    monkeypatch.setenv(variable, value)
    with pytest.raises(SystemExit) as exc:
        main(["constants", "--config", write_cfg(tmp_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert repr(value) in capsys.readouterr().err


@pytest.mark.parametrize("scale", ["nan", "inf", "-0.5"])
def test_cli_rejects_non_finite_or_negative_tolerance_scale(tmp_path, capsys, scale):
    # a NaN scale turned a margin of +5 into FAIL, and a negative one gave a negative budget
    cfg = write_cfg(tmp_path, BASE.replace("kind = toeplitz", "kind = pure"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--out", str(tmp_path), "--tolerance-scale", scale])
    assert exc.value.code == 2
    assert "--tolerance-scale" in capsys.readouterr().err
    assert not (tmp_path / "out_verify.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_cli_rejects_a_thread_count_below_one(tmp_path, capsys, threads):
    # a count below 1 used to run quietly on one thread
    cfg = write_cfg(tmp_path, BASE.replace("kind = toeplitz", "kind = pure"))
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--config", cfg, "--out", str(tmp_path), "--threads", threads])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not (tmp_path / "out_verify.csv").exists()


def test_cli_pure_verify(tmp_path):
    text = BASE.replace("kind = toeplitz", "kind = pure")
    cfg = write_cfg(tmp_path, text, "pure.cfg")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out_verify.csv").read_text().splitlines()[2:])
    assert rows["kind"] == "pure"
    assert float(rows["std_dev"]) > 0
    assert (rows["rank"], rows["rank_evolved"], rows["rank_tail"]) == ("1", "1", "0")


@pytest.mark.parametrize("sub", ["metric", "verify"])
def test_pure_coupling_quantities_take_one_pass(tmp_path, monkeypatch, sub):
    # Delta, c_bold and the Husimi coupling energy are read off one copy of the
    # weighted vectors and one transform of their densities
    calls = dict.fromkeys(("_weighted_vectors", "_density_coeffs"), 0)
    for name in calls:
        def counted(rho, _fn=getattr(transport_metric, name), _name=name):
            calls[_name] += 1
            return _fn(rho)
        monkeypatch.setattr(transport_metric, name, counted)
    cfg = write_cfg(tmp_path, BASE.replace("kind = toeplitz", "kind = pure"))
    assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 0
    assert calls == {"_weighted_vectors": 1, "_density_coeffs": 1}


HEX_PURE = """\
[lattice]
basis = [[1.0, 0.0], [0.5, 0.8660254037844386]]

[physics]
hbar = 0.03
T = 0.8

[discretization]
m = 24
n_k = 2

[scenario]
K = [((-0.3, -0.3), (0.3, 0.3), (0.0, 1.0), (0.5, 2.0))]
omega = [((-0.5, -0.1), (0.5, 0.1))]
delta = 0.05

[initial]
kind = pure
center_q = (0.0, 0.0)
center_p = (0.25, 1.5)
"""


# HEX_PURE under a cosine: V != 0 in 2-D takes the flow route of the control constant
HEX_COSINE = HEX_PURE.replace("[physics]", "[potential]\nterms = [((1, 0), 0.1, 0.0)]\n\n[physics]")


def test_cli_metric_pure_hexagonal_energy_within_bound(tmp_path):
    # the pure coupling energy is exact, so it meets its closed-form bound, and
    # no phase-space grid size enters it
    rows = []
    for i, grid in enumerate(("", "n_q = 12\nn_p = 16\np_max = 3.0\n")):
        cfg = write_cfg(tmp_path, HEX_PURE.replace("n_k = 2\n", "n_k = 2\n" + grid), f"{i}.cfg")
        assert main(["metric", "--config", cfg, "--out", str(tmp_path / str(i))]) == 0
        rows.append((tmp_path / str(i) / "out_metric.csv").read_text().splitlines()[1:])
    assert rows[0] == rows[1]
    values = dict(line.split(",") for line in rows[0][1:])
    assert float(values["coupling_energy_sq"]) <= float(values["bound_sq"])


@pytest.mark.parametrize("text, sub, field", [
    (BASE.replace("kind = toeplitz", "kind = pure").replace("m = 48", "m = 1" + "0" * 300),
     "verify", "discretization.m"),
    (BASE.replace("n_k = 8", "n_k = 1" + "0" * 300), "verify", "discretization.n_k"),
    (HEX_PURE.replace("m = 24", "m = 200000"), "verify", "discretization.m"),
    # found by test_config_fuzz: an integral float n_q escaped main as a numpy ValueError
    (BASE.replace("n_q = 10", "n_q = 1.6108436293376755e+188"), "husimi", "discretization.n_q"),
    (HEX_PURE.replace("n_k = 2\n", "n_k = 2\nn_p = 100000\n"), "metric", "discretization.n_p"),
    (BASE.replace("gc_per_axis = 8", "gc_per_axis = 10000000"), "constants",
     "discretization.gc_per_axis"),
    (BASE.replace("gc_quasi = 40", "gc_quasi = 1e30"), "verify", "discretization.gc_quasi"),
    (BASE.replace("n_time_obs = 16", "n_time_obs = 1e30"), "verify", "discretization.n_time_obs"),
], ids=["m-301-digits", "n_k-301-digits", "hexagonal-m-200000", "n_q-1.6e188",
        "hexagonal-n_p-100000", "gc_per_axis-1e7", "gc_quasi-1e30", "n_time_obs-1e30"])
def test_sizes_beyond_physical_memory_exit_3_before_allocating(tmp_path, capsys, text, sub,
                                                               field):
    # load_config rejects these before any array of their size is built
    cfg = write_cfg(tmp_path, text)
    tracemalloc.start()
    try:
        assert main([sub, "--config", cfg, "--out", str(tmp_path)]) == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 24
    err = capsys.readouterr().err
    assert f"config validation error: {field}:" in err
    assert "physical memory" in err
