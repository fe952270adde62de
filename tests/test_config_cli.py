import hashlib
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.fft

import blochlab
from blochlab import bloch, gamma_bounds
from blochlab.cli import _fmt, main
from blochlab.config import load_config, parse_config
from blochlab.errors import ConfigParseError, ConfigValidationError
from blochlab.observability import verify_theorem

from oracles import cubic_lattice, default_window

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


def test_bump_without_a_node_in_k_names_n_p(tmp_path, capsys):
    # p_max = 1 + 6 sqrt(hbar) = 2.2 puts the six momentum nodes at +-0.37, +-1.1
    # and +-1.83, none in K's momenta [0.5, 1.0]
    text = (BASE.replace("hbar = 0.02", "hbar = 0.04").replace("m = 48", "m = 20")
            .replace("n_p = 14", "n_p = 6")
            .replace("(0.5,), (1.5,))]", "(0.5,), (1.0,))]"))
    cfg = write_cfg(tmp_path, text)
    for sub in ("evolve", "husimi", "metric", "stability", "verify"):
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


def test_cli_verify_and_evolve(tmp_path):
    cfg = write_cfg(tmp_path)
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out_verify.csv").read_text().splitlines()[2:])
    assert float(rows["margin"]) >= -float(rows["error_budget"])
    assert int(rows["rank_evolved"]) <= int(rows["rank"])
    assert float(rows["rank_tail"]) <= 1e-10
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "out_evolve.csv").read_text().splitlines()
    assert lines[1] == "t,observed"
    assert len(lines) == 2 + 16 + 1


@pytest.mark.parametrize("kind, kind_rows", [("toeplitz", ["hbar_threshold"]),
                                              ("pure", ["std_dev", "c_bold"])])
def test_verify_csv_is_the_report_rows(tmp_path, kind, kind_rows):
    # main writes the report's rows as they are: the same names in the same
    # order, each value through the one CSV formatter
    text = BASE.replace("kind = toeplitz", f"kind = {kind}")
    assert main(["verify", "--config", write_cfg(tmp_path, text), "--out", str(tmp_path)]) == 0
    scn = load_config(text).scenario()
    scn.disc.seed = int(hashlib.sha256(text.encode()).hexdigest()[:12], 16) % 2 ** 31
    rows = verify_theorem(scn).rows
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


def test_bloch_check_is_not_a_subcommand(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bloch-check", "--config", write_cfg(tmp_path), "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "invalid choice: 'bloch-check'" in capsys.readouterr().err


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
    # the same bytes with one and with two FFT workers
    runs = (("verify", cfg, ("out_verify.csv", "out_observation.csv")),
            ("stability", cfg, ("out_stability.csv",)),
            ("metric", cfg, ("out_metric.csv",)),
            ("metric", pure, ("out_metric.csv",)))
    for i, (sub, path, names) in enumerate(runs):
        outs = [tmp_path / f"run{i}-threads{t}" for t in (1, 2)]
        for t, out in zip((1, 2), outs):
            assert main([sub, "--config", path, "--out", str(out), "--threads", str(t)]) == 0
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_cli_threads_hold_for_one_command_only(tmp_path, monkeypatch):
    # record the FFT worker count of every transform coeffs_to_values runs
    seen = []

    class Recorder:
        def __getattr__(self, name):
            return getattr(scipy.fft, name)

        def ifftn(self, *args, workers=None, **kwargs):
            seen.append(scipy.fft.get_workers() if workers is None else workers)
            return scipy.fft.ifftn(*args, workers=workers, **kwargs)

    monkeypatch.setattr(bloch, "sfft", Recorder())
    cfg = write_cfg(tmp_path)
    assert main(["evolve", "--config", cfg, "--out", str(tmp_path), "--threads", "2"]) == 0
    assert seen and set(seen) == {2}
    seen.clear()
    bloch.coeffs_to_values(np.ones(5, dtype=complex), cubic_lattice(1))
    assert seen == [1]


def test_cli_env_overrides(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "env_out"
    monkeypatch.setenv("BLOCHLAB_CONFIG", cfg)
    monkeypatch.setenv("BLOCHLAB_OUT", str(out))
    assert main(["constants"]) == 0
    assert (out / "out_constants.csv").exists()


@pytest.mark.parametrize("variable, value", [("BLOCHLAB_THREADS", "abc"),
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


def test_cli_pure_verify(tmp_path):
    text = BASE.replace("kind = toeplitz", "kind = pure")
    cfg = write_cfg(tmp_path, text, "pure.cfg")
    assert main(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    rows = dict(line.split(",") for line in
                (tmp_path / "out_verify.csv").read_text().splitlines()[2:])
    assert rows["kind"] == "pure"
    assert float(rows["std_dev"]) > 0
    assert (rows["rank"], rows["rank_evolved"], rows["rank_tail"]) == ("1", "1", "0")


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
     "evolve", "discretization.m"),
    (BASE.replace("n_k = 8", "n_k = 1" + "0" * 300), "verify", "discretization.n_k"),
    (HEX_PURE.replace("m = 24", "m = 200000"), "verify", "discretization.m"),
], ids=["m-301-digits", "n_k-301-digits", "hexagonal-m-200000"])
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
