"""Property tests: ``load_config`` ends any text in a config error, never in another
exception, and ``cli.main`` ends any text in a documented exit code.

Texts start from a valid 1-D or 2-D config and override a few keys of the
known sections with arbitrary literals: huge integers, floats that overflow
to inf, nan, strings, bare words and nested tuples and lists, both shaped
like the key's value (a basis, boxes, potential terms) and freely nested.
"""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, Phase, example, given, settings, strategies as st

from blochlab.cli import _COMMANDS, main
from blochlab.config import _KEYS, load_config
from blochlab.errors import ConfigParseError, ConfigValidationError

from test_config_cli import BASE, HEX_PURE

_ATOMS = st.one_of(
    st.integers(min_value=-10, max_value=100).map(str),
    st.integers(min_value=-10 ** 400, max_value=10 ** 400).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1e400", "-1e400", "nan", "inf", "0.0", "2.9", "1e-300", "True",
                     "None", "'abc'", "''", "pure", "toeplitz", "a/b", "{1: 2}", "()", "[]"]),
)


def _tuple(items):
    return "(" + "".join(f"{x}, " for x in items) + ")"


def _list(items):
    return "[" + ", ".join(items) + "]"


_NESTED = st.recursive(_ATOMS, lambda inner: st.one_of(
    st.lists(inner, max_size=4).map(_tuple), st.lists(inner, max_size=4).map(_list)),
    max_leaves=12)


def _vector(d):
    return st.lists(_ATOMS, min_size=d, max_size=d).map(_tuple)


def _shaped(d):
    """Literals with the shape of a basis, boxes or potential terms of dimension d."""
    return st.one_of(
        st.lists(st.lists(_ATOMS, min_size=d, max_size=d).map(_list),
                 min_size=d, max_size=d).map(_list),
        st.lists(st.lists(_vector(d), min_size=2, max_size=2).map(_tuple),
                 min_size=1, max_size=2).map(_list),
        st.lists(st.lists(_vector(d), min_size=4, max_size=4).map(_tuple),
                 min_size=1, max_size=2).map(_list),
        st.lists(st.tuples(_vector(d), _ATOMS, _ATOMS).map(_tuple),
                 min_size=1, max_size=2).map(_list),
    )


_FIELDS = [(section, key) for section, keys in _KEYS.items() for key in keys]


@st.composite
def config_texts(draw):
    base, d = draw(st.sampled_from([(BASE, 1), (HEX_PURE, 2)]))
    values = st.one_of(_ATOMS, _NESTED, _shaped(d))
    overrides = draw(st.lists(st.tuples(st.sampled_from(_FIELDS), values),
                              min_size=1, max_size=4))
    # a reopened section overrides the key's earlier value
    return base + "".join(f"\n[{section}]\n{key} = {value}\n"
                          for (section, key), value in overrides)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(config_texts())
def test_load_config_raises_only_config_errors(text):
    try:
        load_config(text)
    except (ConfigParseError, ConfigValidationError):
        pass


# A valid 1-D config small enough that every subcommand runs in milliseconds.
TINY = """\
[lattice]
basis = [[1.0]]

[physics]
hbar = 0.1
T = 0.1
dt = 0.01

[discretization]
m = 16
n_k = 2
n_q = 4
n_p = 4
n_time_obs = 2
n_time_gc = 4
gc_per_axis = 2
gc_quasi = 4

[scenario]
K = [((-0.5,), (0.5,), (0.5,), (1.5,))]
omega = [((-0.1,), (0.1,))]
delta = 0.05

[initial]
kind = toeplitz
center_q = (0.0,)
center_p = (1.0,)
"""


@st.composite
def tiny_config_texts(draw):
    overrides = draw(st.lists(st.tuples(st.sampled_from(_FIELDS),
                                        st.one_of(_ATOMS, _NESTED, _shaped(1))), max_size=3))
    return TINY + "".join(f"\n[{section}]\n{key} = {value}\n"
                          for (section, key), value in overrides)


def _tiny(section, key, value):
    return TINY + f"\n[{section}]\n{key} = {value}\n"


# No shrinking: from a failing text it could reach sizes that pass the
# physical-memory checks of ``load_config`` and still take most of the machine.
# The derandomized draws move whenever literals in the package change
# (hypothesis mixes the imported source's constants into them), so the texts
# that once escaped, and those that reach each geometric-control route, are
# pinned as explicit examples: an integral float size, widths whose 2 sigma^2
# overflows, a huge n_time_gc on the exact 1-D route and on the free route
# (momenta through 0 at V = 0), and momenta through 0 under a potential (the
# sampler).
@settings(max_examples=120, deadline=None, derandomize=True, database=None,
          phases=(Phase.explicit, Phase.reuse, Phase.generate),
          suppress_health_check=[HealthCheck.too_slow])
@given(tiny_config_texts())
@example(text=_tiny("discretization", "n_q", "1.6108436293376755e+188"))
@example(text=_tiny("initial", "sigma_p", "1.6108436293376755e+188"))
@example(text=_tiny("initial", "sigma_q", "1.6108436293376755e+188"))
@example(text=_tiny("discretization", "n_time_gc", "1e30"))
@example(text=_tiny("discretization", "n_time_gc", "1e30")
         + "\n[scenario]\nK = [((-0.5,), (0.5,), (-0.5,), (1.5,))]\n")
@example(text=_tiny("potential", "terms", "[((1,), 0.1, 0.0)]")
         + "\n[scenario]\nK = [((-0.5,), (0.5,), (-0.5,), (1.5,))]\n")
def test_cli_ends_any_text_in_an_exit_code(tmp_path_factory, text):
    # every subcommand returns a documented exit code; no exception escapes main
    tmp = tmp_path_factory.mktemp("fuzz")
    cfg = tmp / "fuzz.cfg"
    cfg.write_text(text)
    for subcommand in sorted(_COMMANDS):
        assert main([subcommand, "--config", str(cfg), "--out", str(tmp / "out")]) in (0, 1, 2, 3)
