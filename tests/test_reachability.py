"""Every public function and method of the package runs in some CLI subcommand.

Code that only tests call belongs in ``tests/oracles.py``; a function that
nothing calls belongs nowhere.  The five subcommands run in process under
``sys.setprofile`` on small 1-D configs, with both initial-data kinds and
with and without a potential, and every public function of every
``blochlab`` module, and every public method, property and classmethod of
its classes, must have been entered.
"""

import importlib
import inspect
import pkgutil
import sys

import blochlab
from blochlab.cli import _COMMANDS, main

SMALL = """\
[lattice]
basis = [[1.0]]

[physics]
hbar = 0.04
T = 0.1
dt = 0.01

[discretization]
m = 20
n_k = 9
n_q = 4
n_p = 8
n_time_obs = 2
n_time_gc = 10
gc_per_axis = 2
gc_quasi = 2

[scenario]
K = [((-0.5,), (0.5,), (0.5,), (1.5,))]
omega = [((-0.1,), (0.1,))]
delta = 0.05

[initial]
kind = toeplitz
center_q = (0.0,)
center_p = (0.7,)
"""

# With the potential the step is 1e-3, as in the benchmark configs, so that the
# quantized bump takes the band path (``FiberHamiltonian.eigenpairs``) and
# pure data the Strang steps.
POTENTIAL = "[potential]\nterms = [((1,), 0.1, 0.0)]\n\n"


def _public_code():
    """(name, code object) of every public function, method, property and classmethod."""
    modules = [importlib.import_module(f"blochlab.{info.name}")
               for info in pkgutil.iter_modules(blochlab.__path__)]
    for mod in [blochlab] + modules:
        for name, obj in vars(mod).items():
            if name.startswith("_") or not getattr(obj, "__module__", "").startswith("blochlab"):
                continue
            if inspect.isfunction(obj):
                yield f"{obj.__module__}.{obj.__qualname__}", obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    fn = (member.fget if isinstance(member, property)
                          else getattr(member, "__func__", member))
                    if not attr.startswith("_") and inspect.isfunction(fn):
                        yield f"{obj.__module__}.{obj.__qualname__}.{attr}", fn.__code__


def test_every_public_function_runs_in_a_subcommand(tmp_path):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    configs = []
    for potential in ("", POTENTIAL):
        for kind in ("toeplitz", "pure"):
            path = tmp_path / f"{len(configs)}.cfg"
            text = SMALL.replace("kind = toeplitz", f"kind = {kind}")
            if potential:
                text = potential + text.replace("dt = 0.01", "dt = 1e-3")
            path.write_text(text)
            configs.append((kind, str(path)))
    codes = {}
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for kind, path in configs:
            for sub in sorted(_COMMANDS):
                codes[path, sub] = main([sub, "--config", path, "--out", str(tmp_path / "out")])
    finally:
        sys.setprofile(previous)

    assert len(_COMMANDS) == 5
    # stability takes a quantized datum only and rejects pure data as invalid
    assert codes == {(path, sub): 3 if (kind, sub) == ("pure", "stability") else 0
                     for kind, path in configs for sub in _COMMANDS}
    unreached = sorted({name for name, code in _public_code() if code not in entered})
    assert not unreached, "public functions and methods no subcommand runs: " \
        + ", ".join(unreached)
