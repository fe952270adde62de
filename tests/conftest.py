import numpy as np
import pytest

from blochlab import KGrid, gamma_bounds
from blochlab.quantization import FiberedDensity

from oracles import cubic_lattice


@pytest.fixture(scope="session")
def lat1():
    return cubic_lattice(1)


@pytest.fixture(scope="session")
def lat2():
    return cubic_lattice(2)


@pytest.fixture(scope="session")
def geom1(lat1):
    return gamma_bounds(lat1)


@pytest.fixture(scope="session")
def geom2(lat2):
    return gamma_bounds(lat2)


# One lattice of each kind the closed forms are checked on: the unit interval,
# the hexagonal cell and a skew 3-D cell.
LATTICES = {
    "line": [[1.0]],
    "hexagonal": [[1.0, 0.0], [0.5, np.sqrt(3) / 2]],
    "skew": [[1.0, 0.0, 0.0], [0.3, 1.0, 0.0], [0.2, 0.5, 0.8]],
}


def random_density(lat, m: int, hbar: float, rank: int, seed: int, n_k: int = 2):
    """Fibered density on an n_k^d k-grid with random vectors and weights (band m)."""
    rng = np.random.default_rng(seed)
    kg = KGrid.monkhorst_pack(lat, n_k)
    shape = (kg.size, rank, (2 * m + 1) ** lat.dimension)
    vecs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return FiberedDensity(kg, lat, m, hbar, rng.uniform(0.2, 1.0, shape[:2]), vecs)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def coherent_overlap(q1, p1, q2, p2, hbar):
    """Closed-form packet overlap <q1,p1|q2,p2>, verified against quadrature."""
    q1, p1, q2, p2 = map(np.atleast_1d, (q1, p1, q2, p2))
    dq = q1 - q2
    dp = p1 - p2
    return np.exp(-(dq @ dq + dp @ dp) / (4.0 * hbar)
                  + 1j * (p2 - p1) @ (q1 + q2) / (2.0 * hbar))


def is_11_smooth(n: int) -> bool:
    """True when n has no prime factor above 11."""
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1
