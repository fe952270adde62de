import numpy as np
import pytest

from blochlab import LatticeSpec, gamma_bounds


@pytest.fixture(scope="session")
def lat1():
    return LatticeSpec.cubic(1)


@pytest.fixture(scope="session")
def lat2():
    return LatticeSpec.cubic(2)


@pytest.fixture(scope="session")
def geom1(lat1):
    return gamma_bounds(lat1)


@pytest.fixture(scope="session")
def geom2(lat2):
    return gamma_bounds(lat2)


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
