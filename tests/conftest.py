import numpy as np
import pytest

from breather_forge import (GridSpec, PotentialSpec, SolverConfig, WeightSpec,
                            hybrid_solve)

from oracles import shooting_orbit, staggered_guess

QUARTIC = PotentialSpec(quartic=1.0)
FLAGSHIP_OMEGA = 2.2


def flagship_config(parity: str = "odd") -> SolverConfig:
    return SolverConfig(
        grid=GridSpec(64, 16, 130, FLAGSHIP_OMEGA),
        weight=WeightSpec.for_parity(0.0, parity),
        potential=QUARTIC,
        parity=parity,
        seed=(0.8, 1.0),
        max_iter=500,
    )


@pytest.fixture(scope="session")
def flagship_result():
    result = hybrid_solve(flagship_config("odd"))
    assert result.status == "converged"
    return result


@pytest.fixture(scope="session")
def flagship_even_result():
    result = hybrid_solve(flagship_config("even"))
    assert result.status == "converged"
    return result


@pytest.fixture(scope="session")
def oracle32_profile():
    return shooting_orbit(QUARTIC, FLAGSHIP_OMEGA, 32, staggered_guess(32, 0.8, 0.9))


@pytest.fixture(scope="session")
def oracle48_profile():
    return shooting_orbit(QUARTIC, FLAGSHIP_OMEGA, 48, staggered_guess(48, 0.8, 0.9))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
