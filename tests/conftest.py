import dataclasses
import tracemalloc

import numpy as np
import pytest

from varwave import (
    ConstantSpeed,
    OseenFrankSpeed,
    PolynomialBump,
    ProblemSetup,
    WaveSpeedModel,
)

SQRT2 = float(np.sqrt(2.0))


@pytest.fixture(scope="session")
def canonical_speed():
    """k1=2, k3=1 planar speed: c in [1, sqrt(2)], c'(pi/4) > 0."""
    return OseenFrankSpeed(c0=1.0, c1=SQRT2, k1=2.0, k3=1.0)


@pytest.fixture(scope="session")
def unit_speed():
    return ConstantSpeed.of(1.0)


@pytest.fixture(scope="session")
def canonical_setup(canonical_speed):
    """Theorem data at eps=0.05, the blow-up experiment family."""
    return ProblemSetup.theorem(
        d=3, r0=1.0, eps=0.05, u0=np.pi / 4, speed=canonical_speed
    )


@pytest.fixture(scope="session")
def gentle_setup(canonical_speed):
    """Same geometry with a mild bump; stays smooth over the full window."""
    return ProblemSetup.theorem(
        d=3,
        r0=1.0,
        eps=0.1,
        u0=np.pi / 4,
        speed=canonical_speed,
        profile=PolynomialBump(amplitude=2.0),
    )


class ArrayConstantSpeed(ConstantSpeed):
    """ConstantSpeed as arrays shaped like u: c(u) and c'(u) that
    ConstantSpeed's floats stand for, through the base c_and_c_prime."""

    def c(self, u):
        u = np.asarray(u, dtype=float)
        out = np.full_like(u, self.value)
        return out if out.ndim else float(out)

    def c_prime(self, u):
        u = np.asarray(u, dtype=float)
        out = np.zeros_like(u)
        return out if out.ndim else float(out)

    c_and_c_prime = WaveSpeedModel.c_and_c_prime


@pytest.fixture(scope="session")
def with_array_speed():
    """setup -> the same setup with its ConstantSpeed returning arrays."""

    def replace(setup):
        s = setup.speed
        return dataclasses.replace(
            setup, speed=ArrayConstantSpeed(c0=s.c0, c1=s.c1, value=s.value)
        )

    return replace


@pytest.fixture(scope="session")
def node_weighted_energy():
    """(r, state) -> np.sum(w[a:b] * (R**2 + S**2)) on the state's live range
    [a, b), w the trapezoid weights of the nodes r, built here from np.diff(r):
    the sum the energy observer makes, written out."""

    def energy(r, state):
        dr = np.diff(r)
        w = np.concatenate(([dr[0] / 2.0], (dr[:-1] + dr[1:]) / 2.0, [dr[-1] / 2.0]))
        a, b = state.live
        return np.sum(w[a:b] * (state.R[a:b] ** 2 + state.S[a:b] ** 2))

    return energy


MIB = 2**20


@pytest.fixture(scope="session")
def traced_peak():
    """f -> the peak of tracemalloc's traced memory, in MiB, over one call of f()."""

    def peak(f):
        tracemalloc.start()
        try:
            f()
            return tracemalloc.get_traced_memory()[1] / MIB
        finally:
            tracemalloc.stop()

    return peak
