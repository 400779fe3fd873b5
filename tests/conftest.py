import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from tccbench import (
    BasisSplit,
    IntegralSet,
    OrbitalBasis,
    canonicalize_core,
    fock_matrix,
    hubbard_model,
    pairing_model,
)
from tccbench.hamiltonian import FockSpectrum, NonCanonicalOrbitalsWarning


@dataclass
class System:
    """Integrals plus the derived basis/split/Fock data used by most tests."""

    name: str
    ints: IntegralSet
    basis: OrbitalBasis
    split: BasisSplit
    fock: FockSpectrum


def _make(name, ints, k) -> System:
    basis = OrbitalBasis(ints.n_spin_orbitals, ints.n_electrons)
    split = BasisSplit(basis, k)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", NonCanonicalOrbitalsWarning)
        fock = fock_matrix(ints, basis)
    return System(name, ints, basis, split, fock)


@pytest.fixture(scope="session")
def hubbard2_site() -> System:
    """2-site Hubbard chain, U=4, half filling, raw site basis (K=4, N=2)."""
    return _make("hubbard2-site", hubbard_model(2, 1.0, 4.0), 3)


@pytest.fixture(scope="session")
def hubbard2_mo() -> System:
    """Same chain in the core-Hamiltonian eigenbasis; canonical Fock."""
    ints, _ = canonicalize_core(hubbard_model(2, 1.0, 4.0))
    return _make("hubbard2-mo", ints, 2)


@pytest.fixture(scope="session")
def hubbard3_mo() -> System:
    """3-site Hubbard chain, U=2, 2 electrons, core eigenbasis (K=6, N=2)."""
    ints, _ = canonicalize_core(hubbard_model(3, 1.0, 2.0, 2))
    return _make("hubbard3-mo", ints, 4)


@pytest.fixture(scope="session")
def hubbard4_mo() -> System:
    """4-site Hubbard chain, U=2, half filling, core eigenbasis (K=8, N=4, k=6)."""
    ints, _ = canonicalize_core(hubbard_model(4, 1.0, 2.0))
    return _make("hubbard4-mo", ints, 6)


@pytest.fixture(scope="session")
def pairing4() -> System:
    """4-level picket-fence pairing model, g=0.5 (K=8, N=4, k=6)."""
    return _make("pairing4", pairing_model(4, 0.5, 1.0), 6)


@pytest.fixture(scope="session")
def pairing6() -> System:
    """6-level pairing model, g=0.5 (K=12, N=6, k=8): 896 external indices."""
    return _make("pairing6", pairing_model(6, 0.5, 1.0), 8)


@pytest.fixture(scope="session")
def pairing4_g0() -> System:
    """Same level structure with the interaction switched off (W = 0)."""
    return _make("pairing4-g0", pairing_model(4, 0.0, 1.0), 6)


@pytest.fixture(scope="session")
def pairing3_2e() -> System:
    """3-level pairing model with 2 electrons: untruncated CC is exact."""
    return _make("pairing3-2e", pairing_model(3, 0.3, 1.0, n_electrons=2), 2)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(42)
