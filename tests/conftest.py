import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from l2approx.census import builtin_entry, load_entry_text

# figure-eight with a second factor through the Galois conjugation w -> 1 - w,
# carrying the one-factor entry's manifold metadata
FIG8_CONJUGATE_PRES = ("name: figure-eight-c\ngenerators: a b\nrelator: aBAbabABab\n"
                       "aspherical: true\ncusps: 1\neuler: 0\n")
FIG8_CONJUGATE_REP = ("field: 1 -1 1\nfactors: 2\n"
                      "image: a 1 : 1 ; 1 ; 0 ; 1\nimage: b 1 : 1 ; 0 ; 0,-1 ; 1\n"
                      "image: a 2 : 1 ; 1 ; 0 ; 1\nimage: b 2 : 1 ; 0 ; -1,1 ; 1\n")


@pytest.fixture(scope="session")
def fig8():
    return builtin_entry("figure-eight")


@pytest.fixture(scope="session")
def whitehead():
    return builtin_entry("whitehead")


@pytest.fixture(scope="session")
def sanov():
    return builtin_entry("sanov-f2")


@pytest.fixture(scope="session")
def z_entry():
    return builtin_entry("z-unipotent")


@pytest.fixture(scope="session")
def c2():
    return builtin_entry("c2-central")


@pytest.fixture(scope="session")
def z2():
    return builtin_entry("z2-lattice")


@pytest.fixture(scope="session")
def fig8_conjugate():
    return load_entry_text(FIG8_CONJUGATE_PRES, FIG8_CONJUGATE_REP)
