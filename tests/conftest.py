import pytest

from gwsemigroup import Lattice, SemigroupDescription, genus0_description, hermitian_description


@pytest.fixture(scope="session")
def hermitian_q2():
    return hermitian_description(2)


@pytest.fixture(scope="session")
def hermitian_q3():
    return hermitian_description(3)


@pytest.fixture(scope="session")
def genus0_m2():
    return genus0_description(2)


@pytest.fixture(scope="session")
def genus0_m3():
    return genus0_description(3)


@pytest.fixture(scope="session")
def genus0_m4():
    return genus0_description(4)


@pytest.fixture(scope="session")
def broken_m4():
    # invalid: (1, 0, 1, 5) is not absolute maximal; periods above 1 below
    # the last level, so lower carries matter
    return SemigroupDescription(
        4, 3, Lattice((2, 1, 4)), ((0, 0, 0, 0), (1, 0, 1, 5), (1, 0, 3, -4))
    )
