import pytest

from gwsemigroup import genus0_description, hermitian_description

import corpus


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
    return corpus.BROKEN_M4


@pytest.fixture(scope="session")
def periodic_m3():
    return corpus.PERIODIC_M3
