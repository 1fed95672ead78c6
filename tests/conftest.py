import pytest

from kstpde.inner import build_psi, compute_constants


@pytest.fixture(scope="session")
def params_k1():
    return compute_constants(2, 10, 8, k=1)


@pytest.fixture(scope="session")
def table_k1(params_k1):
    return build_psi(params_k1)


@pytest.fixture(scope="session")
def params_k2():
    return compute_constants(2, 10, 8, k=2)


@pytest.fixture(scope="session")
def table_k2(params_k2):
    return build_psi(params_k2)


@pytest.fixture(scope="session")
def params_k4():
    return compute_constants(2, 10, 8, k=4)


@pytest.fixture(scope="session")
def table_k4(params_k4):
    return build_psi(params_k4)


@pytest.fixture(scope="session")
def table_k5():
    return build_psi(compute_constants(2, 10, 8, k=5))
