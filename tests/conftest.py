import pytest

from koszulkit.ell2 import make_catalog_operator

from randgen import get_rng


@pytest.fixture
def rng():
    return get_rng()


@pytest.fixture
def backward_shift():
    return make_catalog_operator("adjoint_shift")


@pytest.fixture
def forward_shift():
    return make_catalog_operator("shift")
