from pathlib import Path

import pytest

from moddata.catalog import pointed_zn, rank5_catalog, su2_4_family_all, su2_odd_mod2
from moddata.modular_data import _s_facts

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(autouse=True)
def fresh_s_facts():
    """Each test starts with no S analysed: a test that patches a step of the
    S analysis (_residue_perms, _projectively_unitary, ...) must reach its
    patch, not a record that an earlier test filled."""
    _s_facts.cache_clear()


@pytest.fixture(scope="session")
def su2_9():
    return su2_odd_mod2(5)


@pytest.fixture(scope="session")
def pointed_z5():
    return pointed_zn(5, 1)


@pytest.fixture(scope="session")
def su2_4_all():
    return su2_4_family_all()


@pytest.fixture(scope="session")
def catalog_rank5():
    return rank5_catalog()


@pytest.fixture(scope="session")
def data_dir():
    return DATA_DIR
