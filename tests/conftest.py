"""Session fixtures: each preset flow runs once and is shared by all tests."""
import pytest

import calabiflow as cf

CONTRACT = cf.FlowParams(2, 1, 1.0, 4.0)
COLLAPSE = cf.FlowParams(2, 1, 1.0, 2.0)
SHRINK = cf.FlowParams(2, 1, 1.0, 3.0)


@pytest.fixture(scope="session")
def contract_default(tmp_path_factory):
    """Contract preset on the default grid, with files written to disk."""
    out = tmp_path_factory.mktemp("contract_default")
    trace = cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 2049), out_dir=out)
    return trace, out


@pytest.fixture(scope="session")
def contract_1025():
    return cf.run(CONTRACT, grid=cf.RhoGrid(12.0, 1025))


@pytest.fixture(scope="session")
def contract_wide():
    """Contract preset on a wide grid; the larger half-width keeps the
    boundary tail amplitude small relative to the shrinking class endpoint,
    so endpoint diagnostics stay clean through t = 0.999 T."""
    return cf.run(CONTRACT, grid=cf.RhoGrid(16.0, 2731))


@pytest.fixture(scope="session")
def wide_report(contract_wide):
    """Rescaling report over the late checkpoints of the wide contract run."""
    return cf.blowup_report(list(contract_wide.checkpoints), T=1.0, n=2, k=1)


@pytest.fixture(scope="session")
def collapse_run():
    return cf.run(COLLAPSE, grid=cf.RhoGrid(12.0, 1025))


@pytest.fixture(scope="session")
def shrink_run():
    return cf.run(SHRINK, grid=cf.RhoGrid(12.0, 1025))


@pytest.fixture(scope="session")
def contract_seed():
    return cf.build_canonical_profile(cf.KahlerClass(1.0, 4.0), cf.RhoGrid(12.0, 1025), 2, 1)
