from dataclasses import replace

import pytest

from renosc import _kernels, builtin_catalog, load_problem


@pytest.fixture(scope="session")
def example1():
    return load_problem(builtin_catalog("example1"))


@pytest.fixture(scope="session")
def example2():
    return load_problem(builtin_catalog("example2"))


@pytest.fixture(scope="session")
def example3():
    return load_problem(builtin_catalog("example3"))


@pytest.fixture(scope="session")
def example3_narrow():
    return load_problem(replace(builtin_catalog("example3"), lam=(-3.0, 1.0)))


@pytest.fixture(scope="session")
def harmonic_dirichlet():
    return load_problem(builtin_catalog("harmonic-dirichlet"))


@pytest.fixture(scope="session")
def harmonic_neumann():
    return load_problem(builtin_catalog("harmonic-neumann"))


@pytest.fixture
def march_blocks(monkeypatch):
    """(lines, k0, nodes) of every x-block that _kernels.march yields."""
    blocks = []
    real = _kernels.march

    def counted(*args):
        for k0, nodes in real(*args):
            blocks.append((len(args[2]), k0, nodes.shape[1]))
            yield k0, nodes

    monkeypatch.setattr(_kernels, "march", counted)
    return blocks


# -- adaptive-integrator oracle (tests/oracle.py) ------------------------------


def _form_oracle(problem):
    pytest.importorskip("scipy")
    from oracle import FormOracle

    return FormOracle(problem)


@pytest.fixture(scope="session")
def example2_oracle(example2):
    return _form_oracle(example2)


@pytest.fixture(scope="session")
def example3_oracle(example3):
    return _form_oracle(example3)


@pytest.fixture(scope="session")
def example3_oracle_loss_points(example3_oracle):
    """Oracle zeros (x, lambda, |psi|) of (psi1, psi2) for example3, each
    root solve started from the externally quoted loss point."""
    return tuple(example3_oracle.loss_point(0.875, lam) for lam in (-3.348, -0.130))
