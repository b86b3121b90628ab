import numpy as np
import pytest

from persuasion_lab import builtin_instance
from support import judge_optimal_scheme


@pytest.fixture
def judge():
    return builtin_instance("judge")


@pytest.fixture
def example1():
    return builtin_instance("example-1")


@pytest.fixture
def mismatch():
    return builtin_instance("example-4-3")


@pytest.fixture
def judge_opt():
    return judge_optimal_scheme()


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
