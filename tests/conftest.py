import numpy as np
import pytest

from vqstego.bits import StegoKey
from vqstego.config import default_config
from vqstego.pipeline import Pipeline
from vqstego.token_model import Distribution
from vqstego.workspace import Workspace


@pytest.fixture(scope="session")
def cfg():
    return default_config()


@pytest.fixture(scope="session")
def pipe(cfg):
    return Pipeline.from_config(cfg)


@pytest.fixture(scope="session")
def tokenizer(pipe):
    return pipe.tokenizer


@pytest.fixture()
def key():
    return StegoKey(bytes(range(32)))


def two_token_dist():
    """The worked two-token example: a -> [0, 0.4), b -> [0.4, 1.0)."""
    return Distribution(np.array([0, 1]), np.array([0.4, 0.6]))


def uniform_dist(n):
    return Distribution(np.arange(n), np.full(n, 1.0 / n))


class PoisonedWorkspace(Workspace):
    """A workspace whose uninitialised arrays read NaN on every request,
    so a value read before it is written shows in the result."""

    def empty(self, name, shape):
        a = super().empty(name, shape)
        a.fill(np.nan)
        return a

    def like(self, name, a):
        out = super().like(name, a)
        out.fill(np.nan)
        return out
