"""Shared fixtures."""

import pytest


@pytest.fixture
def mutate_block_read(monkeypatch):
    """Install a faulty block read in ``models.planted_block``.

    After ``mutate_block_read(read)``, every ``random((count, 4s))`` call on
    a planted draw generator returns ``read(plant_rng, seed, p, size)``,
    where ``plant_rng`` is the true ``models._plant_rng`` and ``seed`` the
    block's ``sample_seed(seed, n, start)``.  One-draw reads keep the true
    stream, so the spot checks compare the mutant with the real draws.
    """
    from sidestep import models

    plant_rng = models._plant_rng

    def install(read):
        class Stream:
            def __init__(self, seed, p):
                self.seed, self.p = seed, p

            def random(self, size):
                if isinstance(size, tuple):
                    return read(plant_rng, self.seed, self.p, size)
                return plant_rng(self.seed, self.p).random(size)

        monkeypatch.setattr(models, "_plant_rng", Stream)

    return install
