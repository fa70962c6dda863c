"""Named random streams: one 64-bit seed per run, split per algorithmic site.

Each site gets its own generator derived from (seed, site name) via SHA-256,
so adding or reordering sites never perturbs the other streams.
"""

from __future__ import annotations

import hashlib

import numpy as np


def stream(seed: int, name: str) -> np.random.Generator:
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    return np.random.default_rng(int.from_bytes(digest[:8], "little"))


def trial_seed(seed: int, trial: int) -> int:
    """A 64-bit seed for one trial, drawn from (seed, trial); both must be >= 0.

    Distinct pairs give unrelated seeds, so runs with adjacent seeds share
    no trials.
    """
    return int(np.random.SeedSequence([seed, trial]).generate_state(1, np.uint64)[0])
