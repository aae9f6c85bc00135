"""Chain task model: a vehicle job is an ordered tuple of typed sub-tasks.

Upload moves data up only, Download fetches a library item, Compute
consumes input bytes at a per-byte cycle density and emits an output
that also lives in the library. generate_task guarantees each category's
sign pattern (Upload: zeta = 0 < d_in, d_out = 0; Download: zeta = d_in = 0
< d_out; Compute: zeta, d_in, d_out > 0), so readers trust SubTask.category.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from .config import ScenarioConfig


class Category(Enum):
    UPLOAD = "upload"
    DOWNLOAD = "download"
    COMPUTE = "compute"


@dataclass(frozen=True)
class SubTask:
    category: Category
    d_in: float  # input bytes
    d_out: float  # output bytes (0 when the sub-task produces nothing cacheable)
    rho: float  # cycles per input byte
    out_rank: int  # popularity rank of the output in the library, 0 = no output

    @property
    def zeta(self) -> float:
        # demanded cycles; exact product by construction
        return self.rho * self.d_in


TaskGraph = tuple[SubTask, ...]

_CATEGORIES = (Category.UPLOAD, Category.DOWNLOAD, Category.COMPUTE)
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)  # Generator.choice's sum tolerance


@lru_cache(maxsize=32)  # a run uses one mix, a sweep a few
def _category_picker(mix: tuple[float, float, float]) -> Callable[[float], int]:
    """Map one ``rng.random()`` double to the index ``rng.choice(3, p=mix)`` picks.

    numpy's choice draws one double and right-searches the mix's CDF,
    built as a float64 cumsum divided in place by its last element; the
    picker searches the same CDF the same way. A zero-probability
    category repeats the previous bound, so no draw lands on it. A mix
    that choice refuses (a negative or NaN share, or a sum off 1 by more
    than sqrt(float64 eps)) raises ValueError here too.
    """
    if not (min(mix) >= 0.0 and abs(math.fsum(mix) - 1.0) <= _CHOICE_ATOL):
        raise ValueError(f"category mix {mix} is not a probability vector")
    cdf = np.cumsum(np.array(mix, dtype=np.float64))
    cdf /= cdf[-1]
    return partial(bisect.bisect_right, tuple(cdf.tolist()))


def generate_task(rng_seed: int | np.random.Generator, cfg: ScenarioConfig,
                  library: tuple[float, ...]) -> TaskGraph:
    """Draw one task chain; same seed, validated config and library, same chain.

    `rng_seed` is a seed or a seeded Generator, which is drawn from as it
    stands. An output of rank r has exactly library[r-1] bytes.
    """
    pick = _category_picker((cfg.mix_upload, cfg.mix_download, cfg.mix_compute))
    rng = np.random.default_rng(rng_seed)
    subtasks = []
    for _ in range(cfg.num_subtasks):
        cat = _CATEGORIES[pick(rng.random())]
        if cat is Category.UPLOAD:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=0.0, rho=0.0, out_rank=0))
            continue
        rank = int(rng.integers(1, cfg.num_ranks + 1))
        d_out = float(library[rank - 1])
        if cat is Category.DOWNLOAD:
            subtasks.append(SubTask(cat, d_in=0.0, d_out=d_out, rho=0.0, out_rank=rank))
        else:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            while rho == 0.0:  # compute sub-tasks must demand work
                rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=d_out, rho=rho, out_rank=rank))
    return tuple(subtasks)
