"""Chain task model: a vehicle job is an ordered tuple of typed sub-tasks.

Upload moves data up only, Download fetches a library item, Compute
consumes input bytes at a per-byte cycle density and emits an output
that also lives in the library. generate_task guarantees each category's
sign pattern (Upload: zeta = 0 < d_in, d_out = 0; Download: zeta = d_in = 0
< d_out; Compute: zeta, d_in, d_out > 0), so readers trust SubTask.category.

generate_task draws one chain from a Generator. decode_tasks draws the
same chains for a block of episodes from each one's raw PCG64 output
(``bit_generator.random_raw``), as arrays. It relies on how numpy's
Generator consumes that output (``tests/test_workload.py`` pins it):

- ``random()`` and ``uniform(a, b)`` each take one 64-bit output x, as
  ``d = (x >> 11) * 2**-53`` and ``a + (b - a) * d``.
- ``integers(1, R + 1)`` takes one 32-bit word: the low half of a fresh
  output, whose high half is buffered for the next such call, or that
  buffered half. Doubles neither read nor clear the buffer. R = 1 takes
  nothing.
- The word u becomes a rank by Lemire's method: ``m = u * R``, rank
  ``(m >> 32) + 1``, and u is rejected, and another word drawn, when
  ``m mod 2**32 < (2**32 - R) mod R``.

A chain of V sub-tasks takes at most 4V outputs when no word is rejected.
A row whose draw rejects a word, or redraws a compute rho of exactly 0.0,
is left to generate_task, and write_chain writes that chain into the
row. decode_tasks returns the N x V arrays of the chains and packs no
SubTask: a block's tables are built from the arrays, and task_chains
packs the objects only where a caller asks for them.
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
_MASK32 = np.uint64(0xFFFFFFFF)
_SIZE_DRAWS = np.array([1, 0, 2])  # uniform draws after the rank: upload, download, compute


@lru_cache(maxsize=32)  # a run uses one mix, a sweep a few
def _category_cdf(mix: tuple[float, float, float]) -> tuple[float, ...]:
    """The CDF ``rng.choice(3, p=mix)`` right-searches with its one double.

    numpy builds it as a float64 cumsum divided in place by its last
    element. A zero-probability category repeats the previous bound, so no
    draw lands on it. A mix that choice refuses (a negative or NaN share,
    or a sum off 1 by more than sqrt(float64 eps)) raises ValueError here too.
    """
    if not (min(mix) >= 0.0 and abs(math.fsum(mix) - 1.0) <= _CHOICE_ATOL):
        raise ValueError(f"category mix {mix} is not a probability vector")
    cdf = np.cumsum(np.array(mix, dtype=np.float64))
    cdf /= cdf[-1]
    return tuple(cdf.tolist())


def _category_picker(mix: tuple[float, float, float]) -> Callable[[float], int]:
    """Map one ``rng.random()`` double to the index ``rng.choice(3, p=mix)`` picks."""
    return partial(bisect.bisect_right, _category_cdf(mix))


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


def decode_tasks(raw: np.ndarray, cfg: ScenarioConfig, library: tuple[float, ...],
                 ) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """generate_task for each row of N x 4V raw PCG64 outputs, decoded as arrays.

    Row i holds the first 4V outputs of a generator in the state that row's
    generate_task call would start from. Returns an N-vector `exact` and
    the N x V columns of the chains, the fields each SubTask holds: the
    category code (an index into the upload, download, compute order),
    d_in, d_out, rho and out_rank. Where exact, a row's columns are that
    call's chain, float for float (task_chains packs them); elsewhere the
    draw rejects a rank word or redraws a zero rho, the row's columns hold
    no chain, and the caller draws that row with generate_task.
    """
    cdf = np.array(_category_cdf((cfg.mix_upload, cfg.mix_download, cfg.mix_compute)))
    n, v, ranks = len(raw), cfg.num_subtasks, cfg.num_ranks
    rows = np.arange(n)
    doubles = (raw >> np.uint64(11)) * 2.0**-53
    size_lo, rho_lo = float(cfg.size_min_bytes), float(cfg.rho_min)
    size_span, rho_span = float(cfg.size_max_bytes) - size_lo, float(cfg.rho_max) - rho_lo
    reject = (2**32 - ranks) % ranks  # Lemire's threshold on a word's low product
    ptr = np.zeros(n, dtype=np.intp)  # each row's next unread output
    buffered = np.zeros(n, dtype=bool)  # a high half waits in `word`
    word = np.zeros(n, dtype=np.uint64)
    exact = np.ones(n, dtype=bool)
    cats, rank = np.empty((v, n), dtype=np.intp), np.ones((v, n), dtype=np.int64)
    d_in, rho = np.empty((v, n)), np.empty((v, n))
    # a sub-task reads at most one output for its category, half of one for
    # its rank and two for its sizes, so no index below passes column 4V - 1
    for j in range(v):
        cats[j] = cat = np.searchsorted(cdf, doubles[rows, ptr], side="right")
        ptr += 1
        if ranks > 1:
            ranked = cat != 0
            fresh = ranked & ~buffered
            out = raw[rows, ptr]
            word = np.where(fresh, out & _MASK32, word)
            m = word * np.uint64(ranks)
            exact &= ~ranked | ((m & _MASK32) >= reject)
            rank[j] = m >> np.uint64(32)
            rank[j] += 1
            word = np.where(fresh, out >> np.uint64(32), word)
            buffered ^= ranked
            ptr += fresh
        d_in[j] = size_lo + size_span * doubles[rows, ptr]
        rho[j] = rho_lo + rho_span * doubles[rows, ptr + 1]
        exact &= (cat != 2) | (rho[j] != 0.0)
        ptr += _SIZE_DRAWS[cat]
    # the fields generate_task leaves at zero for each category
    cats, rank, d_in, rho = cats.T, rank.T, d_in.T, rho.T
    upload = cats == 0
    rank[upload] = 0
    d_in[cats == 1] = 0.0
    rho[cats != 2] = 0.0
    d_out = np.where(upload, 0.0, np.array(library, dtype=np.float64)[rank - 1])
    return exact, (cats, d_in, d_out, rho, rank)


def task_chains(columns: tuple[np.ndarray, ...], rows) -> list[TaskGraph]:
    """The SubTask chains of the rows a numpy index selects from decode_tasks' columns."""
    return [tuple(map(SubTask, map(_CATEGORIES.__getitem__, chain[0]), *chain[1:]))
            for chain in zip(*(c[rows].tolist() for c in columns))]


def write_chain(columns: tuple[np.ndarray, ...], row: int, chain: TaskGraph) -> None:
    """Write `chain` into row `row` of decode_tasks' columns, as task_chains reads it."""
    fields = zip(*((_CATEGORIES.index(sub.category), sub.d_in, sub.d_out, sub.rho,
                    sub.out_rank) for sub in chain))
    for column, values in zip(columns, fields):
        column[row] = values
