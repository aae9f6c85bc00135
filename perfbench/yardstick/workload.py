"""Chain task model: a vehicle job is an ordered tuple of typed sub-tasks.

Upload moves data up only, Download fetches a library item, Compute
consumes input bytes at a per-byte cycle density and emits an output
that also lives in the library. Sign conventions per category are
strict and re-derivable from the numbers alone (see classify).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


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


@dataclass(frozen=True)
class WorkloadConfig:
    num_subtasks: int = 6
    size_min_bytes: float = 100e3
    size_max_bytes: float = 500e3
    rho_min: float = 0.0
    rho_max: float = 12000.0
    mix: tuple[float, float, float] = (0.05, 0.05, 0.90)  # upload, download, compute
    num_ranks: int = 30
    # content library: when set, an output with rank r has exactly rank_sizes[r-1]
    # bytes so cache accounting stays coherent across sub-tasks and episodes
    rank_sizes: tuple[float, ...] | None = None


def generate_task(rng_seed: int, cfg: WorkloadConfig) -> TaskGraph:
    """Draw one task chain. Same seed and config give the identical chain."""
    if abs(sum(cfg.mix) - 1.0) > 1e-9 or min(cfg.mix) < 0:
        raise ValueError(f"category mix must be nonnegative and sum to 1: {cfg.mix}")
    if cfg.rank_sizes is not None and len(cfg.rank_sizes) != cfg.num_ranks:
        raise ValueError("rank_sizes length must equal num_ranks")
    if cfg.num_subtasks < 1:
        raise ValueError(f"a task needs at least one sub-task, got {cfg.num_subtasks}")
    if not 0.0 < cfg.size_min_bytes <= cfg.size_max_bytes:
        raise ValueError(
            f"empty size range [{cfg.size_min_bytes}, {cfg.size_max_bytes}]")
    if not 0.0 <= cfg.rho_min <= cfg.rho_max or cfg.rho_max == 0.0:
        raise ValueError(f"empty rho range [{cfg.rho_min}, {cfg.rho_max}]")
    if cfg.num_ranks < 1:
        raise ValueError(f"library needs at least one rank, got {cfg.num_ranks}")
    rng = np.random.default_rng(rng_seed)
    subtasks = []
    for _ in range(cfg.num_subtasks):
        cat = _CATEGORIES[int(rng.choice(3, p=cfg.mix))]
        if cat is Category.UPLOAD:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=0.0, rho=0.0, out_rank=0))
            continue
        rank = int(rng.integers(1, cfg.num_ranks + 1))
        if cfg.rank_sizes is not None:
            d_out = float(cfg.rank_sizes[rank - 1])
        else:
            d_out = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
        if cat is Category.DOWNLOAD:
            subtasks.append(SubTask(cat, d_in=0.0, d_out=d_out, rho=0.0, out_rank=rank))
        else:
            d_in = float(rng.uniform(cfg.size_min_bytes, cfg.size_max_bytes))
            rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            while rho == 0.0:  # compute sub-tasks must demand work
                rho = float(rng.uniform(cfg.rho_min, cfg.rho_max))
            subtasks.append(SubTask(cat, d_in=d_in, d_out=d_out, rho=rho, out_rank=rank))
    return tuple(subtasks)


def classify(st: SubTask) -> Category:
    """Re-derive the category from the sign pattern alone.

    Upload: zeta = 0, d_in > 0, d_out = 0. Download: zeta = 0, d_in = 0,
    d_out > 0. Compute: zeta > 0, d_in > 0, d_out > 0. Anything else
    (an all-zero sub-task, say) matches no row and raises.
    """
    if st.zeta == 0.0 and st.d_in > 0.0 and st.d_out == 0.0:
        return Category.UPLOAD
    if st.zeta == 0.0 and st.d_in == 0.0 and st.d_out > 0.0:
        return Category.DOWNLOAD
    if st.zeta > 0.0 and st.d_in > 0.0 and st.d_out > 0.0:
        return Category.COMPUTE
    raise ValueError(f"sub-task matches no category row: {st}")


def task_to_lines(task: TaskGraph) -> list[str]:
    """One sub-task per line: index,category,d_in,d_out,rho,rank."""
    return [
        f"{i},{st.category.value},{st.d_in!r},{st.d_out!r},{st.rho!r},{st.out_rank}"
        for i, st in enumerate(task)
    ]


def task_from_lines(lines: list[str]) -> TaskGraph:
    subtasks = []
    for i, line in enumerate(lines):
        parts = line.strip().split(",")
        if len(parts) != 6:
            raise ValueError(f"bad sub-task record: {line!r}")
        idx, cat, d_in, d_out, rho, rank = parts
        if int(idx) != i:
            raise ValueError(f"sub-task indices must be contiguous, got {idx} at {i}")
        st = SubTask(Category(cat), float(d_in), float(d_out), float(rho), int(rank))
        if classify(st) is not st.category:
            raise ValueError(f"category {cat} inconsistent with sizes in {line!r}")
        subtasks.append(st)
    return tuple(subtasks)
