"""Exact per-episode optimum and demonstration dataset construction.

The reward is a sum of per-sub-task terms that nothing couples (cache
bits face no capacity limit), so the optimum over the pre-classified
joint action space is found from one cost table per sub-task without
forming the joint product. The result is the one an exhaustive
enumeration returns: the total is the chain-order left fold of the
picked costs, so it agrees bit-for-bit with evaluator.reward, and ties,
including ties that float rounding creates in the total, fall to the
lexicographically smallest pick (prefer local, prefer not caching).

block_argmin applies that rule to every state of a Tables block at
once, and label_states labels a sequence of blocks through it: a stream
as scenario.episode_blocks draws it, and so the carried blocks of a
baseline's persistent rollout; under oracle and docs, whose next state
depends on an action read from this one's labels, a rollout labels in
blocks of one. solve_optimal is block_argmin on a block of one.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import ScenarioConfig, scenario_hash
from .evaluator import (BLOCK_STATES, ActionMatrix, EpisodeState, PriceVector, Tables, at_hits,
                        label_bits)
from .neural import (LAYOUT_VERSION, FeatureScaler, canonical_int, encode_states,
                     feature_dim, stray_row)
from .scenario import episode_blocks, make_library, prices_from


@dataclass(frozen=True)
class Demonstration:
    """One row of a Demonstrations block, as iterating the block yields it."""
    episode_id: int
    features: np.ndarray  # encoded state, layout v1
    labels: tuple[int, ...]  # blocked bits: offload then cache
    opt_reward: float


@dataclass(frozen=True, eq=False)
class Demonstrations:
    """Labelled episodes as four aligned columns, one row per episode."""
    episode_id: np.ndarray  # N ids
    features: np.ndarray  # N x F encoded states, layout v1
    labels: np.ndarray  # N x 2V blocked bits (np.intp): offload then cache
    opt_reward: np.ndarray  # N optimal rewards

    @classmethod
    def stack(cls, blocks: Sequence[Demonstrations]) -> Demonstrations:
        """The blocks' rows in order, renumbered from 0."""
        columns = [np.concatenate([getattr(b, f.name) for b in blocks]) for f in fields(cls)]
        return cls(np.arange(len(columns[0])), *columns[1:])

    def take(self, rows) -> Demonstrations:
        """The rows a numpy index selects, ids kept."""
        return Demonstrations(*(getattr(self, f.name)[rows] for f in fields(self)))

    def __len__(self) -> int:
        return len(self.episode_id)

    def __iter__(self) -> Iterator[Demonstration]:
        for episode, row, bits, value in zip(self.episode_id.tolist(), self.features,
                                             self.labels.tolist(), self.opt_reward.tolist()):
            yield Demonstration(episode, row, tuple(bits), value)


def block_argmin(costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First minimum, in row-major order, of the left-fold sum over the
    tables of every row of an N x V x K cost block at once.

    Row n holds V tables of K costs, +inf marking an absent entry (an
    infeasible pair), and no NaN. Returns
    the N x V picks and the N totals: for each row, np.argmin of the
    iterated np.add.outer of its tables (unravelled) and the total at
    that index, bit for bit, each step one whole-array operation over
    the N rows. Round-to-nearest addition is monotone in each operand,
    so the fold of the per-table minima is the minimum total, and a
    prefix can still reach it exactly when the prefix completed with the
    remaining minima does: each step picks the first entry whose
    completion folds to the optimum's total.
    """
    n, num_tables, _ = costs.shape
    mins = costs.min(axis=2)
    optimum = mins[:, 0] if num_tables else np.zeros(n)
    for v in range(1, num_tables):
        optimum = optimum + mins[:, v]
    rows = np.arange(n)
    picks = np.empty((n, num_tables), dtype=np.intp)
    total = np.zeros(n)
    for v in range(num_tables):
        # the fold starts at the first cost itself, as np.add.outer does
        acc = costs[:, v] if v == 0 else total[:, None] + costs[:, v]
        completion = acc
        for k in range(v + 1, num_tables):
            completion = completion + mins[:, k, None]
        picks[:, v] = (completion == optimum[:, None]).argmax(axis=1)  # first True
        total = acc[rows, picks[:, v]]
    return picks, total


def solve_optimal(state: EpisodeState, prices: PriceVector) -> tuple[ActionMatrix, float]:
    """Minimum-reward action over the pre-classified joint action space:
    block_argmin on the state's own block of one.

    Each sub-task's table holds all four pairs, +inf on the infeasible
    ones, which never reach the optimum, so the picks are PAIRS indices.
    """
    block = Tables([state])
    picks, values = block_argmin(at_hits(block.costs(prices), block.hits))
    return ActionMatrix.from_picks(picks[0].tolist()), values.item()


def label_states(blocks: Iterable[Tables], prices: PriceVector,
                 scaler: FeatureScaler) -> Demonstrations:
    """Solve and encode pre-drawn blocks of states; episode ids count from 0.

    Each block runs one block_argmin over its cost table at its states'
    own hits and one scaling call. ValueError if there is no block.
    """
    labelled = []
    for block in blocks:
        picks, values = block_argmin(at_hits(block.costs(prices), block.hits))
        labelled.append(Demonstrations(np.arange(len(values)), encode_states([block], scaler),
                                       label_bits(picks), values))
    if not labelled:
        raise ValueError("label_states needs at least one block of states, got none")
    return Demonstrations.stack(labelled)


def build_dataset(cfg: ScenarioConfig, n: int, seed: int) -> Demonstrations:
    """Generate and label n >= 1 episodes from the seeded stream."""
    if n < 1:
        raise ValueError(f"build_dataset needs at least one episode, got n={n}")
    return label_states(episode_blocks(cfg, seed, range(n), make_library(cfg, seed)),
                        prices_from(cfg), FeatureScaler.from_scenario(cfg))


# ---------------------------------------------------------------------------
# dataset file format: one header line, then one comma-separated record per
# episode: id, features..., label bitstring, optimal reward. Every float is
# spelled as repr() spells it. The writer spells each distinct float64 bit
# pattern once per block of up to BLOCK_STATES records and copies the
# spelling into every field that holds it; the key is the bits, not the
# value, since -0.0 == 0.0 but the two are spelled differently.

_HEADER_KEYS = ("config", "layout", "subtasks", "features")  # after the magic, in order


def write_dataset(path: str | Path, demos: Demonstrations, cfg: ScenarioConfig) -> None:
    """Write demos in the layout read_dataset reads; ValueError names the
    first episode that read_dataset would refuse, before anything is written.

    Features are written as float64. Within each block of up to
    BLOCK_STATES records, repr() runs once per distinct bit pattern of the
    block's features (about a third of them on the default stream), and the
    bytes are those of spelling every field on its own.
    """
    n_features, n_bits = feature_dim(cfg.num_subtasks), 2 * cfg.num_subtasks
    ids, labels = demos.episode_id, demos.labels
    if len(demos) and (demos.features.shape[1], labels.shape[1]) != (n_features, n_bits):
        raise ValueError(f"episode {ids[0]}: {demos.features.shape[1]} features and "
                         f"{labels.shape[1]} label bits, expected {n_features} and {n_bits}")
    bad = ((ids < 0) | ((labels != 0) & (labels != 1)).any(axis=1)
           | ~np.isfinite(demos.features).all(axis=1) | ~np.isfinite(demos.opt_reward))
    if bad.any() or not {ids.dtype.kind, labels.dtype.kind} <= {"i", "u"}:
        raise ValueError(f"episode {ids[bad.argmax()]}: needs an integer id >= 0, integer "
                         "label bits of 0 or 1, and finite features and opt_reward")
    lines = [
        f"#satedge-dataset v1 config={scenario_hash(cfg)} "
        f"layout={LAYOUT_VERSION} subtasks={cfg.num_subtasks} features={n_features}"
    ]
    features = np.ascontiguousarray(demos.features, dtype=np.float64).view(np.int64)
    bits = (labels.astype(np.uint8) + ord("0")).view(f"S{n_bits}").astype(str)
    for start in range(0, len(demos), BLOCK_STATES):
        rows = slice(start, start + BLOCK_STATES)
        # flattened, so the inverse is 1-D on every numpy version
        keys, at = np.unique(features[rows].ravel(), return_inverse=True)
        spelled = np.array(list(map(repr, keys.view(np.float64).tolist())), dtype=object)
        table = np.empty((len(ids[rows]), n_features + 3), dtype=object)
        table[:, 0] = list(map(str, ids[rows].tolist()))
        table[:, 1:-2] = spelled[at.reshape(-1, n_features)]
        table[:, -2] = bits[rows, 0]
        table[:, -1] = list(map(repr, demos.opt_reward[rows].tolist()))
        lines.extend(map(",".join, table.tolist()))
    Path(path).write_text("\n".join(lines) + "\n")


def _ascii_lines(path: str | Path) -> list[str]:
    """The file's lines, split as str.splitlines splits them; ValueError
    names the file and line of the first byte that is not ASCII."""
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii").splitlines()
    except UnicodeDecodeError as exc:
        # one placeholder character, so a partial last line counts too
        line = len((data[:exc.start] + b"?").decode("ascii").splitlines())
        raise ValueError(f"{path}:{line}: byte {data[exc.start]:#04x} is not ASCII") from None


def read_dataset(path: str | Path) -> tuple[dict[str, str], Demonstrations]:
    """Parse a dataset file in exactly the layout write_dataset writes; any
    other header or a malformed record raises ValueError. Integers must be
    spelled as str() spells them, and no field may hold an underscore or
    whitespace, which int() and float() would forgive. The file must be
    ASCII: ValueError names the line of the first byte that is not."""
    lines = _ascii_lines(path)
    if not lines or not lines[0].startswith("#satedge-dataset v1 "):
        raise ValueError(f"{path}: not a v1 dataset file")
    tokens = [token.partition("=") for token in lines[0].split(" ")[2:]]
    if [(key, eq) for key, eq, _ in tokens] != [(key, "=") for key in _HEADER_KEYS]:
        raise ValueError(f"{path}:1: bad dataset header: expected the tokens "
                         f"{' '.join(key + '=' for key in _HEADER_KEYS)} in that order, "
                         f"got {lines[0]!r}")
    header = {key: value for key, _, value in tokens}
    try:
        layout, n_subtasks, n_features = (canonical_int(header[key])
                                          for key in _HEADER_KEYS[1:])
    except ValueError as exc:
        raise ValueError(f"{path}:1: bad dataset header: {exc}") from None
    if layout != LAYOUT_VERSION:
        raise ValueError(f"{path}: feature layout v{layout} unsupported")
    if n_subtasks < 1 or n_features != feature_dim(n_subtasks):
        raise ValueError(f"{path}: header subtasks={n_subtasks} and "
                         f"features={n_features} disagree with layout v{layout}")
    n_bits = 2 * n_subtasks
    at = stray_row(lines[1:])  # one pass over every record
    if at is not None:
        raise ValueError(f"{path}:{at + 2}: record {lines[at + 1].split(',')[0]!r}: blank, "
                         "or an underscore or whitespace in a field")
    records, fault = [], None  # fault: (record index, id field, message), raised last
    for k, line in enumerate(lines[1:]):
        parts = line.split(",")
        try:
            if len(parts) != n_features + 3:
                raise ValueError(f"bad record width {len(parts)}")
            if len(parts[-2]) != n_bits or set(parts[-2]) - {"0", "1"}:
                raise ValueError(f"bad label field {parts[-2]!r}")
            episode = canonical_int(parts[0])
            if episode < 0:
                raise ValueError("negative episode id")
            records.append((np.intp(episode),
                            array("d", map(float, parts[1:-2])),  # 8 bytes a value
                            list(map(int, parts[-2])), float(parts[-1])))
        except (ValueError, OverflowError) as exc:  # OverflowError: an id past np.intp
            fault = k, parts[0], str(exc)
            break
    del lines  # the records hold what is left to check; free the text first
    ids, features, bits, opt = zip(*records) if records else ((),) * 4
    demos = Demonstrations(np.array(ids, np.intp), np.array(features).reshape(-1, n_features),
                           np.array(bits, np.intp).reshape(-1, n_bits), np.array(opt))
    finite = np.isfinite(demos.features).all(axis=1) & np.isfinite(demos.opt_reward)
    if not finite.all():  # canonical_int made each id's str() its field as written
        fault = int(finite.argmin()), str(ids[finite.argmin()]), "non-finite value"
    if fault:
        k, field, message = fault
        raise ValueError(f"{path}:{k + 2}: record {field!r}: {message}")
    return header, demos
