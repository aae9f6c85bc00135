"""Episode seeding against numpy's own SeedSequence and PCG64 seeding.

A stream hashes a block of episodes' keys with `seeding`'s uint32-array
re-implementation of numpy's SeedSequence, lets numpy seed fresh PCG64
generators for each episode from the hashed words (`seeding.Key`), and
decodes the block's task chains from raw output. Every block takes this
path, whatever its length, and a lone episode_state call hashes its keys
as a block of one and draws its chain by generate_task. The reference is
numpy itself, through conftest's reference_stream_rng: every generator
state must match, and every episode, drawn in a block or alone, must
equal conftest's reference_episode_state, whose every stream numpy seeds.
"""

import os
import re
import subprocess
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import satedge
from satedge import scenario, seeding
from satedge.config import default_config
from satedge.evaluator import BLOCK_STATES
from satedge.scenario import episode_state, episode_states, episode_stream, make_library

from conftest import reference_episode_state, reference_stream_rng

# entropy ints of one, two, three to four, and four to five uint32 words
INTS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                 st.integers(2**64, 2**100 - 1), st.integers(2**100, 2**140))
SEED = 42


def _scen(mode: str, num_subtasks: int = 6):
    return replace(default_config().scenario, coverage_mode=mode,
                   num_subtasks=num_subtasks)


def _reference_states(mode: str, seed: int, ids) -> list[tuple[dict, ...]]:
    tags = (0, 1, 2) if mode == "fixed" else (0, 1, 2, 3)  # fixed mode seeds no orbit stream
    return [tuple(reference_stream_rng(seed, e, tag).bit_generator.state for tag in tags)
            for e in ids]


def _block_states(mode: str, seed: int, ids) -> list[tuple[dict, ...]]:
    """The state numpy's PCG64 takes from each key of each episode of a block."""
    return [tuple(np.random.PCG64(key).state for key in keys)
            for keys in scenario._block_rng_states(_scen(mode), seed, ids)]


@settings(max_examples=40, deadline=None)
@given(seed=INTS, ids=st.lists(INTS, min_size=1, max_size=12),
       mode=st.sampled_from(["fixed", "orbit"]))
@example(seed=2**100, ids=[0, 2**32, 2**64, 2**100], mode="orbit")  # 5 to 8 words a key
def test_block_states_match_numpy_for_any_key(seed, ids, mode):
    assert _block_states(mode, seed, ids) == _reference_states(mode, seed, ids)


@settings(max_examples=10, deadline=None)
@given(size=st.integers(1, 300), first=st.integers(0, 2**33), seed=st.integers(0, 2**32 - 1))
@example(size=1, first=0, seed=SEED)
@example(size=15, first=7, seed=SEED)
@example(size=300, first=0, seed=SEED)
@example(size=40, first=2**32 - 20, seed=SEED)  # one block, ids of one and two words
def test_block_states_match_numpy_at_every_block_size(size, first, seed):
    ids = range(first, first + size)
    assert _block_states("orbit", seed, ids) == _reference_states("orbit", seed, ids)


@settings(max_examples=30, deadline=None)
@given(task_seeds=st.lists(st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1)),
                           min_size=1, max_size=8))
@example(task_seeds=[0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_task_second_pass_matches_default_rng(task_seeds):
    """default_rng hashes a task seed below 2^32 as one word, others as two;
    the block seeder hashes every one as (low, high) words."""
    entropy = np.array([[t & 0xFFFFFFFF for t in task_seeds], [t >> 32 for t in task_seeds]],
                       dtype=np.uint32)
    words = np.ascontiguousarray(seeding.generate_state(entropy, 8).T)
    assert [np.random.PCG64(seeding.Key(w)).state for w in words] == \
        [np.random.default_rng(t).bit_generator.state for t in task_seeds]


def test_key_answers_only_the_request_pcg64_makes():
    words = np.random.SeedSequence(7).generate_state(8)
    key = seeding.Key(words)
    assert key.generate_state(4, np.uint64).tolist() == \
        np.random.SeedSequence(7).generate_state(4, np.uint64).tolist()
    for n_words, dtype in [(8, np.uint32), (4, np.uint32), (2, np.uint64), (624, np.uint32)]:
        with pytest.raises(ValueError, match="PCG64 only"):
            key.generate_state(n_words, dtype)
    with pytest.raises(ValueError, match="PCG64 only"):
        np.random.MT19937(key)  # asks for 624 uint32 words


@pytest.mark.parametrize("bad", [-1, -2**32, -2**70])
def test_negative_seed_or_episode_raises_value_error(bad):
    scen = _scen("orbit")
    library = make_library(scen, 1)
    block = [5, 6]
    calls = [
        lambda: scenario._block_rng_states(scen, bad, [0, 1]),
        lambda: scenario._block_rng_states(scen, 1, [0, bad]),
        lambda: list(episode_stream(scen, bad, 40)),
        lambda: list(episode_states(scen, bad, block, library)),
        lambda: list(episode_states(scen, 1, block + [bad], library)),
        lambda: list(episode_states(scen, 1, [bad], library)),  # a block of one
        lambda: episode_state(scen, 1, bad, library),  # drawn alone
        lambda: make_library(scen, bad),
    ]
    for call in calls:
        with pytest.raises(ValueError):
            call()


@pytest.mark.parametrize("bad", [1.5, np.float64(3.0), 2**32 + 0.5])
def test_non_integer_episode_id_raises_type_error(bad):
    """A float id must not be truncated to an episode the caller never named."""
    scen = _scen("orbit")
    library = make_library(scen, 1)
    named = f"episode id {bad!r} is not an integer"
    for ids in ([bad], [bad, 2], [2, bad], list(range(BLOCK_STATES)) + [bad]):
        with pytest.raises(TypeError, match=re.escape(named)):
            list(episode_states(scen, 1, ids, library))
    with pytest.raises(TypeError, match=re.escape(named)):
        episode_state(scen, 1, bad, library)  # drawn alone


@pytest.mark.parametrize("bad", [1.5, np.float64(3.0), "7"])
def test_non_integer_run_seed_raises_type_error(bad):
    """Every draw names a seed that is not an integer, as it names an id:
    numpy's SeedSequence would key the library and the stream of seed 7 on '7'."""
    scen = _scen("orbit")
    library = make_library(scen, 1)
    named = f"run seed {bad!r} is not an integer"
    for ids in ([1], [1, 2], list(range(BLOCK_STATES + 1))):
        with pytest.raises(TypeError, match=re.escape(named)):
            list(episode_states(scen, bad, ids, library))
    with pytest.raises(TypeError, match=re.escape(named)):
        episode_state(scen, bad, 1, library)  # drawn alone
    with pytest.raises(TypeError, match=re.escape(named)):
        make_library(scen, bad)


@settings(max_examples=30, deadline=None)
@given(seed=INTS, ids=st.lists(INTS, min_size=1, max_size=3),
       mode=st.sampled_from(["fixed", "orbit"]))
@example(seed=2**100, ids=[0, 2**32, 2**64, 2**100 + 1], mode="orbit")  # 6 to 9 words a key
@example(seed=SEED, ids=[0, 1], mode="fixed")
def test_lone_episode_equals_numpy_seeded_reference(seed, ids, mode):
    """A lone episode_state call hashes its own keys, for any seed and id."""
    scen = _scen(mode)
    library = make_library(scen, seed)
    for e in ids:
        assert episode_state(scen, seed, e, library) == \
            reference_episode_state(scen, seed, e, library)


@lru_cache(maxsize=None)
def _drawn_alone(mode: str, num_subtasks: int) -> tuple:
    scen = _scen(mode, num_subtasks)
    library = make_library(scen, SEED)
    return tuple(reference_episode_state(scen, SEED, i, library) for i in range(300))


@pytest.mark.parametrize("mode", ["fixed", "orbit"])
@pytest.mark.parametrize("num_subtasks", [1, 6, 9])
@pytest.mark.parametrize("n", [1, 2, 7, 8, 15, 16, 17, 31, 32, 255, 256, 257, 300])
def test_stream_equals_episodes_drawn_alone(mode, num_subtasks, n):
    """Nothing passes from one episode, or block, to the next: not the uint32
    left buffered by ``integers``, not a skipped orbit stream."""
    scen = _scen(mode, num_subtasks)
    alone = list(_drawn_alone(mode, num_subtasks)[:n])
    assert [state for _, state in episode_stream(scen, SEED, n)] == alone
    backwards = episode_states(scen, SEED, range(n - 1, -1, -1), make_library(scen, SEED))
    assert list(backwards) == alone[::-1]


def _task_bits(state) -> list[tuple]:
    return [(s.category, s.d_in.hex(), s.d_out.hex(), s.rho.hex(), s.out_rank)
            for s in state.task]


@settings(max_examples=25, deadline=None)
@given(num_subtasks=st.sampled_from([1, 6, 9, 12]), num_ranks=st.sampled_from([1, 2, 30, 1000]),
       mix=st.sampled_from([(0.05, 0.05, 0.9), (0.0, 0.1, 0.9), (1.0, 0.0, 0.0),
                            (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)]),
       rho_min=st.sampled_from([0.0, 800.0]), mode=st.sampled_from(["fixed", "orbit"]),
       size=st.sampled_from([1, 2, 7, 8, 15, 16, 17, 255, 256, 257]),
       first=st.sampled_from([0, 2**32 - 100]),
       seed=st.integers(0, 2**32 - 1))
@example(num_subtasks=1, num_ranks=1, mix=(0.0, 0.1, 0.9), rho_min=0.0, mode="fixed",
         size=1, first=0, seed=SEED)
@example(num_subtasks=9, num_ranks=2, mix=(0.05, 0.05, 0.9), rho_min=0.0, mode="orbit",
         size=7, first=2**32 - 100, seed=SEED)
@example(num_subtasks=6, num_ranks=2, mix=(1.0, 0.0, 0.0), rho_min=800.0, mode="orbit",
         size=16, first=2**32 - 100, seed=SEED)
@example(num_subtasks=9, num_ranks=30, mix=(0.0, 1.0, 0.0), rho_min=0.0, mode="fixed",
         size=17, first=2**32 - 100, seed=SEED)
@example(num_subtasks=12, num_ranks=1000, mix=(0.05, 0.05, 0.9), rho_min=800.0,
         mode="orbit", size=256, first=0, seed=SEED)
@example(num_subtasks=6, num_ranks=30, mix=(0.0, 0.0, 1.0), rho_min=0.0, mode="fixed",
         size=257, first=2**32 - 100, seed=SEED)
def test_decoded_chains_equal_episodes_drawn_alone(num_subtasks, num_ranks, mix, rho_min,
                                                   mode, size, first, seed):
    """A block, of any length, decodes its chains from raw output; the
    reference runs generate_task. Every float must agree bit for bit."""
    scen = replace(_scen(mode, num_subtasks), num_ranks=num_ranks, rho_min=rho_min,
                   mix_upload=mix[0], mix_download=mix[1], mix_compute=mix[2])
    library = make_library(scen, seed)
    ids = range(first, first + size)
    block = list(episode_states(scen, seed, ids, library))
    alone = [reference_episode_state(scen, seed, e, library) for e in ids]
    assert block == alone
    assert [_task_bits(s) for s in block] == [_task_bits(s) for s in alone]


@pytest.mark.parametrize("mode", ["fixed", "orbit"])
@pytest.mark.parametrize("n, given_up", [
    (20, lambda rows: rows[:1]),
    (20, lambda rows: rows[-1:]),
    (20, lambda rows: rows),
    (1, lambda rows: rows),
    (BLOCK_STATES + 1, lambda rows: rows[::len(rows) - 1 or 1]),
], ids=["first", "last", "all", "only-row", "ends-of-two-blocks"])
def test_rows_the_decoder_gives_up_on_equal_episodes_drawn_alone(monkeypatch, mode, n,
                                                                  given_up):
    """A row decode_tasks leaves as None is drawn by generate_task from a
    fresh generator on its task key, and the rows around it are not disturbed."""
    plain_decode, plain_generate = scenario.decode_tasks, scenario.generate_task
    dropped, generated = [], []

    def decode(raw, cfg, library):
        tasks, columns = plain_decode(raw, cfg, library)
        rows = given_up(list(range(len(tasks))))
        for row in rows:
            tasks[row] = None
        dropped.extend(rows)
        return tasks, columns

    def generate(*args):
        generated.append(args)
        return plain_generate(*args)

    monkeypatch.setattr(scenario, "decode_tasks", decode)
    monkeypatch.setattr(scenario, "generate_task", generate)
    assert [state for _, state in episode_stream(_scen(mode), SEED, n)] == \
        list(_drawn_alone(mode, 6)[:n])
    assert dropped and len(generated) == len(dropped)


@pytest.mark.parametrize("mode", ["fixed", "orbit"])
def test_scattered_ids_equal_episodes_drawn_alone(mode):
    """A sweep's test split: ids out of order, with gaps, some past 2^32."""
    scen = _scen(mode)
    library = make_library(scen, 9)
    ids = np.random.default_rng(3).permutation(2000)[:100].tolist() + [2**32 + 5, 2**40, 17]
    assert list(episode_states(scen, 9, ids, library)) == \
        [reference_episode_state(scen, 9, e, library) for e in ids]


def test_live_iterators_do_not_share_generators():
    scen = _scen("orbit")
    library = make_library(scen, SEED)
    first = episode_states(scen, SEED, range(40), library)
    second = episode_states(scen, SEED, range(40, 80), library)
    interleaved = [state for pair in zip(first, second) for state in pair]
    alone = _drawn_alone("orbit", 6)
    assert interleaved == [alone[i] for pair in zip(range(40), range(40, 80)) for i in pair]


def test_each_state_is_one_call_of_the_module_global(monkeypatch):
    """The benchmark tracer times episode_state by rebinding the module global."""
    drawn = []
    plain = scenario.episode_state

    def counted(*args, **kwargs):
        drawn.append(args[2])
        return plain(*args, **kwargs)

    monkeypatch.setattr(scenario, "episode_state", counted)
    n = BLOCK_STATES + 1  # a full block, then a block of one
    assert len(list(episode_stream(_scen("fixed"), SEED, n))) == n
    assert drawn == list(range(n))


def test_import_loads_no_numpy_random():
    """`import numpy` leaves numpy.random to first use, and `import satedge`
    must too: seeding, which imports it, is imported only where a draw runs."""
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import satedge\n"
            "print(sorted(m for m in set(sys.modules) - before\n"
            "             if m == 'numpy.random' or m.startswith('numpy.random.')))\n")
    src = str(Path(satedge.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert run.stdout.strip() == "[]"
