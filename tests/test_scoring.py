"""Block scoring against the per-state path it replaced, and a price-scaling relation.

Every fresh-mode scheme is built and scored for a whole Tables block:
actions are N x V arrays of PAIRS indices, projection and decoding are
one NEAR lookup, and action_report gathers each state's cost and time at
its pairs. The per-state references in conftest share none of that code;
the two paths must agree bit for bit. Scaling every price by a power of
two scales every reward exactly and leaves everything else unchanged,
raising one price alone moves the optimal bits it prices one way only,
when only completion time is priced no scheme finishes an episode sooner
than the oracle, and a change of byte and cycle units changes nothing.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satedge.cli import run_compare, run_gen_dataset, run_train
from satedge.config import default_config, load_config
from satedge.dil import action_report, oracle_actions, scheme_actions, train_policy
from satedge.evaluator import (BLOCK_STATES, FEASIBLE, NEAR, PAIRS, ActionMatrix,
                               InfeasibleActionError, PriceVector, label_bits,
                               nearest_feasible, score)
from satedge.neural import FeatureScaler, feature_dim, forward, init_model
from satedge.oracle import label_states
from satedge.policies import BASELINE_PAIRS, baseline_name
from satedge.scenario import episode_blocks, make_library, prices_from

from conftest import (reference_action_report, reference_baseline_policy,
                      reference_baseline_proposal, reference_decode_actions,
                      reference_feasible_actions, states_of, stream_blocks)
from test_cli import TINY_CONFIG

SCHEMES = ("oracle", "docs") + tuple(baseline_name(of, ch) for of, ch in BASELINE_PAIRS)
CONFIGS = {
    "fixed": {},
    "orbit": {"coverage_mode": "orbit"},
    "nine-subtasks": {"num_subtasks": 9},
    # about the median return leg: coverage expiry forces many cache bits
    "short-coverage": {"coverage_s": 0.16},
}


def _hex(report: dict[str, float]) -> dict[str, str]:
    return {key: float(value).hex() for key, value in report.items()}


def test_near_is_nearest_feasible_in_every_cell():
    assert NEAR.shape == (len(FEASIBLE), len(PAIRS))
    for pattern, feas in enumerate(FEASIBLE):
        for p, pair in enumerate(PAIRS):
            assert PAIRS[NEAR[pattern, p]] == nearest_feasible(feas, pair)
            assert PAIRS[NEAR[pattern, p]] in feas


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_block_scoring_matches_the_per_state_path(name):
    scen = replace(default_config().scenario, **CONFIGS[name])
    v = scen.num_subtasks
    prices = prices_from(scen)
    # two blocks, the second partial
    blocks = stream_blocks(scen, 7, BLOCK_STATES + 20)
    states = states_of(blocks)
    demos = label_states(blocks, prices, FeatureScaler.from_scenario(scen))
    # untrained, so its outputs straddle 0.5 and decoding meets every pair
    model = init_model((feature_dim(v), 16, 2 * v), seed=11)
    probs = forward(model, demos.features)
    moved = 0
    for scheme in SCHEMES:
        actions = scheme_actions(scheme, model, demos, blocks, prices)
        if scheme == "oracle":
            reference = [ActionMatrix.from_bits(d.labels) for d in demos]
        elif scheme == "docs":
            reference = [reference_decode_actions(row, s) for row, s in zip(probs, states)]
        else:
            of_kind, ch_kind = scheme.split("-")
            reference = [reference_baseline_policy(of_kind, ch_kind, s, prices)
                         for s in states]
            moved += sum(
                pair != action.pair(i)
                for s, action in zip(states, reference)
                for i, pair in enumerate(
                    reference_baseline_proposal(of_kind, ch_kind, s, prices)))
        assert actions.shape == (len(states), v)
        assert [tuple(row) for row in label_bits(actions).tolist()] == \
            [a.offload + a.cache for a in reference]
        assert _hex(action_report(actions, demos, blocks, prices)) == \
            _hex(reference_action_report(reference, demos, states, prices))
    if name == "short-coverage":
        # forced caching: retention proposes uncached outputs that must be cached
        forced = sum(all(ch for _, ch in reference_feasible_actions(sub, s))
                     for s in states for sub in s.task)
        assert forced > 0 and moved > 0


@pytest.mark.parametrize("bad", [-1, 4, "float"])
def test_score_rejects_entries_that_are_not_pair_indices(bad):
    scen = default_config().scenario
    blocks = stream_blocks(scen, 1, 3)
    prices = prices_from(scen)
    actions = oracle_actions(label_states(blocks, prices, FeatureScaler.from_scenario(scen)))
    if bad == "float":
        actions, where = actions.astype(float), "episode 0, sub-task 0"
    else:
        actions[1, 2], where = bad, "episode 1, sub-task 2"
    with pytest.raises(InfeasibleActionError, match=where):
        score(blocks, actions, prices)


@pytest.mark.parametrize("coverage", ["fixed", "orbit"])
def test_power_of_two_prices_scale_only_the_rewards(tmp_path, coverage):
    config = tmp_path / "tiny.txt"
    config.write_text(TINY_CONFIG + f"coverage_mode = {coverage}\n")
    cfg = load_config(config)
    for name in ("data", "fit", "base", "k1", "k-3", "k20"):
        (tmp_path / name).mkdir()
    model = run_train(cfg, 42, run_gen_dataset(cfg, 42, 60, tmp_path / "data"),
                      tmp_path / "fit")
    scaler = FeatureScaler.from_scenario(cfg.scenario)
    blocks = stream_blocks(cfg.scenario, 2042, 150)
    base_demos = label_states(blocks, prices_from(cfg.scenario), scaler)
    base = run_compare(cfg, 2042, model, 150, tmp_path / "base")
    for k in (1, -3, 20):
        factor = 2.0 ** k
        scen = cfg.scenario
        scaled = replace(cfg, scenario=replace(
            scen, price_comp=factor * scen.price_comp, price_comm=factor * scen.price_comm,
            price_cache=factor * scen.price_cache, price_cpl=factor * scen.price_cpl))
        reports = run_compare(scaled, 2042, model, 150, tmp_path / f"k{k}")
        assert list(reports) == list(base) == list(SCHEMES)
        for scheme, report in reports.items():
            expected = dict(base[scheme], mean_reward=factor * base[scheme]["mean_reward"])
            assert _hex(report) == _hex(expected), (k, scheme)
        demos = label_states(blocks, prices_from(scaled.scenario), scaler)
        for demo, ref in zip(demos, base_demos):
            assert demo.labels == ref.labels
            assert demo.features.tobytes() == ref.features.tobytes()
            assert demo.opt_reward == factor * ref.opt_reward


# price -> (label half it moves: 0 offload bits, 1 cache bits; the sign a
# change of those bits may take when that price alone rises). The cache
# price never turns a cache bit on, the communication price never turns an
# offload bit on, and the computation price never turns one off.
MONOTONE = {"cache": (1, -1), "comm": (0, -1), "comp": (0, 1)}


@pytest.mark.parametrize("name", ["fixed", "orbit", "short-coverage"])
@settings(max_examples=5, deadline=None)
@given(factor=st.floats(1.0, 1e3, exclude_min=True), seed=st.integers(0, 2**32 - 1))
@example(factor=8.0, seed=42)
def test_raising_one_price_moves_its_bits_one_way(name, factor, seed):
    """Nothing couples sub-tasks, so each sub-task's optimum is monotone in
    each price. At the defaults no cache bit is optimal, so only the short
    coverage window, which forces caching, tests the cache price."""
    scen = replace(default_config().scenario, **CONFIGS[name])
    v = scen.num_subtasks
    scaler = FeatureScaler.from_scenario(scen)
    blocks = stream_blocks(scen, seed, 150)
    prices = prices_from(scen)
    base = label_states(blocks, prices, scaler).labels
    if name == "short-coverage":
        assert base[:, v:].any()
    for price, (half, sign) in MONOTONE.items():
        raised = replace(prices, **{price: factor * getattr(prices, price)})
        labels = label_states(blocks, raised, scaler).labels
        change = (labels - base)[:, half * v:(half + 1) * v]
        assert (sign * change >= 0).all(), (price, factor)


TIME_ONLY = PriceVector(comp=0.0, comm=0.0, cache=0.0, cpl=1.0)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_oracle_finishes_first_when_only_time_is_priced(name):
    """At prices (0, 0, 0, 1) the oracle minimises the completion time over
    every feasible action, so each scheme's time, episode by episode, is at
    least the oracle's. Nothing couples sub-tasks, so the relation holds."""
    scen = replace(default_config().scenario, **CONFIGS[name])
    blocks = stream_blocks(scen, 11, 1500)
    demos = label_states(blocks, TIME_ONLY, FeatureScaler.from_scenario(scen))
    tiny = replace(default_config().train, hidden_layers=1, hidden_width=16,
                   batch_size=16, max_epochs=3)
    model = train_policy(demos, tiny, seed=5).model
    _, fastest = score(blocks, oracle_actions(demos), TIME_ONLY)
    slower = set()
    for scheme in SCHEMES:
        _, times = score(blocks, scheme_actions(scheme, model, demos, blocks, TIME_ONLY),
                         TIME_ONLY)
        assert all(t >= best for t, best in zip(times, fastest)), scheme
        slower |= {scheme for t, best in zip(times, fastest) if t > best}
    assert {"to-mrc", "le-mrc"} <= slower


@pytest.mark.parametrize("name", ["fixed", "orbit", "short-coverage"])
def test_a_change_of_units_changes_no_label(name):
    """Count bytes and cycles in units 2^k times smaller: every size,
    bandwidth and the CPU rate scale by 2^k and the per-byte and per-cycle
    prices by 2^-k. Every time, scaled feature and reward is then the same
    float, so every dataset row and every scheme's report is unchanged."""
    scen = replace(default_config().scenario, **CONFIGS[name])

    def labelled(scen):
        prices = prices_from(scen)
        demos = label_states(stream_blocks(scen, 11, 400), prices,
                             FeatureScaler.from_scenario(scen))
        head = demos.take(slice(200))
        # the first 200 episodes, drawn again as a block of their own
        blocks = list(episode_blocks(scen, 11, range(200), make_library(scen, 11)))
        reports = {scheme: _hex(action_report(
            scheme_actions(scheme, None, head, blocks, prices),
            head, blocks, prices)) for scheme in ("go-mrc", "le-mpc", "to-mrc")}
        rows = [(d.labels, d.opt_reward.hex(), d.features.tobytes()) for d in demos]
        return rows, reports

    base = labelled(scen)
    for k in (-3, 1, 7, 20):
        up, down = 2.0 ** k, 2.0 ** -k
        scaled = replace(
            scen, size_min_bytes=up * scen.size_min_bytes,
            size_max_bytes=up * scen.size_max_bytes, bandwidth_fh_hz=up * scen.bandwidth_fh_hz,
            bandwidth_bh_hz=up * scen.bandwidth_bh_hz, cpu_rate_hz=up * scen.cpu_rate_hz,
            price_comp=down * scen.price_comp, price_comm=down * scen.price_comm,
            price_cache=down * scen.price_cache)
        assert labelled(scaled) == base, k
