"""The benchmark's tracer still finds, wraps and restores every name it traces.

perfbench/tracing.py rebinds library functions by name, so deleting or
renaming one would break only `perfbench/run.py --trace 1`. A small
traced compare run here makes such a break fail the test suite instead.
"""

import importlib.util
import sys
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

from satedge import neural, oracle
from satedge.cli import run_compare, run_gen_dataset, run_train
from satedge.config import default_config
from satedge.policies import BASELINE_PAIRS, baseline_name

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def _bindings():
    """Every satedge module global and FeatureScaler attribute, by identity."""
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and name.split(".")[0] == "satedge":
            found.update({(name, attr): value for attr, value in vars(mod).items()})
    found.update({("FeatureScaler", attr): value
                  for attr, value in vars(neural.FeatureScaler).items()})
    return found


def _traced(stage, episodes):
    """Run stage() under an installed tracer; check every name is restored.

    Returns the bindings the tracer replaced and its per-layer metrics.
    """
    before = _bindings()
    tracer = _load_tracer()
    try:
        tracer.install()
        wrapped = {key for key, value in _bindings().items() if value is not before[key]}
        stage()
        metrics = tracer.layer_metrics(episodes)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert [key for key in before if after[key] is not before[key]] == []
    return wrapped, metrics


def _states(blocks):
    return sum(map(len, blocks))


@contextmanager
def _block_sizes(module, name, rows=len):
    """Record the rows of the first argument of each call of module.name."""
    func = getattr(module, name)
    sizes = []

    def counted(*args, **kwargs):
        sizes.append(rows(args[0]))
        return func(*args, **kwargs)

    setattr(module, name, counted)
    try:
        yield sizes
    finally:
        setattr(module, name, func)


def test_tracer_wraps_label_and_restores_every_name(tmp_path):
    cfg = default_config()

    def stage():
        with _block_sizes(oracle, "block_argmin") as solved, \
                _block_sizes(oracle, "encode_states", _states) as encoded:
            run_gen_dataset(cfg, 42, 10, tmp_path)
        assert solved == encoded == [10]  # one block: every episode once

    wrapped, metrics = _traced(stage, 10)
    assert ("satedge.scenario", "episode_state") in wrapped
    assert ("satedge.neural", "encode_state") in wrapped
    # the block draws its episodes as arrays, past the lone episode_state
    assert metrics["scenario.episode_state.n"] == 0
    # labelling runs in blocks, past the per-state solver, encoder and
    # feasibility function the tracer times
    assert metrics["oracle.solve_optimal.n"] == 0
    assert metrics["neural.encode_state.n"] == 0
    assert metrics["evaluator.feasible_actions.calls_per_ep"] == 0
    assert metrics["oracle.write_dataset.s"] > 0


def test_tracer_wraps_compare_and_restores_every_name(tmp_path):
    cfg = default_config()
    cfg = replace(cfg, train=replace(cfg.train, max_epochs=2))
    dataset = run_gen_dataset(cfg, 42, 60, tmp_path)
    model = run_train(cfg, 42, dataset, tmp_path)

    def stage():
        with _block_sizes(oracle, "block_argmin") as solved, \
                _block_sizes(oracle, "encode_states", _states) as encoded:
            run_compare(cfg, 2042, model, 10, tmp_path)
        assert solved == encoded == [10]  # the stream is labelled once

    wrapped, metrics = _traced(stage, 10)
    assert ("satedge.evaluator", "feasible_actions") in wrapped
    assert ("FeatureScaler", "transform") in wrapped
    assert ("satedge.scenario", "episode_state") in wrapped
    assert metrics["scenario.episode_state.n"] == 0
    assert metrics["oracle.solve_optimal.n"] == 0
    # every state reads its feasible sets and costs from one Tables block, so
    # neither per-sub-task function runs, whatever number of schemes is scored
    assert metrics["evaluator.feasible_actions.calls_per_ep"] == 0
    assert metrics["evaluator.subtask_cost.calls_per_ep"] == 0
    # the tracer counts cache offers and evictions through evict_mrc and
    # evict_mpc, which the baselines' retention, replayed on each block's
    # arrays, no longer calls; test_policies pins the 12.0 offers and 0.5
    # evictions per episode these ten episodes make, per state
    assert metrics["caching.evict.calls_per_ep"] == 0
    assert metrics["caching.evictions_per_ep"] == 0
    # each baseline is still built through dil.baseline_actions, once per stream
    for of_kind, ch_kind in BASELINE_PAIRS:
        assert metrics[f"policies.{baseline_name(of_kind, ch_kind)}.us_per_ep"] > 0
