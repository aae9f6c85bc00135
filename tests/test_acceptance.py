"""Release gate: every shipping requirement, one verdict line per check.

These run the real budgets (the imitation model trains on the full
50k-episode dataset), so the module takes several minutes. Each test
prints `ACCEPTANCE <n> <name>: PASS|FAIL` on its own line before
asserting, which keeps the verdicts visible in any pytest output mode.
"""

import csv
import dataclasses
import math
import time

import numpy as np
import pytest

from satedge.caching import evict_mpc, evict_mrc, request_probability
from satedge.cli import EVAL_SEED, GEN_SEED, main
from satedge.config import default_config
from satedge.dil import action_report, docs_actions, scheme_actions, train_policy
from satedge.evaluator import FEASIBLE, PAIRS, completion_time, score
from satedge.geometry import coverage_time, earth_central_angle, relative_angular_velocity
from satedge.neural import (
    FeatureScaler,
    adam_state,
    adam_step,
    cross_entropy,
    init_model,
    load_model,
    save_model,
)
from satedge.oracle import (
    build_dataset,
    label_states,
    read_dataset,
    solve_optimal,
    write_dataset,
)
from satedge.policies import BASELINE_PAIRS, baseline_actions
from satedge.scenario import episode_blocks, make_library, orbit_params, prices_from

from conftest import (cached_bytes, compute, download, empty_cache, gradient_check,
                      make_cache, make_state, solve_full_grid, states_of, stream_blocks,
                      upload)


def _verdict(capsys, number, name, ok, detail=""):
    with capsys.disabled():
        tail = f" ({detail})" if detail else ""
        print(f"\nACCEPTANCE {number} {name}: {'PASS' if ok else 'FAIL'}{tail}")


@pytest.fixture(scope="module")
def trained():
    """Full-budget dataset and policy shared by the imitation criteria."""
    cfg = default_config()
    t0 = time.perf_counter()
    demos = build_dataset(cfg.scenario, cfg.train.dataset_episodes, GEN_SEED)
    gen_s = time.perf_counter() - t0
    t1 = time.perf_counter()
    result = train_policy(demos, cfg.train, GEN_SEED)
    train_s = time.perf_counter() - t1
    library = make_library(cfg.scenario, GEN_SEED)
    test_demos = demos.take(result.test_idx)
    test_blocks = list(episode_blocks(cfg.scenario, GEN_SEED,
                                      test_demos.episode_id.tolist(), library))
    scaler = FeatureScaler.from_scenario(cfg.scenario)
    return {
        "cfg": cfg, "result": result, "scaler": scaler,
        "test_demos": test_demos, "test_blocks": test_blocks,
        "gen_s": gen_s, "train_s": train_s,
    }


def test_criterion_1_oracle_dominance(capsys):
    cfg = default_config()
    prices = prices_from(cfg.scenario)
    t0 = time.perf_counter()
    violations = 0
    blocks = stream_blocks(cfg.scenario, EVAL_SEED, 1000)
    optima = [solve_optimal(state, prices)[1] for state in states_of(blocks)]
    for of_kind, ch_kind in BASELINE_PAIRS:
        rewards, _ = score(blocks, baseline_actions(of_kind, ch_kind, blocks, prices), prices)
        violations += sum(value < opt - 1e-9 for opt, value in zip(optima, rewards))
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 60.0
    _verdict(capsys, 1, "oracle dominates every baseline", ok,
             f"{violations} violations, {elapsed:.1f}s for 1000 episodes")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_2_full_grid_equivalence(capsys):
    cfg = default_config()
    mismatches = 0
    checked = 0
    for num_subtasks in (2, 3, 4):
        scen = dataclasses.replace(cfg.scenario, num_subtasks=num_subtasks)
        prices = prices_from(scen)
        per_size = 67 if num_subtasks < 4 else 66
        for state in states_of(stream_blocks(scen, EVAL_SEED + num_subtasks, per_size)):
            fast_act, fast_val = solve_optimal(state, prices)
            grid_act, grid_val = solve_full_grid(state, prices)
            checked += 1
            if fast_act != grid_act or abs(fast_val - grid_val) > 1e-9:
                mismatches += 1
    ok = mismatches == 0 and checked == 200
    _verdict(capsys, 2, "search equals exhaustive grid", ok,
             f"{checked} episodes, {mismatches} mismatches")
    assert checked == 200
    assert mismatches == 0


def test_criterion_3_formula_goldens(capsys):
    upload_state = make_state((upload(d_in=400e3),))
    t_upload = completion_time(upload_state, _action((1,), (0,)))

    hit_state = make_state((download(d_out=160e3, rank=1),),
                           cache=make_cache(placed=(1,)))
    t_hit = completion_time(hit_state, _action((0,), (0,)))

    local = make_state((compute(d_in=100e3, d_out=100e3, rho=1e4, rank=2),),
                       cache=make_cache(placed=(2,)))
    t_low = completion_time(local, _action((0,), (0,)))
    miss = dataclasses.replace(local, cache=make_cache())
    t_work = completion_time(miss, _action((0,), (0,))) - t_low

    checks = (
        (t_upload, 3.6333333333333333),
        (t_hit, 0.83),
        (t_work, 0.1),
    )
    worst = max(abs(got - want) / want for got, want in checks)
    ok = worst <= 1e-6
    _verdict(capsys, 3, "worked formula examples", ok,
             f"worst relative error {worst:.2e}")
    for got, want in checks:
        assert abs(got - want) / want <= 1e-6, (got, want)


def _action(offload, cache):
    from satedge.evaluator import ActionMatrix

    return ActionMatrix(offload=offload, cache=cache)


def test_criterion_4_training_math(capsys):
    rng = np.random.default_rng(1234)
    worst = 0.0
    for trial in range(100):
        dims = (int(rng.integers(4, 9)), int(rng.integers(5, 11)),
                int(rng.integers(2, 7)))
        model = init_model(dims, seed=trial)
        x = rng.uniform(0.0, 1.0, size=(3, dims[0]))
        y = rng.integers(0, 2, size=(3, dims[-1])).astype(float)
        worst = max(worst, gradient_check(model, x, y, eps=1e-5))
    grad_ok = worst < 1e-4

    model = init_model((3, 2), seed=0)
    before = model.weights[0].copy()
    grads = np.array([[0.5, -2.0], [1.0, 0.25], [-0.75, 3.0]])
    opt = adam_state(model, default_config().train)
    adam_step(model, opt, [grads], [np.zeros(2)])
    steps = np.abs(before - model.weights[0])
    adam_ok = bool(np.all(np.abs(steps - 0.001) <= 1e-9))

    ce_err = abs(cross_entropy(np.array([0.5]), np.array([1.0])) - math.log(2.0))
    ce_ok = ce_err <= 1e-12

    ok = grad_ok and adam_ok and ce_ok
    _verdict(capsys, 4, "gradients, Adam step, loss golden", ok,
             f"gradcheck {worst:.2e}, adam dev {np.max(np.abs(steps - 0.001)):.1e}, "
             f"ce err {ce_err:.1e}")
    assert grad_ok and adam_ok and ce_ok


def test_criterion_5_imitation_accuracy(capsys, trained):
    cfg = trained["cfg"]
    prices = prices_from(cfg.scenario)
    demos, blocks = trained["test_demos"], trained["test_blocks"]
    model = trained["result"].model

    # every scheme acts on the drawn blocks, as compare does
    docs = action_report(docs_actions(model, demos, blocks), demos, blocks, prices)
    baseline_exact = {}
    for of_kind, ch_kind in BASELINE_PAIRS:
        acts = baseline_actions(of_kind, ch_kind, blocks, prices)
        name = f"{of_kind}-{ch_kind}"
        baseline_exact[name] = action_report(acts, demos, blocks, prices)["exact_match"]

    budget_s = trained["gen_s"] + trained["train_s"]
    time_ok = budget_s <= 1800.0
    exact_ok = docs["exact_match"] >= 0.25
    beats_all = all(docs["exact_match"] > v for v in baseline_exact.values())
    ratio_ok = docs["reward_ratio_vs_opt"] <= 1.25
    ok = time_ok and exact_ok and beats_all and ratio_ok
    best_rival = max(baseline_exact, key=baseline_exact.get)
    _verdict(capsys, 5, "imitation accuracy and budget", ok,
             f"exact {docs['exact_match']:.3f} vs best baseline "
             f"{best_rival} {baseline_exact[best_rival]:.3f}, "
             f"ratio {docs['reward_ratio_vs_opt']:.4f}, "
             f"pipeline {budget_s:.0f}s")
    assert time_ok, f"dataset+training took {budget_s:.0f}s"
    assert exact_ok and beats_all and ratio_ok, (docs, baseline_exact)


def test_criterion_6_docs_cost_reduction(capsys, trained):
    cfg = trained["cfg"]
    prices = prices_from(cfg.scenario)
    model, scaler = trained["result"].model, trained["scaler"]

    # each mean is the episode-order sum of reward (or completion_time) over
    # n, as action_report folds it from the drawn blocks
    blocks = stream_blocks(cfg.scenario, EVAL_SEED, cfg.train.compare_episodes)
    demos = label_states(blocks, prices, scaler)
    means = {name: action_report(scheme_actions(name, model, demos, blocks, prices), demos,
                                 blocks, prices)
             for name in ["docs"] + [f"{a}-{b}" for a, b in BASELINE_PAIRS]}
    docs_reward, docs_time = (means["docs"][key]
                              for key in ("mean_reward", "mean_completion_time_s"))
    rewards = {k: v["mean_reward"] for k, v in means.items() if k != "docs"}
    to_mrc_time = means["to-mrc"]["mean_completion_time_s"]
    cheaper = all(docs_reward < v for v in rewards.values())
    time_cut = 100.0 * (to_mrc_time - docs_time) / to_mrc_time
    faster = docs_time <= 0.8 * to_mrc_time
    ok = cheaper and faster
    _verdict(capsys, 6, "learned policy beats baselines on cost", ok,
             f"reward {docs_reward:.4f} vs best baseline {min(rewards.values()):.4f}, "
             f"time cut {time_cut:.1f}% vs always-offload")
    assert cheaper, (docs_reward, rewards)
    assert faster, f"only {time_cut:.1f}% below to-mrc"


def test_criterion_7_sweep_trends(capsys, tmp_path):
    rc = main(["sweep", "--kind", "hidden-layers", "--out", str(tmp_path / "h")])
    assert rc == 0
    with open(tmp_path / "h" / "sweep_hidden_layers.csv", newline="") as fh:
        depth_rows = {r["hidden_layers"]: float(r["exact_match"])
                      for r in csv.DictReader(fh)}
    rc = main(["sweep", "--kind", "rain", "--out", str(tmp_path / "r")])
    assert rc == 0
    with open(tmp_path / "r" / "sweep_rain.csv", newline="") as fh:
        rain_acc = [float(r["exact_match"]) for r in csv.DictReader(fh)]

    depth_ok = depth_rows["3"] >= depth_rows["1"]
    spread = max(rain_acc) - min(rain_acc)
    rain_ok = spread <= 0.05
    ok = depth_ok and rain_ok
    _verdict(capsys, 7, "capacity and attenuation sweeps", ok,
             f"acc@3 {depth_rows['3']:.3f} vs acc@1 {depth_rows['1']:.3f}, "
             f"rain spread {spread:.3f}")
    assert depth_ok, depth_rows
    assert rain_ok, rain_acc


def test_criterion_8_property_bundle(capsys, tmp_path, trained):
    notes = []

    # Zipf request probabilities sum to one across profile shapes
    zipf_err = max(
        abs(sum(request_probability(r, delta, 30) for r in range(1, 31)) - 1.0)
        for delta in (0.0, 0.5, 1.0, 2.0))
    zipf_ok = zipf_err <= 1e-9
    notes.append(f"zipf {zipf_err:.1e}")

    # coverage window boundary behaviour
    params = orbit_params(default_config().scenario)
    theta_0 = earth_central_angle(params)
    eta = relative_angular_velocity(params)
    edge = coverage_time(theta_0, params)
    overhead = coverage_time(0.0, params)
    cov_ok = (abs(edge) <= 1e-9
              and abs(overhead - math.acos(math.cos(theta_0)) / eta)
              <= 1e-9 * overhead)
    notes.append(f"coverage edge {edge:.1e}")

    # 1e5 random cache operations never break the capacity invariant
    rng = np.random.default_rng(99)
    sizes = tuple(float(s) for s in rng.uniform(50e3, 400e3, size=30))
    cache = empty_cache(sizes, capacity_bytes=1.2e6, delta=1.0)
    cache_ok = True
    for _ in range(100_000):
        rank = int(rng.integers(1, 31))
        if rng.random() < 0.5:
            cache = evict_mrc(cache, rank, sizes[rank - 1])
        else:
            cache = evict_mpc(cache, rank, sizes[rank - 1])
        if cached_bytes(cache) > cache.capacity_bytes:
            cache_ok = False
            break
        if any(bit not in (0, 1) for bit in cache.placement):
            cache_ok = False
            break
    notes.append("cache invariant held" if cache_ok else "cache invariant broke")

    # every policy issues feasible actions across a wide episode draw: each
    # scheme acts on the drawn blocks, as compare does, and an episode fails
    # when any scheme picks a pair outside its sub-task's feasible set
    cfg = trained["cfg"]
    prices = prices_from(cfg.scenario)
    model, scaler = trained["result"].model, trained["scaler"]
    blocks = stream_blocks(cfg.scenario, 777, 10_000)
    demos = label_states(blocks, prices, scaler)
    pattern = np.concatenate([block.pattern for block in blocks])
    allowed = np.array([[pair in feas for pair in PAIRS] for feas in FEASIBLE])
    failed = np.zeros(len(demos), dtype=bool)
    for name in ["oracle", "docs"] + [f"{a}-{b}" for a, b in BASELINE_PAIRS]:
        actions = scheme_actions(name, model, demos, blocks, prices)
        failed |= ~allowed[pattern, actions].all(axis=1)
    feas_failures = int(failed.sum())
    feas_ok = feas_failures == 0
    notes.append(f"{feas_failures} infeasible episodes")

    # dataset and checkpoint files survive byte-for-byte round trips
    demos = build_dataset(cfg.scenario, 50, 5)
    write_dataset(tmp_path / "d1.txt", demos, cfg.scenario)
    _, loaded = read_dataset(tmp_path / "d1.txt")
    write_dataset(tmp_path / "d2.txt", loaded, cfg.scenario)
    dataset_ok = ((tmp_path / "d1.txt").read_bytes()
                  == (tmp_path / "d2.txt").read_bytes())
    save_model(tmp_path / "m1.txt", model, scaler)
    m2, s2 = load_model(tmp_path / "m1.txt")
    save_model(tmp_path / "m2.txt", m2, s2)
    model_ok = ((tmp_path / "m1.txt").read_bytes()
                == (tmp_path / "m2.txt").read_bytes())
    notes.append("round trips exact" if dataset_ok and model_ok
                 else "round trip drift")

    ok = zipf_ok and cov_ok and cache_ok and feas_ok and dataset_ok and model_ok
    _verdict(capsys, 8, "distribution, caching, feasibility, formats", ok,
             "; ".join(notes))
    assert zipf_ok and cov_ok
    assert cache_ok
    assert feas_ok
    assert dataset_ok and model_ok
