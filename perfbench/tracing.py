"""Per-layer spans and counters for one traced benchmark run.

The tracer wraps library functions without touching the library: for
each target it rebinds every global name in a ``satedge.*`` module (and
class attribute, for methods) that refers to the function, so callers
pick up the wrapper on their next lookup. ``uninstall`` restores the
original bindings. Spans and counters stay in memory; ``layer_metrics``
turns them into the named per-layer metrics once the run ends.

Per-episode figures divide by the episodes that went through the timed
stage, so ``reward.us_per_ep`` on ``compare`` is the reward time of all
eight schemes for one episode. A layer that the workload never calls
reports 0 with a sample count (``.n``) of 0.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

import numpy as np


def _satedge_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "satedge" or name.startswith("satedge."))]


def _gradient_flops(dims, rows: int) -> int:
    """FLOPs of one neural.gradients call, computed from the layer dims.

    Forward and weight-gradient matmuls cost 2*rows*fan_in*fan_out each;
    the delta back-propagation skips the input layer.
    """
    macs = [a * b for a, b in zip(dims[:-1], dims[1:])]
    return 2 * rows * (2 * sum(macs) + sum(macs[1:]))


class Tracer:
    def __init__(self):
        self.times: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def _wrapper(self, func, key, after):
        times = self.times[key]
        perf = time.perf_counter

        def traced(*args, **kwargs):
            t0 = perf()
            out = func(*args, **kwargs)
            dt = perf() - t0
            times.append(dt)
            if after is not None:
                after(args, out, dt)
            return out

        return traced

    def wrap(self, func, key: str, after=None, per_site: bool = False) -> None:
        """Rebind every satedge module global bound to `func`.

        With per_site, spans are kept apart per calling module, under
        ``key@module``.
        """
        for mod in _satedge_modules():
            for attr, value in list(vars(mod).items()):
                if value is func:
                    span = f"{key}@{mod.__name__}" if per_site else key
                    setattr(mod, attr, self._wrapper(func, span, after))
                    self._undo.append((mod, attr, func))

    def wrap_method(self, cls, name: str, key: str, after=None) -> None:
        func = vars(cls)[name]
        setattr(cls, name, self._wrapper(func, key, after))
        self._undo.append((cls, name, func))

    def uninstall(self) -> None:
        for owner, attr, func in reversed(self._undo):
            setattr(owner, attr, func)
        self._undo.clear()

    def install(self) -> None:
        """Wrap the functions each per-layer metric needs."""
        from satedge import (caching, dil, evaluator, neural, oracle, policies,
                             scenario)
        from satedge.evaluator import ActionMatrix

        counts = self.counts
        feasible = evaluator.feasible_actions  # unwrapped, for counters

        def after_solve(args, out, dt):
            state, (action, _) = args[0], out
            joint = 1
            for st in state.task:
                joint *= len(feasible(st, state))
            counts["oracle.joint_actions"] += joint
            self._count_labels(action)

        def after_read(args, out, dt):
            for demo in out[1]:
                self._count_labels(ActionMatrix.from_bits(demo.labels))

        def after_feasible(args, out, dt):
            counts["evaluator.feasible_pairs"] += len(out)

        def after_write(args, out, dt):
            counts["oracle.dataset_bytes"] += os.path.getsize(args[0])

        def after_gradients(args, out, dt):
            rows = np.atleast_2d(args[1]).shape[0]
            counts["neural.gradients.flop"] += _gradient_flops(args[0].dims, rows)

        def after_train(args, out, dt):
            counts["dil.epochs_run"] = out.curve[-1][0]
            counts["dil.best_epoch"] = out.best_epoch
            counts["dil.curve_points"] += len(out.curve)

        def after_decode(args, out, dt):
            probs, n = args[0], len(out.offload)
            for v in range(n):
                thresholded = (int(probs[v] > 0.5), int(probs[n + v] > 0.5))
                counts["neural.decode.projected"] += thresholded != out.pair(v)
            counts["neural.decode.pairs"] += n

        def after_project(args, out, dt):
            for v, proposal in enumerate(args[0]):
                counts["policies.projected"] += tuple(proposal) != out.pair(v)
            counts["policies.pairs"] += len(args[0])

        def after_evict(args, out, dt):
            cache, rank = args[0], args[1]
            if out is not cache:  # oversized items come back unchanged
                before = sum(cache.placement) + (1 - cache.placement[rank - 1])
                counts["caching.evictions"] += before - sum(out.placement)

        def after_baseline(args, out, dt):
            self.times[f"policies.{args[0]}-{args[1]}"].append(dt)

        def after_transform(args, out, dt):
            scaler, raw = args[0], np.asarray(args[1])
            counts["neural.scaler.clamps"] += int(
                np.count_nonzero((raw < scaler.lo) | (raw > scaler.hi)))

        self.wrap(scenario.episode_state, "scenario.episode_state")
        self.wrap(oracle.solve_optimal, "oracle.solve_optimal", after_solve)
        self.wrap(oracle.write_dataset, "oracle.write_dataset", after_write)
        self.wrap(oracle.read_dataset, "oracle.read_dataset", after_read)
        self.wrap(evaluator.feasible_actions, "evaluator.feasible_actions",
                  after_feasible)
        self.wrap(evaluator.subtask_cost, "evaluator.subtask_cost")
        self.wrap(evaluator.reward, "evaluator.reward")
        self.wrap(evaluator.completion_time, "evaluator.completion_time")
        self.wrap(neural.encode_state, "neural.encode_state")
        self.wrap(neural.gradients, "neural.gradients", after_gradients)
        self.wrap(neural.adam_step, "neural.adam_step")
        self.wrap(neural.forward, "neural.forward", per_site=True)
        self.wrap(neural.save_model, "neural.save_model")
        self.wrap(neural.load_model, "neural.load_model")
        self.wrap(neural.infer, "neural.infer")
        self.wrap(neural.decode_actions, "neural.decode_actions", after_decode)
        self.wrap_method(neural.FeatureScaler, "transform", "neural.scaler.transform",
                         after_transform)
        self.wrap(dil.train_policy, "dil.train_policy", after_train)
        self.wrap(dil.action_report, "dil.action_report")
        self.wrap(dil.baseline_actions, "dil.baseline_actions", after_baseline)
        self.wrap(policies.project_feasible, "policies.project_feasible", after_project)
        self.wrap(caching.evict_mrc, "caching.evict", after_evict)
        self.wrap(caching.evict_mpc, "caching.evict", after_evict)
        self.wrap(caching.request_probability, "caching.request_probability")

    def _count_labels(self, action) -> None:
        self.counts["labels.offload_ones"] += sum(action.offload)
        self.counts["labels.cache_ones"] += sum(action.cache)
        self.counts["labels.bits_per_head"] += len(action.offload)

    # -- metrics ------------------------------------------------------------

    def _n(self, key: str) -> int:
        return len(self.times.get(key, ()))

    def _total(self, key: str) -> float:
        return float(sum(self.times.get(key, ())))

    def _per_call(self, key: str) -> float:
        n = self._n(key)
        return self._total(key) / n if n else 0.0

    def _pct(self, key: str, q: float) -> float:
        values = self.times.get(key)
        return float(np.percentile(values, q)) * 1e6 if values else 0.0

    def layer_metrics(self, episodes: int) -> dict[str, float]:
        """Every per-layer metric; `episodes` went through the traced stage."""
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def per_ep(x: float) -> float:
            return ratio(x, episodes)

        m: dict[str, float] = {}
        for key in ("scenario.episode_state", "oracle.solve_optimal"):
            m[f"{key}.us_p50"] = self._pct(key, 50)
            m[f"{key}.us_p99"] = self._pct(key, 99)
            m[f"{key}.n"] = self._n(key)
        m["oracle.joint_actions_per_ep"] = ratio(c["oracle.joint_actions"],
                                                 self._n("oracle.solve_optimal"))
        for key in ("evaluator.feasible_actions", "evaluator.subtask_cost"):
            m[f"{key}.calls_per_ep"] = per_ep(self._n(key))
            m[f"{key}.us_per_call"] = self._per_call(key) * 1e6
        m["evaluator.feasible_pair_frac"] = ratio(
            c["evaluator.feasible_pairs"], 4 * self._n("evaluator.feasible_actions"))
        for key in ("evaluator.reward", "evaluator.completion_time",
                    "dil.action_report"):
            m[f"{key}.us_per_ep"] = per_ep(self._total(key)) * 1e6

        m["neural.encode_state.us_p50"] = self._pct("neural.encode_state", 50)
        m["neural.encode_state.n"] = self._n("neural.encode_state")
        m["neural.infer.us_p50"] = self._pct("neural.infer", 50)
        m["neural.infer.n"] = self._n("neural.infer")
        m["neural.gradients.us_per_batch"] = self._per_call("neural.gradients") * 1e6
        m["neural.adam_step.us_per_batch"] = self._per_call("neural.adam_step") * 1e6
        m["neural.gradients.gflop_per_s"] = ratio(
            c["neural.gradients.flop"], self._total("neural.gradients") * 1e9)
        m["neural.forward.s_per_epoch"] = ratio(
            self._total("neural.forward@satedge.dil"), c["dil.curve_points"])
        m["neural.decode.projected_frac"] = ratio(c["neural.decode.projected"],
                                                  c["neural.decode.pairs"])
        m["neural.scaler.clamp_count"] = c["neural.scaler.clamps"]

        m["oracle.write_dataset.s"] = self._per_call("oracle.write_dataset")
        m["oracle.dataset_mib"] = ratio(c["oracle.dataset_bytes"],
                                        self._n("oracle.write_dataset") * 2**20)
        m["oracle.read_dataset.s"] = self._per_call("oracle.read_dataset")
        m["neural.save_model.s"] = self._per_call("neural.save_model")
        m["neural.load_model.s"] = self._per_call("neural.load_model")

        from satedge.policies import BASELINE_PAIRS, baseline_name
        for of_kind, ch_kind in BASELINE_PAIRS:
            key = f"policies.{baseline_name(of_kind, ch_kind)}"
            m[f"{key}.us_per_ep"] = per_ep(self._total(key)) * 1e6
        m["policies.projected_frac"] = ratio(c["policies.projected"],
                                             c["policies.pairs"])
        m["caching.evict.calls_per_ep"] = per_ep(self._n("caching.evict"))
        m["caching.evictions_per_ep"] = per_ep(c["caching.evictions"])
        m["caching.request_probability.calls_per_ep"] = per_ep(
            self._n("caching.request_probability"))

        m["labels.offload_density"] = ratio(c["labels.offload_ones"],
                                            c["labels.bits_per_head"])
        m["labels.cache_density"] = ratio(c["labels.cache_ones"],
                                          c["labels.bits_per_head"])
        m["dil.epochs_run"] = c["dil.epochs_run"]
        m["dil.best_epoch"] = c["dil.best_epoch"]
        return m
