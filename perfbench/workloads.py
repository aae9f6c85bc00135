"""The four benchmark workloads: set-up, one stage repetition, output checks.

Each workload drives one CLI stage function (``cli.run_*``) of a library
package in this process: ``satedge`` from the checkout, or ``yardstick``,
the frozen copy the run uses to gauge host speed. Every repetition of a
run does the same work on the same inputs, so the bytes of its artifact
must match the first repetition's; the first repetition's output is also
checked in depth. Inputs derive from the run seed only: the generation
stream uses ``seed`` and the evaluation stream ``seed + 2000``, which maps
the default seed 42 to the CLI's default evaluation seed 2042.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
from dataclasses import replace
from pathlib import Path

from satedge.evaluator import ActionMatrix, InfeasibleActionError, reward
from satedge.neural import load_model, save_model
from satedge.oracle import read_dataset
from satedge.scenario import episode_state, make_library, prices_from

DEFAULT_SEED = 42
EVAL_SEED_OFFSET = 2000

# SHA-256 of the label workloads' dataset.txt under the default seed, as
# written by `satedge gen-dataset --seed 42` with the same episode count
# and num_subtasks.
REFERENCE_SHA256 = {
    "label": "822f0fa194f3c2db1021baaaf58fd24f172c8b5bba0e9ea4787f6d81ef8c694c",
    "label-wide": "10bc39f9eaf2125bde956478c410a2f39e455e138f1b4c1d2321bd1a61b1a59b",
}


def _quiet(fn, *args):
    """Run a CLI stage with its progress prints swallowed."""
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Workload:
    """One stage, repeated.

    `units` is what episodes_per_s counts per repetition; `episodes` is
    the number of episodes (dataset rows, for train) one repetition handles.
    """

    name: str
    units: int
    episodes: int

    def __init__(self, package: str, seed: int, workdir: Path,
                 num_subtasks: int | None = None, epochs: int | None = None):
        self.cli = importlib.import_module(f"{package}.cli")
        config = importlib.import_module(f"{package}.config")
        cfg = config.default_config()
        if num_subtasks is not None:
            cfg = replace(cfg, scenario=replace(cfg.scenario, num_subtasks=num_subtasks))
        if epochs is not None:
            # patience equal to the epoch budget: early stopping never ends a run early
            cfg = replace(cfg, train=replace(cfg.train, max_epochs=epochs,
                                             patience=epochs))
        config.validate_config(cfg)
        self.cfg = cfg
        self.seed = seed
        self.out = workdir / "stage"
        self.inputs = workdir / "inputs"
        self.out.mkdir(parents=True, exist_ok=True)
        self.inputs.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        """Build the stage's inputs; timed, and repeated for setup_s."""

    def run(self):
        raise NotImplementedError

    def digest(self, result) -> str:
        """Hash of the repetition's artifact."""
        raise NotImplementedError

    def check(self, result) -> list[str]:
        """In-depth output check of one repetition; returns the problems found."""
        raise NotImplementedError

    def quality(self, result) -> dict[str, float]:
        return {}


class Label(Workload):
    """gen-dataset: draw, solve and encode episodes, write dataset.txt."""

    def __init__(self, name: str, package: str, seed: int, workdir: Path,
                 episodes: int, num_subtasks: int | None = None):
        super().__init__(package, seed, workdir, num_subtasks=num_subtasks)
        self.name = name
        self.units = self.episodes = episodes

    def run(self) -> Path:
        return _quiet(self.cli.run_gen_dataset, self.cfg, self.seed, self.units, self.out)

    def digest(self, result: Path) -> str:
        return sha256(result)

    def check(self, result: Path) -> list[str]:
        """opt_reward of every row equals evaluator.reward of its label, bit for bit."""
        scen = self.cfg.scenario
        _, demos = read_dataset(result)
        problems = []
        if [d.episode_id for d in demos] != list(range(self.units)):
            problems.append(f"dataset rows are not episodes 0..{self.units - 1}")
        library = make_library(scen, self.seed)
        prices = prices_from(scen)
        for d in demos:
            state = episode_state(scen, self.seed, d.episode_id, library)
            try:
                value = reward(state, ActionMatrix.from_bits(d.labels), prices)
            except InfeasibleActionError as exc:
                problems.append(f"episode {d.episode_id}: label infeasible: {exc}")
                continue
            if value != d.opt_reward:
                problems.append(f"episode {d.episode_id}: opt_reward {d.opt_reward!r} "
                                f"!= reward of label {value!r}")
        reference = REFERENCE_SHA256[self.name]
        if self.seed == DEFAULT_SEED and self.digest(result) != reference:
            problems.append(f"dataset sha256 {self.digest(result)} != reference {reference}")
        return problems


class Train(Workload):
    """train: fit the default network to a dataset labelled in set-up."""

    name = "train"

    def __init__(self, package: str, seed: int, workdir: Path, episodes: int,
                 epochs: int):
        super().__init__(package, seed, workdir, epochs=epochs)
        self.episodes = episodes
        self.epochs = epochs
        n_train = int(round(self.cfg.train.train_frac * episodes))
        self.units = n_train * epochs  # training samples: rows x epochs
        self.dataset = self.inputs / "dataset.txt"

    def setup(self) -> None:
        _quiet(self.cli.run_gen_dataset, self.cfg, self.seed, self.episodes, self.inputs)

    def run(self) -> Path:
        return _quiet(self.cli.run_train, self.cfg, self.seed, self.dataset, self.out)

    def digest(self, result: Path) -> str:
        return sha256(result)

    def check(self, result: Path) -> list[str]:
        """save -> load -> save is byte-identical, and every epoch ran."""
        problems = []
        model, scaler = load_model(result)
        resaved = self.out / "resaved_model.txt"
        save_model(resaved, model, scaler)
        if resaved.read_bytes() != result.read_bytes():
            problems.append("model.txt changes on load and re-save")
        curve = (self.out / "train_curve.csv").read_text().splitlines()
        if len(curve) != self.epochs + 2:  # header, epoch 0, then one row per epoch
            problems.append(f"train curve has {len(curve) - 2} epochs, "
                            f"expected {self.epochs}")
        return problems


class Compare(Workload):
    """compare: oracle, trained policy and six baselines on the evaluation stream."""

    name = "compare"

    def __init__(self, package: str, seed: int, workdir: Path, episodes: int,
                 train_episodes: int, train_epochs: int):
        super().__init__(package, seed, workdir, epochs=train_epochs)
        self.units = self.episodes = episodes
        self.train_episodes = train_episodes
        self.model = self.inputs / "model.txt"

    def setup(self) -> None:
        dataset = _quiet(self.cli.run_gen_dataset, self.cfg, self.seed,
                         self.train_episodes, self.inputs)
        _quiet(self.cli.run_train, self.cfg, self.seed, dataset, self.inputs)

    def run(self) -> dict[str, dict[str, float]]:
        return _quiet(self.cli.run_compare, self.cfg, self.seed + EVAL_SEED_OFFSET,
                      self.model, self.units, self.out)

    def digest(self, result) -> str:
        return sha256(self.out / "comparison.csv")

    def check(self, result) -> list[str]:
        ratio = result["oracle"]["reward_ratio_vs_opt"]
        if ratio != 1.0:
            return [f"oracle reward_ratio_vs_opt is {ratio!r}, expected 1.0"]
        return []

    def quality(self, result) -> dict[str, float]:
        docs = result["docs"]
        return {"docs_exact_match": docs["exact_match"],
                "docs_reward_ratio": docs["reward_ratio_vs_opt"]}


WORKLOADS = ("label", "label-wide", "train", "compare")

# Seconds the yardstick takes on the reference host (2 vCPUs, CPython
# 3.11.7, numpy 2.4.6) when nothing else loads it: one repetition of each
# stage, one set-up of each workload, and importing the package in a fresh
# interpreter with numpy loaded and no bytecode cache.
# episodes_per_s and setup_s are scaled to this host speed; see README.md.
YARDSTICK_REP_S = {
    "label": 0.1,
    "label-wide": 0.075,
    "train": 0.45,
    "compare": 0.28,
}
YARDSTICK_SETUP_S = {
    "label": 0.0,
    "label-wide": 0.0,
    "train": 0.3,
    "compare": 0.55,
}
YARDSTICK_IMPORT_S = 0.065


def make_workload(name: str, package: str, seed: int, workdir: Path) -> Workload:
    """Repetitions are short (0.1 to 0.8 s here) so that each one sits close
    in time to the yardstick repetition it is paired with, yet long enough
    that a stage's fixed costs (loading or saving a model) do not dominate."""
    if name == "label":
        return Label(name, package, seed, workdir, episodes=250)
    if name == "label-wide":
        return Label(name, package, seed, workdir, episodes=60, num_subtasks=9)
    if name == "train":
        return Train(package, seed, workdir, episodes=1000, epochs=20)
    if name == "compare":
        return Compare(package, seed, workdir, episodes=200, train_episodes=1000,
                       train_epochs=5)
    raise ValueError(f"unknown workload {name!r}")
