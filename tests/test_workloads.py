"""The benchmark's own output checks, run on short workloads.

perfbench/workloads.py and perfbench/tracing.py read datasets through
`read_dataset` row by row, outside the library, so a change to what it
returns would otherwise show only in a benchmark run. Each workload here
sets up, runs once and must pass its own check(); a traced train must
count the labels it reads.
"""

import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from satedge.cli import run_gen_dataset, run_train
from satedge.config import default_config
from satedge.oracle import read_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["label", "label-wide", "train", "compare"])
def test_each_workload_passes_its_own_check(tmp_path, name):
    workload = _load("workloads").make_workload(name, "satedge", 42, tmp_path)
    workload.setup()
    assert workload.check(workload.run()) == []


def test_traced_train_counts_the_labels_it_reads(tmp_path):
    cfg = default_config()
    cfg = replace(cfg, train=replace(cfg.train, max_epochs=2))
    dataset = run_gen_dataset(cfg, 42, 200, tmp_path)
    tracer = _load("tracing").Tracer()
    try:
        tracer.install()
        run_train(cfg, 42, dataset, tmp_path)
        metrics = tracer.layer_metrics(200)
    finally:
        tracer.uninstall()
    labels = read_dataset(dataset)[1].labels
    offload = labels[:, :cfg.scenario.num_subtasks]
    assert metrics["labels.offload_density"] == int(offload.sum()) / offload.size > 0
