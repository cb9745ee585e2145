"""Benchmark workloads and their seeded input generator.

Every workload draws uniform 0/1 labels and makes each run the labels with a
fixed share of cells flipped, so run accuracies scatter around
1 - FLIP_RATE and fall into a few bands.  The generator writes the CSV files
and the manifest that multimax reads; it uses numpy and the standard library
only, never the package under test.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FLIP_RATE = 0.05


@dataclass(frozen=True)
class Workload:
    """Shape of one workload's inputs and the operations run on them.

    fairness_instances == 0 means the audit has no separate fairness file and
    the fairness set is the validation set.  commands lists the operations
    in the order they rotate: "audit" is report.audit, the others are CLI
    subcommands run through cli.main.
    """

    name: str
    runs: int
    instances: int
    policy: str
    discrepancy_cap: int
    commands: tuple[str, ...]
    fairness_instances: int = 0
    groups: int = 0
    tie_break: str = ""

    @property
    def cells(self) -> int:
        """Prediction cells in one audit: runs x (validation + fairness instances)."""
        fairness = self.fairness_instances or self.instances
        return self.runs * (self.instances + fairness)


WORKLOADS = {
    w.name: w
    for w in (
        # Long prediction CSV, few runs: ingest dominates, pairs are few.
        Workload(
            name="csv-wide",
            runs=100,
            instances=1000,
            policy="round:1",
            discrepancy_cap=500,
            commands=("audit",),
        ),
        # Many runs on few instances, both bands past the cap: per-pair and
        # per-cell Python work dominates.
        Workload(
            name="band-tall",
            runs=400,
            instances=100,
            policy="round:1",
            discrepancy_cap=120,
            commands=("audit",),
        ),
        # Overlapping tolerance bands, a fairness file and a group map, driven
        # through the three read-only CLI subcommands.
        Workload(
            name="cli-tol",
            runs=110,
            instances=80,
            fairness_instances=80,
            groups=4,
            policy="tol:1/40",
            tie_break="recall,specificity",
            discrepancy_cap=500,
            commands=("compare", "fair-model", "profile"),
        ),
    )
}


@dataclass(frozen=True)
class Inputs:
    """The generated matrices behind one workload's files."""

    run_ids: list[str]
    instance_ids: list[str]
    labels: np.ndarray  # (instances,) uint8
    validation: np.ndarray  # (runs, instances) uint8
    fairness_ids: list[str]
    fairness: np.ndarray  # (runs, fairness instances) uint8
    groups: list[str] | None  # group name per fairness instance


def _flipped(rng: np.random.Generator, base: np.ndarray, runs: int) -> np.ndarray:
    flips = rng.random((runs, base.size)) < FLIP_RATE
    return base[np.newaxis, :] ^ flips.astype(np.uint8)


def generate(workload: Workload, seed: int) -> Inputs:
    """Draw one workload's inputs; the same (workload, seed) gives the same arrays."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    labels = rng.integers(0, 2, workload.instances, dtype=np.uint8)
    validation = _flipped(rng, labels, workload.runs)
    run_ids = [f"run{r:05d}" for r in range(workload.runs)]
    instance_ids = [f"v{j:05d}" for j in range(workload.instances)]
    if workload.fairness_instances:
        base = rng.integers(0, 2, workload.fairness_instances, dtype=np.uint8)
        fairness = _flipped(rng, base, workload.runs)
        fairness_ids = [f"f{j:05d}" for j in range(workload.fairness_instances)]
    else:
        fairness, fairness_ids = validation, instance_ids
    groups = None
    if workload.groups:
        drawn = rng.integers(0, workload.groups, len(fairness_ids))
        groups = [f"g{g}" for g in drawn.tolist()]
    return Inputs(run_ids, instance_ids, labels, validation, fairness_ids, fairness, groups)


def _write_predictions(path: Path, run_ids: list[str], instance_ids: list[str], matrix: np.ndarray) -> None:
    middles = [f",{instance_id}," for instance_id in instance_ids]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("run_id,instance_id,prediction\n")
        for run_id, row in zip(run_ids, matrix.tolist()):
            handle.write("".join(f"{run_id}{mid}{value}\n" for mid, value in zip(middles, row)))


def _write_pairs(path: Path, header: str, keys: list[str], values: list) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(header + "\n")
        handle.write("".join(f"{key},{value}\n" for key, value in zip(keys, values)))


def write_inputs(workload: Workload, seed: int, inputs: Inputs, directory: Path) -> Path:
    """Write the CSVs and the manifest; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    _write_pairs(directory / "labels.csv", "instance_id,label", inputs.instance_ids, inputs.labels.tolist())
    _write_predictions(directory / "predictions.csv", inputs.run_ids, inputs.instance_ids, inputs.validation)
    entries = {
        "labels": "labels.csv",
        "predictions": "predictions.csv",
        "favourable_label": "1",
        "band": workload.policy,
        "discrepancy_cap": str(workload.discrepancy_cap),
        "seed": str(seed),
        "provenance.workload": workload.name,
    }
    if workload.fairness_instances:
        _write_predictions(
            directory / "fairness_predictions.csv", inputs.run_ids, inputs.fairness_ids, inputs.fairness
        )
        entries["fairness_predictions"] = "fairness_predictions.csv"
    if inputs.groups is not None:
        _write_pairs(directory / "group_map.csv", "instance_id,group", inputs.fairness_ids, inputs.groups)
        entries["group_map"] = "group_map.csv"
    if workload.tie_break:
        entries["tie_break"] = workload.tie_break
    manifest = directory / "manifest.txt"
    manifest.write_text("".join(f"{k}={v}\n" for k, v in entries.items()), encoding="utf-8")
    return manifest
