"""Measuring process: imports multimax, runs one workload's ops, checks outputs.

Started by run.py after the inputs are on disk, so this process never holds
the generator's arrays and its peak resident set is multimax's own.  It
reads <work>/config.json, writes <work>/result.json (and, when tracing, the
spans to <work>/spans.json), and prints nothing on stdout.

Usage: python3 bench/worker.py --work DIR --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import shutil
import sys
import time
from pathlib import Path

from oracle import check_comparison, check_fair_model, check_report, check_stability_sidecar
from tracing import Tracer, layer_self_times, per_layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROFILES = ("stability_profile", "fairness_profile", "multiplicity_panel")
AUDIT_FILES = {"report.json"} | {f"{p}.{ext}" for p in PROFILES for ext in ("svg", "sidecar.json")}


def _import_multimax():
    sys.path.insert(0, str(SRC))
    import multimax.cli
    import multimax.report

    if not Path(multimax.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"multimax was imported from {multimax.__file__}, not from {SRC}")
    return multimax


def _peak_rss_mb() -> float:
    """High-water resident set of this process (VmHWM), in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("VmHWM missing from /proc/self/status")


class Ops:
    """The workload's operations, each writing into its own output directory."""

    def __init__(self, multimax, config: dict, work: Path) -> None:
        self.mm = multimax
        self.manifest = str(work / "inputs" / "manifest.txt")
        self.out = work / "out"
        self.expected = config["expected"]
        self.top_band = self.expected["bands"][0]["label"]

    def run(self, kind: str) -> tuple[str, object]:
        """Run one op; returns what it printed and what it returned.

        The caller drops the returned outcome outside the timed region.
        Raises on a non-zero exit.
        """
        out = self.out / kind
        if kind == "audit":
            return "", self.mm.report.audit(self.manifest, out)
        argv = {
            "compare": ["compare", "--manifest", self.manifest, "--out", str(out / "compare.json")],
            "fair-model": [
                "fair-model", "--manifest", self.manifest, "--band", self.top_band, "--out", str(out),
            ],
            "profile": [
                "profile", "--manifest", self.manifest, "--kind", "stability_profile",
                "--out", str(out / "stability_profile.svg"),
            ],
        }[kind]
        with contextlib.redirect_stdout(io.StringIO()) as printed:
            code = self.mm.cli.main(argv)
        if code != 0:
            raise RuntimeError(f"multimax {kind} exited with {code}")
        return printed.getvalue(), None

    def reset(self, kind: str) -> None:
        shutil.rmtree(self.out / kind, ignore_errors=True)
        (self.out / kind).mkdir(parents=True)

    def outputs(self, kind: str, printed: str) -> dict[str, bytes]:
        root = self.out / kind
        files = {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
        if printed:
            files["<stdout>"] = printed.encode("utf-8")
        return files

    def check(self, kind: str, files: dict[str, bytes]) -> list[str]:
        """Compare one op's outputs with the oracle."""

        def load(name: str):
            return json.loads(files[name])

        if kind == "audit":
            if set(files) != AUDIT_FILES:
                return [f"audit wrote {sorted(files)}"]
            return check_report(load("report.json"), self.expected) + check_stability_sidecar(
                load("stability_profile.sidecar.json"), self.expected
            )
        if kind == "compare":
            rows = self.expected["comparison"]
            printed = files["<stdout>"].decode().splitlines()
            # a header, one line per policy, then "wrote <path>"
            problems = [] if len(printed) == len(rows) + 2 else ["compare printed a table of the wrong size"]
            return problems + check_comparison(load("compare.json")["rows"], self.expected)
        if kind == "fair-model":
            return check_fair_model(load("fair_model.json"), self.expected)
        if kind == "profile":
            return check_stability_sidecar(load("stability_profile.sidecar.json"), self.expected)
        raise ValueError(kind)


def _digest(files: dict[str, bytes]) -> str:
    h = hashlib.sha256()
    for name, data in files.items():
        h.update(name.encode() + b"\0" + hashlib.sha256(data).digest())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    os.environ.pop("MULTIMAX_SEED", None)
    config = json.loads((args.work / "config.json").read_text(encoding="utf-8"))
    kinds = config["commands"]

    t0 = time.perf_counter()
    multimax = _import_multimax()
    import_s = time.perf_counter() - t0

    ops = Ops(multimax, config, args.work)
    problems: list[str] = []
    reference: dict[str, str | None] = {}
    artefact_bytes: dict[str, int] = {}
    warmup_s = 0.0
    # Warm-up: each op kind once, timed as set-up; its outputs are checked in
    # full against the oracle and become the byte-identity reference.
    for kind in kinds:
        ops.reset(kind)
        t = time.perf_counter()
        try:
            printed, outcome = ops.run(kind)
        except Exception as exc:  # recorded; every later op of this kind then fails too
            printed, found = "", [f"raised {exc!r}"]
        else:
            found = None
        warmup_s += time.perf_counter() - t
        outcome = None
        files = ops.outputs(kind, printed)
        if not found:
            try:
                found = ops.check(kind, files)
            except (KeyError, IndexError, TypeError, ValueError) as exc:  # malformed output
                found = [f"output could not be checked: {exc!r}"]
        problems += [f"{kind}: {p}" for p in found]
        reference[kind] = None if found else _digest(files)
        artefact_bytes[kind] = sum(len(data) for data in files.values())

    tracer = Tracer() if args.trace else None
    op_s: list[float] = []
    traced_s: list[float] = []
    traced_kinds: dict[int, str] = {}
    failed = 0
    attempted = 0
    # Every op moves to the next of the CPUs this process may use.  On a
    # shared host each CPU's speed drifts on its own, in stretches of
    # seconds; sampling every CPU keeps one slow stretch on one of them from
    # setting a run's median.  When tracing, ops go untraced, traced, traced,
    # untraced, so both kinds run on every CPU and all of them migrate.
    cpus = sorted(os.sched_getaffinity(0))
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline or (tracer is not None and not traced_kinds):
        kind = kinds[attempted % len(kinds)]
        traced = tracer is not None and attempted % 4 in (1, 2)
        os.sched_setaffinity(0, {cpus[attempted % len(cpus)]})
        ops.reset(kind)
        gc.collect()
        if traced:
            tracer.op = attempted
            traced_kinds[attempted] = kind
            tracer.install()
        try:
            t = time.perf_counter()
            printed, outcome = ops.run(kind)
            elapsed = time.perf_counter() - t
        except Exception as exc:  # an op that raises counts as failed
            failed += 1
            problems.append(f"{kind}: raised {exc!r}")
            continue
        finally:
            attempted += 1
            if traced:
                tracer.uninstall()
        (traced_s if traced else op_s).append(elapsed)
        outcome = None
        if _digest(ops.outputs(kind, printed)) != reference[kind]:
            failed += 1
            problems.append(f"{kind}: outputs differ from the checked warm-up outputs")
    peak = _peak_rss_mb()

    result = {
        "import_s": import_s,
        "warmup_s": warmup_s,
        "op_s": op_s,
        "traced_op_s": traced_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "artefact_bytes": artefact_bytes,
        "peak_rss_mb": peak,
    }
    if tracer is not None:
        result["per_layer"] = per_layer_metrics(tracer.spans, traced_kinds, ops.top_band)
        result["layer_self_s"] = layer_self_times(tracer.spans, len(traced_kinds))
        (args.work / "spans.json").write_text(json.dumps(tracer.to_json()), encoding="utf-8")
    (args.work / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
