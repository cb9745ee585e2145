"""Expected audit results, computed with numpy from the generated matrices.

The oracle re-derives, independently of multimax, what every output must
say: band membership from exact correct-prediction counts, each band's
disputable count, ambiguity, discrepancy pair count and fair-ensemble
accuracy, the policy-comparison rows, and the stability-profile segments.
The check functions compare a parsed output against it and return a list of
problems (empty when the output is right).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

from workloads import Inputs, Workload

PROFILE_TOP_N = 8
COMPARISON_LADDER = ("strict", "round:3", "round:2")


def _round_scaled(num: int, den: int, digits: int) -> int:
    scale = 10**digits
    q = (num * scale) // den
    if 2 * num * scale >= den * (2 * q + 1):
        q += 1
    return q


def bands_for(policy: str, correct: list[int], n: int) -> list[tuple[str, list[int]]]:
    """(label, member row positions) per band, best band first."""
    if policy == "strict":
        keys = sorted(set(correct), reverse=True)
        out = []
        for c in keys:
            f = Fraction(c, n)
            out.append((f"{f.numerator}/{f.denominator}", [r for r, x in enumerate(correct) if x == c]))
        return out
    if policy.startswith("round:"):
        digits = int(policy[len("round:"):])
        scale = 10**digits
        key_of = [_round_scaled(c, n, digits) for c in correct]
        return [
            (f"{key // scale}.{key % scale:0{digits}d}", [r for r, k in enumerate(key_of) if k == key])
            for key in sorted(set(key_of), reverse=True)
        ]
    if policy.startswith("tol:"):
        delta = Fraction(policy[len("tol:"):])
        out, seen = [], set()
        for c in sorted(set(correct), reverse=True):
            anchor = Fraction(c, n)
            lo, hi = max(Fraction(0), anchor - delta), min(Fraction(1), anchor + delta)
            if (lo, hi) in seen:
                continue
            seen.add((lo, hi))
            out.append((f"[{lo}, {hi}]", [r for r, x in enumerate(correct) if lo <= Fraction(x, n) <= hi]))
        return out
    raise ValueError(f"unknown policy {policy!r}")


def _disputed(matrix: np.ndarray) -> np.ndarray:
    return (matrix != matrix[0]).any(axis=0)


def expected_results(workload: Workload, inputs: Inputs) -> dict:
    """Everything the checks need, as JSON-ready values."""
    n = len(inputs.instance_ids)
    m = len(inputs.fairness_ids)
    correct = (inputs.validation == inputs.labels).sum(axis=1).tolist()
    bands = bands_for(workload.policy, correct, n)
    band_rows = []
    for label, members in bands:
        fair = inputs.fairness[members]
        k = len(members)
        ensemble = inputs.validation[members].max(axis=0)
        _, segments = np.unique(fair, axis=0, return_counts=True)
        disputable = int(_disputed(fair).sum())
        band_rows.append(
            {
                "label": label,
                "run_ids": [inputs.run_ids[r] for r in members],
                "disputable": disputable,
                "ambiguity": f"{disputable}/{m}",
                "pair_count": comb(min(k, workload.discrepancy_cap), 2),
                "sampled_runs": min(k, workload.discrepancy_cap),
                "ensemble_accuracy": f"{int((ensemble == inputs.labels).sum())}/{n}",
                "segments": sorted(segments.tolist(), reverse=True),
            }
        )
    comparison = []
    for policy in dict.fromkeys((workload.policy,) + COMPARISON_LADDER):
        ranked = bands_for(policy, correct, n)
        top_label, top_members = ranked[0]
        comparison.append(
            {
                "policy": policy,
                "band_count": len(ranked),
                "top_band_label": top_label,
                "top_band_run_count": len(top_members),
                "top_band_ambiguity": f"{int(_disputed(inputs.fairness[top_members]).sum())}/{m}",
            }
        )
    memberships = [r for _, members in bands for r in members]
    return {
        "workload": workload.name,
        "runs": len(inputs.run_ids),
        "validation_instances": n,
        "fairness_instances": m,
        "policy": workload.policy,
        "is_partition": len(memberships) == len(set(memberships)) == len(inputs.run_ids),
        "bands": band_rows,
        "comparison": comparison,
    }


def _same_ratio(shown: str, expected: str) -> bool:
    return Fraction(shown) == Fraction(expected)


def check_comparison(rows: list[dict], expected: dict) -> list[str]:
    problems = []
    if len(rows) != len(expected["comparison"]):
        return [f"comparison has {len(rows)} rows, expected {len(expected['comparison'])}"]
    for row, want in zip(rows, expected["comparison"]):
        for key in ("policy", "band_count", "top_band_label", "top_band_run_count"):
            if row[key] != want[key]:
                problems.append(f"comparison {want['policy']}: {key} {row[key]!r} != {want[key]!r}")
        if not _same_ratio(row["top_band_ambiguity"]["ratio"], want["top_band_ambiguity"]):
            problems.append(f"comparison {want['policy']}: top_band_ambiguity differs")
    return problems


def check_stability_sidecar(sidecar: dict, expected: dict) -> list[str]:
    shown = expected["bands"][:PROFILE_TOP_N]
    got = [(b["label"], b["run_count"], b["segments"]) for b in sidecar["bands"]]
    want = [(b["label"], len(b["run_ids"]), b["segments"]) for b in shown]
    return [] if got == want else ["stability profile bands or segments differ"]


def check_report(report: dict, expected: dict) -> list[str]:
    """Check a report.json payload against the oracle."""
    problems = []
    counts = report["counts"]
    for key in ("runs", "validation_instances", "fairness_instances"):
        if counts[key] != expected[key]:
            problems.append(f"counts.{key} {counts[key]} != {expected[key]}")
    if report["policy"] != expected["policy"]:
        problems.append(f"policy {report['policy']!r} != {expected['policy']!r}")
    if report["is_partition"] != expected["is_partition"]:
        problems.append("is_partition differs")
    got_bands = report["bands"]
    if [b["label"] for b in got_bands] != [b["label"] for b in expected["bands"]]:
        return problems + ["band labels differ"]
    for got, want in zip(got_bands, expected["bands"]):
        label = want["label"]
        if got["run_ids"] != want["run_ids"]:
            problems.append(f"band {label}: members differ")
        if got["disputable"]["count"] != want["disputable"]:
            problems.append(f"band {label}: disputable {got['disputable']['count']} != {want['disputable']}")
        if not _same_ratio(got["ambiguity"]["ratio"], want["ambiguity"]):
            problems.append(f"band {label}: ambiguity {got['ambiguity']['ratio']} != {want['ambiguity']}")
        disc = got["discrepancy"]
        if (disc["pair_count"], disc["sampled_runs"]) != (want["pair_count"], want["sampled_runs"]):
            problems.append(f"band {label}: pair_count {disc['pair_count']} != {want['pair_count']}")
        if not _same_ratio(got["fair_ensemble"]["accuracy"]["ratio"], want["ensemble_accuracy"]):
            problems.append(f"band {label}: fair-ensemble accuracy differs")
    return problems + check_comparison(report["policy_comparison"], expected)


def check_fair_model(payload: dict, expected: dict) -> list[str]:
    top = expected["bands"][0]
    want = {
        "band": top["label"],
        "run_count": len(top["run_ids"]),
        "resolved_disputes": top["disputable"],
    }
    problems = [f"fair-model {k} {payload[k]!r} != {v!r}" for k, v in want.items() if payload[k] != v]
    if not _same_ratio(payload["accuracy"]["ratio"], top["ensemble_accuracy"]):
        problems.append("fair-model accuracy differs")
    return problems
