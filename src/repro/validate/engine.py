"""Suite runner of the differential validation harness.

Executes a suite of registered oracle/estimator pairs (see
:mod:`repro.validate.pairs`) with three hard guarantees:

* **determinism across job counts** -- every pair receives a
  ``SeedSequence`` spawned from the suite seed in sorted-pair-name
  order *before* any work is dispatched, results return in submission
  order from :func:`repro.runtime.executor.metered_parallel_map`, and
  the report carries no wall-clock fields, so the JSON is bit-identical
  for any ``--jobs`` value;
* **structural flake resistance** -- a stochastic pair that misses its
  confidence interval is re-run once at 4x the sample budget on its own
  pre-spawned escalation stream before the suite declares failure.
  With the default ``z = 4`` a single check false-fails with
  probability ~6e-5; requiring two independent misses squares that;
* **observability** -- workers count evaluations/failures/escalations
  into the active metrics registry (merged exactly in submission
  order), and the driver emits ``validate.pair`` / ``validate.suite``
  trace events.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from typing import Any

import numpy as np

from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.runtime.executor import metered_parallel_map
from repro.validate.pairs import PAIRS, evaluate_pair, suite_pairs
from repro.validate.stats import DEFAULT_Z

__all__ = [
    "REPORT_SCHEMA",
    "REPORT_SCHEMA_VERSION",
    "run_suite",
    "render_report",
    "report_to_json",
    "ESCALATION_FACTOR",
]

#: Schema identity of the ``validate --json-out`` report.
REPORT_SCHEMA = "repro-validate"
REPORT_SCHEMA_VERSION = 1

#: Sample multiplier for the one escalation re-run of a failing
#: stochastic pair.
ESCALATION_FACTOR = 4


def _evaluate_payload(
    payload: tuple[str, str, np.random.SeedSequence, dict[str, float], float],
) -> dict[str, Any]:
    """Worker entry point: one pair, escalation included.

    Module-level (picklable); everything it needs rides in the payload
    and the process-global registry/tracer hooks.  The base and
    escalation RNG streams are spawned from the pair's own
    ``SeedSequence``, so the escalation draw is fixed the moment the
    suite is seeded -- running it (or not) cannot shift any other pair.
    """
    name, suite, seq, perturb, z = payload
    base_seq, escalation_seq = seq.spawn(2)
    spec = PAIRS[name]
    result = evaluate_pair(
        name, suite, np.random.default_rng(base_seq), perturb=perturb, z=z
    )
    result["escalated"] = False
    if not result["passed"] and spec.stochastic:
        result = evaluate_pair(
            name,
            suite,
            np.random.default_rng(escalation_seq),
            scale=ESCALATION_FACTOR,
            perturb=perturb,
            z=z,
        )
        result["escalated"] = True
        if _metrics.REGISTRY is not None:
            _metrics.REGISTRY.counter("validate.escalations").inc()
    if _metrics.REGISTRY is not None:
        reg = _metrics.REGISTRY
        reg.counter("validate.pairs.evaluated").inc()
        if not result["passed"]:
            reg.counter("validate.pairs.failed").inc()
    return result


def run_suite(
    suite: str,
    *,
    seed: int = 0,
    jobs: int = 1,
    perturb: Mapping[str, float] | None = None,
    z: float = DEFAULT_Z,
) -> dict[str, Any]:
    """Run every pair of ``suite`` and return the schema-versioned report.

    The report dict is fully JSON-serializable and deterministic in
    ``(suite, seed, perturb, z)`` -- ``jobs`` only changes how the work
    is scheduled, never a byte of the output.
    """
    specs = suite_pairs(suite)
    perturb = dict(perturb or {})
    root = np.random.SeedSequence(seed)
    payloads = [
        (spec.name, suite, child, perturb, z)
        for spec, child in zip(specs, root.spawn(len(specs)))
    ]
    results = metered_parallel_map(
        _evaluate_payload, payloads, jobs=jobs, chunksize=1
    )
    if _trace.TRACER is not None:
        for result in results:
            _trace.TRACER.emit(
                "validate.pair",
                pair=result["pair"],
                method=result["method"],
                passed=result["passed"],
                escalated=result["escalated"],
                analytic=result["analytic"],
                empirical=result["empirical"],
            )
    failed = [r["pair"] for r in results if not r["passed"]]
    report = {
        "schema": REPORT_SCHEMA,
        "v": REPORT_SCHEMA_VERSION,
        "suite": suite,
        "seed": seed,
        "z": z,
        "perturb": perturb,
        "pairs": results,
        "n_pairs": len(results),
        "n_failed": len(failed),
        "failed": failed,
        "passed": not failed,
    }
    if _trace.TRACER is not None:
        _trace.TRACER.emit(
            "validate.suite",
            suite=suite,
            seed=seed,
            n_pairs=len(results),
            n_failed=len(failed),
            passed=not failed,
        )
    return report


def report_to_json(report: dict[str, Any]) -> str:
    """Canonical serialized form (sorted keys, stable separators).

    This exact string is what the determinism contract promises to be
    bit-identical across ``--jobs`` values; tests compare it byte for
    byte.
    """
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_report(report: dict[str, Any]) -> str:
    """Fixed-width human-readable digest of a suite report."""
    lines = [
        f"validation suite {report['suite']!r} "
        f"(seed {report['seed']}, z={report['z']:g})",
        f"{'pair':<26} {'method':<8} {'analytic':>13} {'empirical':>13} "
        f"{'CI':>29} {'verdict':>9}",
    ]
    for r in report["pairs"]:
        ci = f"[{r['ci_lo']:.6g}, {r['ci_hi']:.6g}]"
        verdict = "PASS" if r["passed"] else "FAIL"
        if r["escalated"]:
            verdict += "*"
        lines.append(
            f"{r['pair']:<26} {r['method']:<8} {r['analytic']:>13.6g} "
            f"{r['empirical']:>13.6g} {ci:>29} {verdict:>9}"
        )
    if any(r["escalated"] for r in report["pairs"]):
        lines.append("  (* judged after 4x sample-size escalation)")
    lines.append(
        f"{report['n_pairs'] - report['n_failed']}/{report['n_pairs']} pairs agree"
        + ("" if report["passed"] else f"; FAILED: {', '.join(report['failed'])}")
    )
    return "\n".join(lines)
