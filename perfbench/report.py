"""What a workload returns, and how a run prints and stores it."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from perfbench.measure import log
from perfbench.spans import Tracer, self_time_by_name


@dataclass
class Outcome:
    """One run of one workload.

    ``wrong`` lists failed correctness checks (a wrong answer fails the
    run); ``failed`` counts typed errors, refusals and dropped
    connections among ``attempted`` statements.  ``notes`` are printed
    but not gated.
    """

    end_to_end: dict[str, float]
    per_layer: dict[str, float]
    attempted: int
    failed: int
    wrong: list[str]
    notes: dict = field(default_factory=dict)


def result_line(spec: dict, outcome: Outcome, trace: bool) -> dict:
    """The run's last line: every end-to-end metric of ``spec``
    (untraced) or every per-layer metric (traced).  A per-layer metric
    the workload's path does not reach reads 0."""
    kind = "per_layer" if trace else "end_to_end"
    measured = outcome.per_layer if trace else outcome.end_to_end
    names = [m["name"] for m in spec[kind]]
    unknown = sorted(set(measured) - set(names))
    if unknown:
        raise KeyError(f"metrics not in BENCHMARK.json: {unknown}")
    if not trace:
        missing = sorted(set(names) - set(measured))
        if missing:
            raise KeyError(f"end-to-end metrics not measured: {missing}")
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in spec[kind]}
    return {"correct": not outcome.wrong, "attempted": outcome.attempted,
            "failed": outcome.failed, "metrics": metrics}


def print_run(line: dict, outcome: Outcome) -> None:
    for name, metric in line["metrics"].items():
        log(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in outcome.notes.items():
        log(f"  note {name} = {value:.6g}" if isinstance(value, float)
            else f"  note {name} = {value}")
    rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    log(f"  error_rate = {rate:.6g} ratio "
        f"({outcome.failed} of {outcome.attempted} statements)")
    for problem in outcome.wrong[:10]:
        log(f"  WRONG: {problem}")


def write_trace(root: str, workload: str, seed: int,
                tracer: Tracer) -> str:
    """Write the spans under ``.perfbench/`` and print each span name's
    share of the root spans' time, by self time."""
    directory = os.path.join(root, ".perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"trace-{workload}-{seed}.jsonl")
    tracer.write(path)
    roots = sum(s.duration for s in tracer.spans if s.parent is None)
    log(f"  trace: {len(tracer.spans)} spans in {path}")
    for name, own in sorted(self_time_by_name(tracer.spans).items(),
                            key=lambda item: -item[1]):
        log(f"    self {name:<28} {own * 1e3:10.1f} ms "
            f"{100 * own / roots if roots else 0:6.1f} %")
    return path


def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as spec:
        return json.load(spec)
