"""Timed loop of one workload, run in a fresh process.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the workload, its input batches and the run length.
Each batch is one call into the program: ``run_pipeline`` on one input
directory, or ``notegraph report`` through ``cli.main``. Rounds over all
batches repeat until the run length is used up; a round is never cut.
Every call is timed with the probe sampler of ``clock``. With tracing
on, rounds alternate untraced and traced so the two can be compared,
and per-layer numbers come from the traced rounds only.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

from clock import Sampler
from spans import Tracer

PIPELINE_SEED = 7


# The entry points are looked up at call time, so that during traced
# rounds the calls go through the tracer's wrappers.

def _report(batch: dict, out_dir: Path, stdout: io.StringIO) -> int:
    from notegraph import cli

    with contextlib.redirect_stdout(stdout):
        return cli.main([
            "report", batch["songs"], "--catalog", batch["catalog"],
            "--output", str(out_dir), "--seed", str(PIPELINE_SEED), "--workers", "1",
        ])


def _pipeline(batch: dict, out_dir: Path) -> None:
    from notegraph.pipeline import PipelineConfig, run_pipeline

    run_pipeline(PipelineConfig(
        inputs=[batch["inputs"]], output_dir=str(out_dir), seed=PIPELINE_SEED, workers=1,
    ))


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text())
    import notegraph.cli  # noqa: F401  (loads every layer before tracing)

    sampler = Sampler()
    tracer = Tracer() if spec["trace"] else None
    segments = []
    deadline = time.perf_counter() + spec["seconds"]
    rnd = 0
    while True:
        traced = tracer is not None and rnd % 2 == 1
        if traced:
            tracer.install()
        for b, batch in enumerate(spec["batches"]):
            out_dir = Path(spec["out"]) / f"r{rnd}" / f"b{b}"
            if spec["workload"] == "corpus_report":
                stdout = io.StringIO()
                code, seconds, probe_speed = sampler.timed(_report, batch, out_dir, stdout)
                (out_dir / "report_stdout.json").write_text(stdout.getvalue())
                (out_dir / "exit_code").write_text(f"{code}\n")
            else:
                _, seconds, probe_speed = sampler.timed(_pipeline, batch, out_dir)
            segments.append({
                "round": rnd, "batch": b, "traced": traced,
                "seconds": seconds, "probe_speed": probe_speed,
            })
        if traced:
            tracer.uninstall()
        rnd += 1
        if time.perf_counter() >= deadline and (tracer is None or rnd % 2 == 0):
            break
    result = {
        "rounds": rnd,
        "segments": segments,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        total, own = tracer.totals(sampler.probes)
        result.update(span_total=total, span_self=own, counts=tracer.counts)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
