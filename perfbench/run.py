"""notegraph benchmark: one workload, one run, one JSON line.

Usage (from the repository root):

    python3 perfbench/run.py --workload dense_songs --seed 1 --seconds 20 --trace 0

Workloads: dense_songs, sparse_songs, corpus_report (see README.md).
The inputs are generated from --seed into .perfbench-work/ and removed
afterwards. The program is imported from src/ and timed in a fresh
worker process; its outputs are then checked here against
computations made apart from it. The last line of standard output is
one JSON object with correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORKLOADS = ("dense_songs", "sparse_songs", "corpus_report")
SETUP_RUNS = 5
IMPORT_RUNS = 3
WORKER_MARGIN_S = 130  # a round started just before the end, plus start-up
IMPORT_CMD = "import notegraph.cli"
IMPORTED = ("notegraph", "notegraph.errors", "notegraph.graph", "notegraph.midi",
            "notegraph.nullmodels", "notegraph.metrics", "notegraph.markov",
            "notegraph.stats", "notegraph.embeddings", "notegraph.catalog",
            "notegraph.pipeline", "notegraph.cli", "numpy", "scipy.stats")

# per-layer metric -> (span total | span self | count, key)
LAYER_METRICS = {
    "midi.parse_s": ("total", "midi.parse"),
    "midi.onsets_s": ("total", "midi.onsets"),
    "midi.onsets": ("count", "midi.onsets"),
    "midi.tempo_changes": ("count", "midi.tempo_changes"),
    "graph.build_s": ("total", "graph.build"),
    "graph.nodes": ("count", "graph.nodes"),
    "graph.edges": ("count", "graph.edges"),
    "metrics.report_s": ("self", "metrics.report"),
    "metrics.efficiency_s": ("total", "metrics.efficiency"),
    "metrics.efficiency_calls": ("count", "metrics.efficiency_calls"),
    "nullmodels.rewire_s": ("total", "nullmodels.rewire"),
    "nullmodels.rewire_attempts": ("count", "nullmodels.rewire_attempts"),
    "nullmodels.rewire_moved": ("count", "nullmodels.rewire_moved"),
    "nullmodels.shuffle_s": ("total", "nullmodels.shuffle"),
    "nullmodels.shuffled_replicas": ("count", "nullmodels.shuffle_calls"),
    "markov.entropy_s": ("total", "markov.entropy"),
    "markov.entropy_calls": ("count", "markov.entropy_calls"),
    "embeddings.interval_s": ("total", "embeddings.interval"),
    "embeddings.gs_s": ("total", "embeddings.gs"),
    "embeddings.pca_s": ("total", "embeddings.pca"),
    "embeddings.corr_s": ("total", "embeddings.corr"),
    "stats.mwu_s": ("total", "stats.mwu"),
    "stats.mwu_calls": ("count", "stats.mwu_calls"),
    "stats.mwu_pairs": ("count", "stats.mwu_pairs"),
    "stats.holm_s": ("total", "stats.holm"),
    "stats.mk_s": ("total", "stats.mk"),
    "stats.pearson_s": ("total", "stats.pearson"),
    "catalog.load_s": ("total", "catalog.load"),
    "catalog.rows": ("count", "catalog.rows"),
    "pipeline.scan_s": ("total", "pipeline.scan"),
    "pipeline.analyze_s": ("self", "pipeline.analyze"),
    "pipeline.analyses": ("count", "pipeline.analyze_calls"),
    "pipeline.duplicate_analyses": ("count", "pipeline.duplicate_analyses"),
    "pipeline.aggregate_s": ("self", "pipeline.aggregate"),
    "pipeline.tests_s": ("total", "pipeline.tests"),
    "pipeline.trend_s": ("total", "pipeline.trend"),
    "cli.self_s": ("self", "cli.main"),
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop("NOTEGRAPH_CACHE", None)  # every analysis runs cold
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    return env


def _python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """(wall seconds, process) of one fresh interpreter."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *args], env=_env(),
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
    return elapsed, proc


def measure_setup() -> tuple[float, float]:
    """Median (raw, scaled) seconds of a fresh process importing notegraph.cli."""
    from clock import SETUP_EXPONENT, scaled

    _python(["-c", IMPORT_CMD])  # compiles byte code once, like any installed package
    raw, ref = [], []
    for _ in range(SETUP_RUNS):
        wall, proc = _python([str(HERE / "fresh_import.py")])
        probes = json.loads(proc.stdout)
        raw.append(wall - probes["probe_s"])
        ref.append(scaled(raw[-1], probes["probe_speed"], SETUP_EXPONENT))
    return statistics.median(raw), statistics.median(ref)


def measure_imports(factor: float) -> dict[str, float]:
    """Cumulative import time per module (python -X importtime), median of fresh processes."""
    samples: dict[str, list[float]] = {name: [] for name in IMPORTED}
    for _ in range(IMPORT_RUNS):
        for line in _python(["-X", "importtime", "-c", IMPORT_CMD])[1].stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
            if m and m.group(2) in samples:
                samples[m.group(2)].append(int(m.group(1)) / 1e6)
    return {
        f"import.{name.removeprefix('notegraph.')}_s":
            statistics.median(v) * factor if v else 0.0
        for name, v in samples.items()
    }


def build_inputs(workload: str, seed: int, work: Path) -> tuple[list, list[dict]]:
    """Generate and write the inputs; returns (generator view, worker batches)."""
    import gen

    if workload == "corpus_report":
        rows = gen.corpus_set(seed)
        songs, catalog = gen.write_corpus(rows, work / "in")
        return rows, [{"songs": str(songs), "catalog": str(catalog), "items": len(rows)}]
    batches = gen.dense_set(seed) if workload == "dense_songs" else gen.sparse_set(seed)
    specs = []
    for b, songs in enumerate(batches):
        directory = work / "in" / f"b{b}"
        gen.write_batch(songs, directory)
        specs.append({"inputs": str(directory), "items": len(songs)})
    return batches, specs


def run_worker(spec: dict, work: Path) -> dict:
    """Run the timed loop in a fresh process; the worker writes its figures to a file."""
    spec_path, result_path = work / "spec.json", work / "result.json"
    spec_path.write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)],
                            env=_env(), stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=spec["seconds"] + WORKER_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker timed out")
    if code != 0:
        raise RuntimeError(f"worker exited with {code}")
    return json.loads(result_path.read_text())


def check_outputs(workload: str, inputs: list, specs: list[dict], rounds: int,
                  out: Path) -> tuple[int, int, bool, list[str]]:
    """(attempted, failed, correct, messages) over every round of the run."""
    import checks

    attempted = failed = 0
    correct = True
    messages = []
    for b, spec in enumerate(specs):
        first = out / "r0" / f"b{b}"
        if workload == "corpus_report":
            outcomes = checks.check_report(inputs, first)
        else:
            outcomes = checks.check_song_batch(inputs[b], Path(spec["inputs"]), first)
        for o in outcomes:
            if not o.ok and not o.known_fault:
                correct = False
                messages.append(f"batch {b} {o.name}: {'; '.join(o.errors)}")
        for r in range(rounds):
            differs = [] if r == 0 else checks.same_bytes(first, out / f"r{r}" / f"b{b}")
            if differs:
                correct = False
                messages.append(f"round {r} batch {b} differs from round 0: {differs[:3]}")
            for o in outcomes:
                attempted += 1
                if workload == "corpus_report":
                    bad = not o.ok or o.name in differs
                else:
                    bad = not o.ok or bool(differs)
                failed += bad
    return attempted, failed, correct, messages


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "notegraph" / "__init__.py").is_file() or not (TESTS / "oracles.py").is_file():
        print("run from the repository root: src/notegraph and tests/oracles.py are needed",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]

    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup_raw, setup_s = measure_setup()
        inputs, specs = build_inputs(args.workload, args.seed, work)
        result = run_worker({
            "workload": args.workload, "seconds": args.seconds, "trace": bool(args.trace),
            "out": str(work / "out"), "batches": specs,
        }, work)
        attempted, failed, correct, messages = check_outputs(
            args.workload, inputs, specs, result["rounds"], work / "out")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    from clock import scaled
    items = [s["items"] for s in specs]

    def seconds(traced: bool) -> tuple[float, float]:
        """(raw, scaled) seconds of the traced or untraced calls."""
        segs = [s for s in result["segments"] if s["traced"] == traced]
        return (sum(s["seconds"] for s in segs),
                sum(scaled(s["seconds"], s["probe_speed"]) for s in segs))

    raw_s, ref_s = seconds(False)
    handled = sum(items[s["batch"]] for s in result["segments"] if not s["traced"])
    for line in messages:
        print(line, file=sys.stderr)
    print(json.dumps({
        "raw": {"setup_s": setup_raw, "songs_per_s": handled / raw_s, "run_s": raw_s,
                "rounds": result["rounds"]},
    }), file=sys.stderr)

    if args.trace:
        traced_rounds = result["rounds"] // 2
        traced_raw, traced_ref = seconds(True)
        factor = traced_ref / traced_raw
        metrics = {}
        for name, (kind, key) in LAYER_METRICS.items():
            if kind == "count":
                metrics[name] = {"value": result["counts"].get(key, 0) / traced_rounds,
                                 "unit": "count"}
            else:
                table = result["span_total"] if kind == "total" else result["span_self"]
                metrics[name] = {"value": table.get(key, 0.0) * factor / traced_rounds,
                                 "unit": "s"}
        for name, value in measure_imports(setup_s / setup_raw).items():
            metrics[name] = {"value": value, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100 * (traced_ref / ref_s - 1), "unit": "%"}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "songs_per_s": {"value": handled / ref_s, "unit": "1/s"},
            "peak_rss_mb": {"value": result["maxrss_kb"] / 1024, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
