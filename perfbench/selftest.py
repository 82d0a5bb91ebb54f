"""Fast self-test of the benchmark's own generators and checks.

Usage (from the repository root): python3 perfbench/selftest.py

Shows that the generators are deterministic for a seed, that the checks
accept the program's real outputs, and that each check rejects a
perturbed output: an efficiency off by 1e-6, a dropped file, a wrong
Holm value, and a round that differs from round 0. Also shows that the
stem-collision failure clears once one of the two files is excluded
with a reason. Exits 0 when every case holds, 1 otherwise.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import checks  # noqa: E402
import gen  # noqa: E402
from notegraph import cli  # noqa: E402
from notegraph.pipeline import PipelineConfig, run_pipeline  # noqa: E402

FAILURES: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"[{'ok' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def unexpected(outcomes: list[checks.Outcome]) -> list[str]:
    return [o.name for o in outcomes if not o.ok and not o.known_fault]


def test_generators() -> None:
    for name, make in (("dense", gen.dense_set), ("sparse", gen.sparse_set)):
        a, b, c = make(3), make(3), make(4)
        same = [[s.data for s in batch] for batch in a] == [[s.data for s in batch] for batch in b]
        other = [[s.data for s in batch] for batch in a] != [[s.data for s in batch] for batch in c]
        expect(same and other, f"{name} inputs repeat for a seed and change with it")
    a, b = gen.corpus_set(3, 200), gen.corpus_set(3, 200)
    expect([r.record for r in a] == [r.record for r in b]
           and [r.record for r in a] != [r.record for r in gen.corpus_set(4, 200)],
           "corpus records repeat for a seed and change with it")


def _rewrite_jsonl(path: Path, edit) -> None:
    lines = path.read_text().splitlines()
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                            for r in edit([json.loads(line) for line in lines])))


def test_song_checks(work: Path) -> None:
    batch = gen.sparse_set(5)[0]
    in_dir, out_dir = work / "in", work / "out"
    gen.write_batch(batch, in_dir)
    run_pipeline(PipelineConfig(inputs=[str(in_dir)], output_dir=str(out_dir), seed=7))
    outcomes = checks.check_song_batch(batch, in_dir, out_dir)
    known = [o.name for o in outcomes if o.known_fault]
    expect(not unexpected(outcomes) and known == [gen.COLLIDING[1]],
           f"real outputs pass; only {gen.COLLIDING[1]} fails, on its id collision")

    bad = work / "bad"
    shutil.copytree(out_dir, bad)

    unique = {s.sha256 for s in batch if s.kind == "song"} - {s.sha256 for s in batch if s.kind == "copy"}
    target = next(s for s in batch if s.sha256 in unique and s.relpath not in gen.COLLIDING)

    def nudge(records):
        for rec in records:
            if rec["content_hash"] == target.sha256:
                rec["efficiency"] += 1e-6
        return records
    _rewrite_jsonl(bad / "songs.jsonl", nudge)
    flagged = unexpected(checks.check_song_batch(batch, in_dir, bad))
    expect(flagged == [target.relpath], "an efficiency off by 1e-6 fails that file")

    shutil.copy(out_dir / "songs.jsonl", bad / "songs.jsonl")
    _rewrite_jsonl(bad / "songs.jsonl",
                   lambda records: [r for r in records if r["content_hash"] != target.sha256])
    flagged = unexpected(checks.check_song_batch(batch, in_dir, bad))
    expect(flagged == [target.relpath], "a dropped file fails")

    expect(checks.same_bytes(out_dir, bad) == ["songs.jsonl"]
           and checks.same_bytes(out_dir, out_dir) == [],
           "a round that differs from round 0 is found")

    # a fix that excludes one file of the stem collision with a reason
    fixed = work / "fixed"
    shutil.copytree(out_dir, fixed)
    pair = [s for s in batch if s.relpath in gen.COLLIDING]

    def exclude(songs):
        hashes = {s.sha256 for s in songs}
        _rewrite_jsonl(fixed / "songs.jsonl",
                       lambda records: [r for r in records if r["content_hash"] not in hashes])
        with open(fixed / "exclusions.csv", "a", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(
                [Path(s.relpath).stem, str(in_dir / s.relpath), "IdCollision: stem already used"]
                for s in songs)
    exclude(pair[1:])
    expect(all(o.ok for o in checks.check_song_batch(batch, in_dir, fixed)),
           f"excluding {gen.COLLIDING[1]} with a reason clears its failure")
    exclude(pair[:1])
    flagged = unexpected(checks.check_song_batch(batch, in_dir, fixed))
    expect(flagged == list(gen.COLLIDING), "excluding both colliding files fails both")


def test_report_checks(work: Path) -> None:
    rows = gen.corpus_set(5, 400)
    songs, catalog = gen.write_corpus(rows, work / "corpus")
    out_dir = work / "report"
    captured = io.StringIO()
    with contextlib.redirect_stdout(captured):
        code = cli.main(["report", str(songs), "--catalog", str(catalog), "--output", str(out_dir)])
    (out_dir / "report_stdout.json").write_text(captured.getvalue())
    (out_dir / "exit_code").write_text(f"{code}\n")
    outcomes = checks.check_report(rows, out_dir)
    known = [o.name for o in outcomes if o.known_fault]
    expect(not unexpected(outcomes) and known == ["component_correlations.csv"],
           "real report passes; only component_correlations.csv fails, on its numpy repr")

    table = out_dir / "genre_tests.csv"
    with open(table, newline="") as fh:
        data = list(csv.reader(fh))
    column = data[0].index("p_adjusted")
    p_adj = float(data[3][column])
    data[3][column] = repr(p_adj * 0.999 if p_adj > 0 else 1e-9)
    with open(table, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(data)
    flagged = unexpected(checks.check_report(rows, out_dir))
    expect(flagged == ["genre_tests.csv"], "a wrong Holm value fails genre_tests.csv")

    (out_dir / "gs_scores.csv").unlink()
    flagged = unexpected(checks.check_report(rows, out_dir))
    expect("gs_scores.csv" in flagged, "a missing table fails")


def main() -> int:
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        test_generators()
        test_song_checks(work)
        test_report_checks(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
