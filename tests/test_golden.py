"""The bytes one ``run_pipeline`` call writes for a fixed corpus, pinned
by SHA-256.

The corpus mixes melodic walks of many lengths, four-note loops and
wide songs over up to 128 pitches, so that the run cuts its jobs into
more than one chunk and stacks songs of mixed node counts; a too-short,
a truncated and a duplicate file are excluded on the way. The digests
were taken with numpy 2.4.6 on Python 3.11; other numpy versions are
not known to give the same bytes.
"""

import hashlib
import random

import fixture_midi
from notegraph.pipeline import PipelineConfig, run_pipeline

GOLDEN = {
    "songs.jsonl": "01b679d203836f104150640de521385af64da5c7b710a8e01e78d0f05538b4fc",
    "metrics.csv": "143d887d270f93bb2684a8fa590bd3d7a1a7b1199beb228636a635e10d55ed33",
    "embeddings.csv": "013090a57e783a46f37a785b51775b4dad7da684fce4af90e8977c81b07e6b3b",
}


def wide_midi(seed: int, width: int, length: int = 400) -> bytes:
    """``length`` eighth notes at 120 BPM (past the 60 s filter), each a
    pitch drawn from ``width`` of the 128; every one of them is sounded
    once first, so the graph has ``width`` nodes."""
    rng = random.Random(seed)
    pitches = rng.sample(range(128), width)
    order = pitches + [rng.choice(pitches) for _ in range(length - width)]
    notes = [(i * 240, 0, p, 240) for i, p in enumerate(order)]
    return fixture_midi.write_midi(notes, tempos=[(0, 500_000)])


def golden_corpus(root):
    """40 songs that are analysed, and three files that are excluded."""
    root.mkdir(parents=True, exist_ok=True)
    songs = {}
    for i in range(24):
        songs[f"melodic{i:02d}"] = fixture_midi.melodic_midi(seed=i, length=250 + 17 * i)
    for i in range(4):
        songs[f"loop{i}"] = fixture_midi.loop_midi(length=260 + i)
    for i, width in enumerate((2, 5, 12, 40, 64, 80, 90, 100, 110, 120, 127, 128)):
        songs[f"wide{i:02d}"] = wide_midi(seed=i, width=width)
    songs["short"] = fixture_midi.write_midi([(0, 0, 60, 480), (480, 0, 62, 480)],
                                             tempos=[(0, 500_000)])
    songs["truncated"] = fixture_midi.melodic_midi(seed=99)[:-40]
    songs["zz_copy"] = songs["melodic03"]
    for name, data in songs.items():
        (root / f"{name}.mid").write_bytes(data)
    return root


def test_one_run_writes_the_pinned_bytes(tmp_path):
    summary = run_pipeline(PipelineConfig(
        inputs=[str(golden_corpus(tmp_path / "in"))], output_dir=str(tmp_path / "out"),
        seed=7, workers=1, cache_dir=None))
    assert (summary["songs_analyzed"], summary["songs_excluded"]) == (40, 3)
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in GOLDEN}
    assert digests == GOLDEN
