import hashlib
import random

import pytest

from notegraph.errors import BadEdgeList, EmptySong, OutOfRange
from notegraph.graph import TransitionGraph, graph_from_onsets, parse_edge_list
from notegraph.midi import onset_stream, parse_midi
from notegraph.nullmodels import RandomizerConfig, rewire_edges, shuffled_replicas

from fixture_midi import loop_midi, melodic_midi, write_midi
from oracles import graph_reference, total_transition_weight


def onsets(pairs, channel=0):
    return [(channel, t, p) for t, p in pairs]


class TestGroupChords:
    def test_same_tick_merges(self):
        g = graph_from_onsets(onsets([(0, 60), (0, 64), (480, 67)]))
        assert g.edges == {(60, 67): 1, (64, 67): 1}

    def test_increasing_ticks_are_singletons(self):
        g = graph_from_onsets(onsets([(0, 60), (10, 62), (20, 64)]))
        assert g.edges == {(60, 62): 1, (62, 64): 1}

    def test_duplicate_pitch_collapses(self):
        g = graph_from_onsets(onsets([(0, 60), (0, 60), (1, 62), (1, 62)]))
        assert g.edges == {(60, 62): 1}


class TestBuildGraph:
    def test_simple_alternation(self):
        g = graph_from_onsets(onsets([(0, 60), (1, 62), (2, 60)]))
        assert g.edges == {(60, 62): 1, (62, 60): 1}

    def test_chord_pair_is_complete_bipartite(self):
        g = graph_from_onsets(onsets([(0, 60), (0, 64), (480, 67)]))
        assert g.edges == {(60, 67): 1, (64, 67): 1}

    def test_pure_loop_raises_empty_song(self):
        with pytest.raises(EmptySong):
            graph_from_onsets(onsets([(0, 60), (1, 60)]))

    def test_channels_sum_weights(self):
        g = graph_from_onsets(onsets([(0, 60), (1, 62)], channel=0) + onsets([(0, 60), (1, 62)], channel=1))
        assert g.edges == {(60, 62): 2}

    def test_loop_only_pitch_stays_isolated_node(self):
        g = graph_from_onsets(onsets([(0, 60), (1, 62)], channel=0) + onsets([(0, 70), (1, 70)], channel=1))
        assert g.nodes == frozenset({60, 62, 70})
        assert g.edges == {(60, 62): 1}

    def test_shared_pitch_chord_pair_keeps_non_loop_pairs(self):
        g = graph_from_onsets(onsets([(0, 60), (0, 64), (1, 60), (1, 67)]))
        assert g.edges == {(60, 67): 1, (64, 60): 1, (64, 67): 1}

    def test_channel_order_does_not_matter(self):
        a = onsets([(0, 60), (1, 62), (2, 64)], channel=0)
        b = onsets([(0, 70), (1, 72)], channel=1)
        assert graph_from_onsets(a + b).edges == graph_from_onsets(b + a).edges

    def test_total_weight_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(50):
            streams = {}
            for ch in range(rng.randint(1, 3)):
                ticks = sorted(rng.randrange(0, 40) for _ in range(rng.randint(2, 30)))
                streams[ch] = [(t, rng.randrange(50, 70)) for t in ticks]
            stream = [row for ch, pairs in streams.items() for row in onsets(pairs, channel=ch)]
            expected = total_transition_weight(streams)
            if expected == 0:
                with pytest.raises(EmptySong):
                    graph_from_onsets(stream)
            else:
                assert graph_from_onsets(stream).total_weight == expected


def test_graph_from_onsets_groups_channels():
    stream = onsets([(0, 60), (1, 62)], channel=0) + onsets([(0, 70), (1, 71)], channel=2)
    g = graph_from_onsets(stream)
    assert g.edges == {(60, 62): 1, (70, 71): 1}


def _fuzz_stream(rng: random.Random) -> list[tuple[int, int, int]]:
    """A mixed-channel stream: unsorted ticks within a channel, repeated
    onsets, chords that share pitches, pitches 0 and 127, and loop-only
    pitches; now and then empty or loop-only as a whole."""
    shape = rng.randrange(10)
    if shape == 0:
        return []
    channels = rng.sample(range(16), rng.randint(1, 4))
    if shape == 1:  # loops only: each channel repeats one pitch
        return [(ch, t, 40 + ch) for ch in channels for t in range(rng.randint(1, 5))]
    palette = rng.sample([0, 127, *range(55, 70)], rng.randint(1, 6))
    rows = []
    for ch in channels:
        for _ in range(rng.randint(0, 15)):
            row = (ch, rng.randrange(8), rng.choice(palette))
            rows.extend([row] * rng.choice((1, 1, 1, 2)))
    if rng.random() < 0.5:
        rows.sort(key=lambda r: (r[0], r[1]))
    else:
        rng.shuffle(rows)
    return rows


def test_graph_from_onsets_matches_the_dict_builder():
    rng = random.Random(20)
    built = empty = 0
    for _ in range(2500):
        stream = _fuzz_stream(rng)
        try:
            expected = graph_reference(stream)
        except EmptySong:
            with pytest.raises(EmptySong):
                graph_from_onsets(stream)
            empty += 1
            continue
        g = graph_from_onsets(stream)
        assert g.node_list == expected.node_list, stream
        assert g.weights.dtype == expected.weights.dtype
        assert g.weights.tobytes() == expected.weights.tobytes(), stream
        built += 1
    assert built > 1500 and empty > 250


@pytest.mark.parametrize("pitch", [-1, 128, 300])
def test_graph_from_onsets_rejects_a_pitch_outside_0_127(pitch):
    with pytest.raises(OutOfRange, match=f"pitch {pitch} outside 0-127"):
        graph_from_onsets([(0, 0, 60), (0, 1, pitch), (0, 2, 62)])


def _ensemble_midi() -> bytes:
    """Four channels and drums: a melody, three-note chords, a bass
    figure that repeats its pitch, and a loop-only pitch."""
    notes = []
    for i in range(64):
        notes.append((i * 240, 0, 55 + (i * 5) % 19, 240))
        if i % 2 == 0:
            root = 48 + (i * 3) % 12
            for p in (root, root + 4, root + 7):
                notes.append((i * 240, 1, p, 480))
        notes.append((i * 240, 2, (40, 40, 43, 40)[i % 4], 120))
        notes.append((i * 240, 9, 36 + i % 3, 60))
        if i % 4 == 0:
            notes.append((i * 240, 3, 90, 240))
    return write_midi(notes, tempos=[(0, 500_000), (3840, 400_000)], fmt=1)


# SHA-256 of dump_edge_list() and the node count, as the dict builder
# made them: the build is integer-only, so no BLAS or numpy version
# moves these bytes
GOLDEN_EDGE_LISTS = {
    "melodic_0": (33, "6746ff2e14dba37fd0b5a690604e7dc32d88d2ff556201be153d40ce83cf7323"),
    "melodic_1": (36, "79a820b5328ebb0138a122a3ed42bdad042aa190cfe71f8f58a0855959010d77"),
    "melodic_2": (31, "4dbdcee2bc5fae16cadff7c95b071dd06c8a768a5989be0224c28a9e93b945d2"),
    "loop": (3, "ed5ed4ffe97e2d34f3735aaf4822d28954168a0b20e4cadc5a1e4f6f3b4d86b4"),
    "ensemble": (25, "39bfa0507abd992fe23d889c6dfbe2c987f6ffb2de6bf0c1c52c743b6f9c3b4e"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_EDGE_LISTS))
def test_fixture_edge_lists_keep_their_digest(name):
    if name.startswith("melodic_"):
        data = melodic_midi(seed=int(name.removeprefix("melodic_")), length=200)
    else:
        data = loop_midi(length=40) if name == "loop" else _ensemble_midi()
    g = graph_from_onsets(onset_stream(parse_midi(data)))
    digest = hashlib.sha256(g.dump_edge_list().encode()).hexdigest()
    assert (g.node_count, digest) == GOLDEN_EDGE_LISTS[name]


def test_edge_list_roundtrip():
    g = TransitionGraph(song_id="x", edges={(60, 62): 3, (62, 60): 1, (10, 90): 2})
    dumped = g.dump_edge_list()
    assert dumped.splitlines() == sorted(dumped.splitlines())
    assert parse_edge_list(dumped).edges == g.edges


@pytest.mark.parametrize("bad", [
    "60 62 x", "60 62", "60 62 1 4", "60 62 1.5",
    "60 60 1", "60 62 0", "60 62 -2", "60 128 1", "-1 62 1", "62 64 9",
], ids=["text-weight", "two-fields", "four-fields", "float-weight", "self-loop",
        "zero-weight", "negative-weight", "pitch-above-127", "pitch-below-0", "repeated-edge"])
def test_edge_list_rejects_a_bad_line_by_number(bad):
    text = "62 64 1\n\n60 64 2\n" + bad + "\n"
    with pytest.raises(BadEdgeList, match=r"^line 4: "):
        parse_edge_list(text)


def test_edge_list_keeps_the_extreme_pitches():
    assert parse_edge_list("0 127 1\n127 0 5\n").edges == {(0, 127): 1, (127, 0): 5}


def test_graphs_and_replicas_are_read_only():
    g = graph_from_onsets(
        onsets([(0, 60), (1, 62), (2, 64), (3, 60), (4, 64)], channel=0) + onsets([(0, 70), (1, 70)], channel=1)
    )
    cfg = RandomizerConfig(seed=2)
    replicas = [rewire_edges(g, cfg), next(shuffled_replicas(g, cfg))]
    for h in [g, *replicas]:
        with pytest.raises(TypeError):
            h.edges[(60, 62)] = 5
        assert not h.weights.flags.writeable
    for rep in replicas:
        assert rep.node_list == g.node_list
