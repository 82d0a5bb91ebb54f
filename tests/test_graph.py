import random

import pytest

from notegraph.errors import BadEdgeList, EmptySong
from notegraph.graph import (
    TransitionGraph,
    build_graph,
    graph_from_onsets,
    group_chords,
    parse_edge_list,
)
from notegraph.midi import NoteOnset
from notegraph.nullmodels import RandomizerConfig, rewire_edges, shuffle_out_weights

from oracles import chords_from_stream, total_transition_weight


def onsets(pairs, channel=0):
    return [
        NoteOnset(tick=t, pitch=p, channel=channel)
        for t, p in pairs
    ]


class TestGroupChords:
    def test_same_tick_merges(self):
        chords = group_chords(onsets([(0, 60), (0, 64), (480, 67)]))
        assert [set(c) for c in chords] == [{60, 64}, {67}]

    def test_increasing_ticks_are_singletons(self):
        chords = group_chords(onsets([(0, 60), (10, 62), (20, 64)]))
        assert all(len(c) == 1 for c in chords)

    def test_duplicate_pitch_collapses(self):
        chords = group_chords(onsets([(0, 60), (0, 60)]))
        assert [set(c) for c in chords] == [{60}]


class TestBuildGraph:
    def test_simple_alternation(self):
        g = build_graph([group_chords(onsets([(0, 60), (1, 62), (2, 60)]))])
        assert g.edges == {(60, 62): 1, (62, 60): 1}

    def test_chord_pair_is_complete_bipartite(self):
        g = build_graph([group_chords(onsets([(0, 60), (0, 64), (480, 67)]))])
        assert g.edges == {(60, 67): 1, (64, 67): 1}

    def test_pure_loop_raises_empty_song(self):
        seq = group_chords(onsets([(0, 60), (1, 60)]))
        with pytest.raises(EmptySong):
            build_graph([seq])

    def test_channels_sum_weights(self):
        a = group_chords(onsets([(0, 60), (1, 62)], channel=0))
        b = group_chords(onsets([(0, 60), (1, 62)], channel=1))
        g = build_graph([a, b])
        assert g.edges == {(60, 62): 2}

    def test_loop_only_pitch_stays_isolated_node(self):
        a = group_chords(onsets([(0, 60), (1, 62)], channel=0))
        b = group_chords(onsets([(0, 70), (1, 70)], channel=1))
        g = build_graph([a, b])
        assert g.nodes == frozenset({60, 62, 70})
        assert g.edges == {(60, 62): 1}

    def test_shared_pitch_chord_pair_keeps_non_loop_pairs(self):
        g = build_graph([group_chords(onsets([(0, 60), (0, 64), (1, 60), (1, 67)]))])
        assert g.edges == {(60, 67): 1, (64, 60): 1, (64, 67): 1}

    def test_channel_order_does_not_matter(self):
        a = group_chords(onsets([(0, 60), (1, 62), (2, 64)], channel=0))
        b = group_chords(onsets([(0, 70), (1, 72)], channel=1))
        assert build_graph([a, b]).edges == build_graph([b, a]).edges

    def test_total_weight_matches_brute_force(self):
        rng = random.Random(11)
        for _ in range(50):
            streams = {}
            for ch in range(rng.randint(1, 3)):
                ticks = sorted(rng.randrange(0, 40) for _ in range(rng.randint(2, 30)))
                streams[ch] = [(t, rng.randrange(50, 70)) for t in ticks]
            sequences = [
                group_chords(onsets(stream, channel=ch))
                for ch, stream in streams.items()
            ]
            expected = total_transition_weight(streams)
            if expected == 0:
                with pytest.raises(EmptySong):
                    build_graph(sequences)
            else:
                assert build_graph(sequences).total_weight == expected


def test_graph_from_onsets_groups_channels():
    stream = onsets([(0, 60), (1, 62)], channel=0) + onsets([(0, 70), (1, 71)], channel=2)
    g = graph_from_onsets(stream)
    assert g.edges == {(60, 62): 1, (70, 71): 1}


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
    a = group_chords(onsets([(0, 60), (1, 62), (2, 64), (3, 60), (4, 64)], channel=0))
    b = group_chords(onsets([(0, 70), (1, 70)], channel=1))
    g = build_graph([a, b])
    cfg = RandomizerConfig(seed=2)
    replicas = [rewire_edges(g, cfg), shuffle_out_weights(g, cfg)]
    for h in [g, *replicas]:
        with pytest.raises(TypeError):
            h.edges[(60, 62)] = 5
        assert not h.weights.flags.writeable
    for rep in replicas:
        assert rep.node_list == g.node_list
