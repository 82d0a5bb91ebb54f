"""Weighted directed note-transition networks built from onset streams.

Simultaneous onsets (identical tick, same channel) form a chord; each
consecutive chord pair contributes the complete bipartite edge set
between its pitches, loops excluded. Channels are processed separately
and their transition counts summed into one graph per song.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Mapping
from functools import cached_property
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .errors import BadEdgeList, EmptySong
from .midi import NoteOnset


class TransitionGraph:
    """Weighted directed pitch transition network, stored as its weight
    matrix: ``weights`` is read-only and n x n over ``node_list``, the
    sorted pitches; entry [i, j] counts transitions node_list[i] ->
    node_list[j]. The constructor takes the counts as an ``edges`` dict,
    (source, target) -> positive count, and ``isolated`` pitches kept as
    nodes even when they touch no edge (say, loop-only pitches).
    ``edges`` reads the dict back from the matrix, read-only. Every
    measure and null model works on ``weights``; :meth:`with_weights`
    wraps a null model's matrix as a graph.
    """

    def __init__(
        self,
        song_id: str = "",
        edges: Mapping[tuple[int, int], int] = MappingProxyType({}),
        isolated: Iterable[int] = frozenset(),
    ):
        node_list = tuple(sorted({p for edge in edges for p in edge}.union(isolated)))
        index = {node: i for i, node in enumerate(node_list)}
        w = np.zeros((len(index), len(index)))
        for (s, t), count in edges.items():
            w[index[s], index[t]] = count
        self._set(song_id, node_list, w)

    def _set(self, song_id: str, node_list: tuple[int, ...], weights: np.ndarray):
        weights.setflags(write=False)
        self.song_id = song_id
        self.node_list = node_list
        self.weights = weights
        return self

    def with_weights(self, w: np.ndarray) -> TransitionGraph:
        """The graph with weight matrix ``w`` over this ``node_list``;
        ``w`` becomes read-only."""
        return object.__new__(TransitionGraph)._set(self.song_id, self.node_list, w)

    @cached_property
    def edges(self) -> Mapping[tuple[int, int], int]:
        """(source, target) -> count, one entry per nonzero of ``weights``,
        in row-major order, which is sorted order."""
        nodes = self.node_list
        src, tgt = np.nonzero(self.weights)
        return MappingProxyType({
            (nodes[s], nodes[t]): int(x)
            for s, t, x in zip(src.tolist(), tgt.tolist(), self.weights[src, tgt].tolist())
        })

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.node_list)

    @property
    def node_count(self) -> int:
        return len(self.node_list)

    @property
    def edge_count(self) -> int:
        return int(np.count_nonzero(self.weights))

    @property
    def total_weight(self) -> int:
        return int(self.weights.sum())

    def dump_edge_list(self) -> str:
        """Edge-list text, one "source target weight" line, sorted."""
        lines = [f"{s} {t} {w}" for (s, t), w in self.edges.items()]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(text: str, song_id: str = "") -> TransitionGraph:
    """Inverse of :meth:`TransitionGraph.dump_edge_list`; blank lines are
    skipped. A line that is not a new edge between two distinct pitches
    in 0-127 with a positive integer weight raises ``BadEdgeList``,
    which names the 1-based line."""
    edges: dict[tuple[int, int], int] = {}
    for number, line in enumerate(text.splitlines(), 1):
        fields = line.split()
        if not fields:
            continue
        try:
            s, t, w = map(int, fields)
        except ValueError:
            raise BadEdgeList(f"line {number}: not three integers: {line.strip()!r}") from None
        if not (0 <= s <= 127 and 0 <= t <= 127):
            problem = "pitch outside 0-127"
        elif s == t:
            problem = "self-loop"
        elif w < 1:
            problem = "weight below 1"
        elif (s, t) in edges:
            problem = "repeated edge"
        else:
            edges[(s, t)] = w
            continue
        raise BadEdgeList(f"line {number}: {problem}: {line.strip()!r}")
    if not edges:
        raise EmptySong("edge list contains no edges")
    return TransitionGraph(song_id=song_id, edges=edges)


def group_chords(onsets: list[NoteOnset]) -> list[frozenset[int]]:
    """Merge same-tick onsets of one channel into chords, each the set of
    its pitches, order kept."""
    return [
        frozenset(o.pitch for o in group)
        for _, group in groupby(onsets, key=lambda o: o.tick)
    ]


def build_graph(chord_sequences: list[list[frozenset[int]]], song_id: str = "") -> TransitionGraph:
    """Sum per-channel chord-to-chord transitions into one graph.

    Raises EmptySong when no channel contributes any non-loop transition.
    """
    counts: dict[tuple[int, int], int] = defaultdict(int)
    loop_pitches: set[int] = set()
    for chords in chord_sequences:
        for a, b in zip(chords, chords[1:]):
            for x in a:
                for y in b:
                    if x == y:
                        loop_pitches.add(x)
                    else:
                        counts[(x, y)] += 1
    if not counts:
        raise EmptySong("no non-loop transitions")
    return TransitionGraph(song_id=song_id, edges=counts, isolated=loop_pitches)


def graph_from_onsets(onsets: list[NoteOnset], song_id: str = "") -> TransitionGraph:
    """Group a mixed-channel onset stream into chords and build the graph."""
    by_channel: dict[int, list[NoteOnset]] = defaultdict(list)
    for o in onsets:
        by_channel[o.channel].append(o)
    sequences = [group_chords(by_channel[ch]) for ch in sorted(by_channel)]
    return build_graph(sequences, song_id=song_id)
