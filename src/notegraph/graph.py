"""Weighted directed note-transition networks built from onset streams.

Simultaneous onsets (identical tick, same channel) form a chord; each
consecutive chord pair contributes the complete bipartite edge set
between its pitches, loops excluded. Channels are processed separately
and their transition counts summed into one graph per song.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import cached_property
from itertools import groupby

import numpy as np

from .errors import EmptySong
from .midi import NoteOnset


@dataclass(frozen=True)
class Chord:
    pitches: frozenset[int]


@dataclass(frozen=True)
class TransitionGraph:
    """Directed multigraph-free pitch transition network.

    ``edges`` maps (source, target) to a positive integer count.
    ``isolated`` holds pitches whose only transitions were loops; they
    remain nodes but touch no edge. ``edges`` must not be modified once
    ``node_list`` or ``weights`` has been read: both are cached.

    In the package only this module reads ``edges``: every measure, null
    model and embedding works on ``weights``, and :meth:`with_weights`
    turns a matrix back into a graph.
    """

    song_id: str = ""
    edges: dict[tuple[int, int], int] = field(default_factory=dict)
    isolated: frozenset[int] = frozenset()

    @cached_property
    def node_list(self) -> tuple[int, ...]:
        """Every node, sorted: the row and column order of ``weights``."""
        return tuple(sorted({p for edge in self.edges for p in edge} | self.isolated))

    @cached_property
    def weights(self) -> np.ndarray:
        """Read-only n x n matrix over ``node_list``; entry [i, j] is the
        weight of edge node_list[i] -> node_list[j], 0 where there is none."""
        index = {node: i for i, node in enumerate(self.node_list)}
        w = np.zeros((len(index), len(index)))
        for (s, t), count in self.edges.items():
            w[index[s], index[t]] = count
        w.setflags(write=False)
        return w

    def with_weights(self, w: np.ndarray) -> TransitionGraph:
        """The graph with weight matrix ``w`` over this ``node_list``: one
        edge per nonzero entry, the same ``isolated`` pitches. Every other
        pitch must keep an edge, as the null models ensure."""
        nodes = self.node_list
        src, tgt = np.nonzero(w)
        edges = {
            (nodes[s], nodes[t]): int(x)
            for s, t, x in zip(src.tolist(), tgt.tolist(), w[src, tgt].tolist())
        }
        return TransitionGraph(song_id=self.song_id, edges=edges, isolated=self.isolated)

    @property
    def nodes(self) -> frozenset[int]:
        return frozenset(self.node_list)

    @property
    def node_count(self) -> int:
        return len(self.node_list)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def total_weight(self) -> int:
        return sum(self.edges.values())

    def dump_edge_list(self) -> str:
        """Edge-list text, one "source target weight" line, sorted."""
        lines = [f"{s} {t} {w}" for (s, t), w in sorted(self.edges.items())]
        return "\n".join(lines) + ("\n" if lines else "")


def parse_edge_list(text: str, song_id: str = "") -> TransitionGraph:
    """Inverse of :meth:`TransitionGraph.dump_edge_list`."""
    edges: dict[tuple[int, int], int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        s, t, w = line.split()
        edges[(int(s), int(t))] = int(w)
    if not edges:
        raise EmptySong("edge list contains no edges")
    return TransitionGraph(song_id=song_id, edges=edges)


def group_chords(onsets: list[NoteOnset]) -> list[Chord]:
    """Merge same-tick onsets of one channel into chords, order kept."""
    return [
        Chord(pitches=frozenset(o.pitch for o in group))
        for _, group in groupby(onsets, key=lambda o: o.tick)
    ]


def build_graph(chord_sequences: list[list[Chord]], song_id: str = "") -> TransitionGraph:
    """Sum per-channel chord-to-chord transitions into one graph.

    Raises EmptySong when no channel contributes any non-loop transition.
    """
    counts: dict[tuple[int, int], int] = defaultdict(int)
    loop_pitches: set[int] = set()
    for chords in chord_sequences:
        for a, b in zip(chords, chords[1:]):
            for x in a.pitches:
                for y in b.pitches:
                    if x == y:
                        loop_pitches.add(x)
                    else:
                        counts[(x, y)] += 1
    if not counts:
        raise EmptySong("no non-loop transitions")
    endpoints = {p for edge in counts for p in edge}
    return TransitionGraph(
        song_id=song_id,
        edges=dict(counts),
        isolated=frozenset(loop_pitches - endpoints),
    )


def graph_from_onsets(onsets: list[NoteOnset], song_id: str = "") -> TransitionGraph:
    """Group a mixed-channel onset stream into chords and build the graph."""
    by_channel: dict[int, list[NoteOnset]] = defaultdict(list)
    for o in onsets:
        by_channel[o.channel].append(o)
    sequences = [group_chords(by_channel[ch]) for ch in sorted(by_channel)]
    return build_graph(sequences, song_id=song_id)
