"""Weighted directed note-transition networks built from onset streams.

Simultaneous onsets (identical tick, same channel) form a chord; each
consecutive chord pair contributes the complete bipartite edge set
between its pitches, loops excluded. Channels are processed separately
and their transition counts summed into one graph per song.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from functools import cached_property
from types import MappingProxyType

import numpy as np

from .errors import BadEdgeList, EmptySong, OutOfRange


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
        src, tgt, values = self.edge_rows
        return MappingProxyType({
            (nodes[s], nodes[t]): int(x)
            for s, t, x in zip(src.tolist(), tgt.tolist(), values.tolist())
        })

    @cached_property
    def edge_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of ``weights`` as (``src``, ``tgt``, ``values``):
        their row and column indices in row-major order, so each row's
        edges are one stretch, and their weights. ``edges`` and the null
        models read it. ``weights`` is read-only and so is each part, so
        the cache holds, and the out-weight shuffle reads a graph once,
        not once per replica."""
        src, tgt = np.nonzero(self.weights)
        values = self.weights[src, tgt]
        for part in (src, tgt, values):
            part.setflags(write=False)
        return src, tgt, values

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


def graph_from_onsets(onsets, song_id: str = "") -> TransitionGraph:
    """Build a song's graph from (channel, tick, pitch) rows.

    Each channel keeps its rows in the order given; a chord starts
    wherever the channel or the tick changes, and a pitch repeated
    within a chord counts once. Raises EmptySong when no channel
    contributes a non-loop transition and OutOfRange for a pitch outside
    0-127.
    """
    rows = np.asarray(onsets, dtype=np.int64).reshape(-1, 3)
    channel, tick, pitch = rows[np.argsort(rows[:, 0], kind="stable")].T
    if pitch.size and not (0 <= pitch.min() and pitch.max() <= 127):
        raise OutOfRange(f"pitch {pitch[(pitch < 0) | (pitch > 127)][0]} outside 0-127")
    starts = np.ones(len(pitch), dtype=bool)
    starts[1:] = (channel[1:] != channel[:-1]) | (tick[1:] != tick[:-1])
    # one sorted key per (chord, pitch), repeats dropped
    key = np.sort((np.cumsum(starts) - 1) * 128 + pitch)
    key = key[np.diff(key, prepend=-1) != 0]
    chord, pitch = key >> 7, key & 127
    size = np.bincount(chord, minlength=int(starts.sum()))
    first = np.cumsum(size) - size
    chord_channel = channel[starts]
    has_next = np.zeros(len(size), dtype=bool)
    has_next[:-1] = chord_channel[1:] == chord_channel[:-1]
    # each pitch of a chord with a same-channel successor meets every
    # pitch of that successor
    paired = has_next[chord]
    nxt = chord[paired] + 1
    reps = size[nxt]
    offset = np.repeat(first[nxt] - (np.cumsum(reps) - reps), reps)
    src = np.repeat(pitch[paired], reps)
    tgt = pitch[offset + np.arange(len(offset))]
    counts = np.bincount(src * 128 + tgt, minlength=128 * 128).reshape(128, 128)
    loops = counts.diagonal() > 0
    np.fill_diagonal(counts, 0)
    if not counts.any():
        raise EmptySong("no non-loop transitions")
    nodes = np.flatnonzero(counts.any(axis=0) | counts.any(axis=1) | loops)
    weights = counts[np.ix_(nodes, nodes)].astype(np.float64)
    return object.__new__(TransitionGraph)._set(song_id, tuple(nodes.tolist()), weights)
