"""notegraph: note-transition network analysis of MIDI corpora."""

from .graph import TransitionGraph, build_graph, graph_from_onsets, group_chords
from .metrics import compute_report
from .midi import NoteOnset, ParsedMidi, onset_stream, parse_midi

__all__ = [
    "NoteOnset",
    "ParsedMidi",
    "TransitionGraph",
    "build_graph",
    "compute_report",
    "graph_from_onsets",
    "group_chords",
    "onset_stream",
    "parse_midi",
]

__version__ = "0.1.0"
