"""notegraph: note-transition network analysis of MIDI corpora."""

from .graph import TransitionGraph, graph_from_onsets
from .metrics import compute_report
from .midi import ParsedMidi, onset_stream, parse_midi

__all__ = [
    "ParsedMidi",
    "TransitionGraph",
    "compute_report",
    "graph_from_onsets",
    "onset_stream",
    "parse_midi",
]

__version__ = "0.1.0"
