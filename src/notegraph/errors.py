"""Exception hierarchy shared by all notegraph modules."""


class NotegraphError(Exception):
    """Base class for every error raised by this package."""


def not_utf8(error: type[NotegraphError], path) -> NotegraphError:
    """``error`` for a text file that does not decode as UTF-8, naming the
    file, the 1-based line (ended by LF, CR or CRLF, as the readers count
    lines) and the 1-based byte within it of the first bad byte. The file
    is read again to find it."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[:exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        byte = exc.start - max(head.rfind(b"\n"), head.rfind(b"\r"))
        return error(f"{path}, line {line}: byte {byte} is not UTF-8 ({exc.reason})")
    return error(f"{path}: not UTF-8")


class BadSetting(NotegraphError, ValueError):
    """A setting is unknown, unreadable or out of range."""


# --- catalog ---

class BadCatalog(NotegraphError):
    """A catalog row has more or fewer fields than the header, repeats a
    song_id, or has a field that must be an integer and is not."""


# --- MIDI parsing ---

class MidiParseError(NotegraphError):
    """Base class for Standard MIDI File parsing failures."""


class MalformedHeader(MidiParseError):
    pass


class UnsupportedFormat(MidiParseError):
    pass


class TruncatedChunk(MidiParseError):
    pass


class BadVariableLengthQuantity(MidiParseError):
    pass


# --- graph construction ---

class EmptySong(NotegraphError):
    """No note transitions survive in any channel."""


class BadEdgeList(NotegraphError):
    """An edge-list line is not "source target weight": two distinct
    pitches in 0-127 and a positive integer weight, each edge once."""


# --- metrics ---

class DegenerateGraph(NotegraphError):
    """Fewer than two nodes; the metric is undefined."""


class EmptyGraph(NotegraphError):
    pass


class EmptyCollection(NotegraphError):
    pass


# --- null models ---

class TooFewEdges(NotegraphError):
    pass


# --- Markov entropy ---

class NonConvergence(NotegraphError):
    """The stationary solve's L1 residual is too large or not finite."""

    def __init__(self, residual):
        super().__init__(f"stationary vector residual {residual:.3e}")
        self.residual = residual


# --- embeddings ---

class EmptyGroup(NotegraphError):
    pass


class ZeroVector(NotegraphError):
    pass


class EmptySet(NotegraphError):
    pass


# --- statistics ---

class EmptySample(NotegraphError):
    pass


class OutOfRange(NotegraphError):
    pass


class TooShort(NotegraphError):
    pass


class LengthMismatch(NotegraphError):
    pass


class ZeroVariance(NotegraphError):
    pass


# --- pipeline ---

class NoInputs(NotegraphError):
    pass


class BadSongsFile(NotegraphError):
    """A line of songs.jsonl is not a JSON object with every field the tables read."""


class UnwritableOutput(NotegraphError):
    pass


class InsufficientGroups(NotegraphError):
    pass
