"""Standard MIDI File parsing and tempo-aware note onset extraction.

Only note identity and timing are kept: pitch bends, aftertouch and
controller data are decoded (to keep the stream in sync) and discarded.
Channel 10 (index 9) is the General MIDI percussion channel and is
excluded from onset streams.

Events are read one at a time, but a long run of channel messages with
two data bytes, or of tempo events, is matched by one call of a
possessive regex and decoded with a few numpy calls; the run stops
before any event it does not fully hold, so the event loop still reads
everything else and raises every parse error.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .errors import (
    BadVariableLengthQuantity,
    MalformedHeader,
    TruncatedChunk,
    UnsupportedFormat,
)

DEFAULT_TEMPO_US = 500_000  # microseconds per quarter note (120 BPM)
PERCUSSION_CHANNEL = 9

# A run of channel messages with two data bytes (note off and on, key
# pressure, controller, pitch bend): a delta of at most 4 bytes, an
# optional status byte, two data bytes. Each byte's class is forced, so
# a match is exactly what the event loop would read; an event the loop
# would refuse, or decode another way, ends the run before it. As no
# match can give bytes back, the quantifiers are possessive, and the
# engine keeps no backtracking state however long the run.
_CHANNEL_RUN = re.compile(rb"(?:[\x80-\xff]{0,3}+[\x00-\x7f][\x80-\xbf\xe0-\xef]?+[\x00-\x7f]{2})++")
# a run of set-tempo meta events, each with a delta of at most 4 bytes
_TEMPO_RUN = re.compile(rb"(?:[\x80-\xff]{0,3}+[\x00-\x7f]\xff\x51\x03[\x00-\xff]{3})++")
# shorter runs stay on the event loop, which costs less than the numpy calls
MIN_RUN_BYTES = 48


@dataclass
class ParsedMidi:
    # (k, 3) int64 rows (channel, tick, pitch): every sounding note start,
    # in file order, drums included
    onsets: np.ndarray
    tempo_changes: list[tuple[int, int]]  # (tick, microseconds per quarter)
    duration: float  # seconds to the last note-on or note-off on any channel


def _read_vlq(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Read a variable-length quantity; returns (value, new position)."""
    value = 0
    for i in range(4):
        if pos >= end:
            raise TruncatedChunk("variable-length quantity runs past chunk end")
        byte = data[pos]
        pos += 1
        value = (value << 7) | (byte & 0x7F)
        if not byte & 0x80:
            return value, pos
    raise BadVariableLengthQuantity("variable-length quantity longer than 4 bytes")


def _run_ticks(run: np.ndarray, last: np.ndarray, lead: np.ndarray, tick: int) -> np.ndarray:
    """The tick of each event of a run that starts at ``tick``: ``last``
    indexes each delta's last byte in ``run``, and ``lead`` counts the
    delta's bytes before it (0 to 3)."""
    delta = (run[last] & 0x7F).astype(np.int64)
    for back in range(1, int(lead.max()) + 1):
        longer = np.flatnonzero(lead >= back)
        delta[longer] += (run[last[longer] - back] & 0x7F).astype(np.int64) << 7 * back
    ticks = np.cumsum(delta)
    ticks += tick
    return ticks


def _channel_run(data: bytes, start: int, stop: int, tick: int, status: int,
                 last_note_tick: int, blocks: list[np.ndarray]) -> tuple[int, int, int]:
    """Decode the run of ``_CHANNEL_RUN`` events ``data[start:stop]``,
    which starts at ``tick`` with running status ``status``. Appends the
    (channel, tick, pitch) rows of its sounding note starts to
    ``blocks``; returns the tick after the run, the tick of the last
    note-on or note-off so far (``last_note_tick`` if the run has none)
    and the running status after it.

    Each event holds exactly three bytes below 0x80: the delta's last
    byte and the two data bytes. Their positions, one row per event,
    place the rest: a byte between the delta's last byte and the first
    data byte is a status, and the bytes after the previous event lead
    the delta.
    """
    run = np.frombuffer(data, np.uint8, stop - start, start)
    at = np.flatnonzero(run < 0x80).reshape(-1, 3)
    rows = run[at]
    last = at[:, 0]  # each delta's last byte
    lead = last.copy()  # leading delta bytes: those after the previous event
    lead[1:] -= at[:-1, 2] + 1
    ticks = _run_ticks(run, last, lead, tick)
    given = np.flatnonzero(at[:, 1] - last == 2)
    if len(given) == len(rows):
        statuses = run[last + 1]
    else:
        statuses = np.full(len(rows), status, np.uint8)
        if len(given):
            # an event without a status byte keeps the last one given before it
            statuses[given] = run[last[given] + 1]
            source = np.zeros(len(rows), np.intp)
            source[given] = given
            statuses = statuses[np.maximum.accumulate(source)]
    kind = statuses & 0xF0
    # velocity 0 is the note-off shorthand
    sounding = np.flatnonzero((kind == 0x90) & (rows[:, 2] != 0))
    blocks.append(np.stack((statuses[sounding] & 0x0F, ticks[sounding], rows[sounding, 1]), axis=1))
    notes = np.flatnonzero((kind == 0x90) | (kind == 0x80))
    if len(notes):
        last_note_tick = int(ticks[notes[-1]])
    return int(ticks[-1]), last_note_tick, int(statuses[-1])


def _run_end(pattern: re.Pattern, data: bytes, pos: int, end: int) -> int:
    """Where the run of ``pattern``'s events at ``pos`` ends (``pos`` if
    there is none)."""
    run = pattern.match(data, pos, end)
    return pos if run is None else run.end()


def _tempo_run(data: bytes, start: int, stop: int, tick: int,
               tempos: list[tuple[int, int]]) -> int | None:
    """Decode the run of ``_TEMPO_RUN`` events ``data[start:stop]``,
    which starts at ``tick``, appending its (tick, tempo) pairs to
    ``tempos``; returns the tick after the run, or None, appending
    nothing, when its tempo bytes could be read as an event of their
    own.

    An event's last delta byte is the first byte below 0x80 at or after
    the event's start that is followed by FF 51 03; the next event
    starts 7 bytes later. A byte that passes the test inside an event's
    tempo bytes lies fewer than 7 bytes after that event's, so when
    every two that pass are 7 or more bytes apart, they are exactly the
    events' last delta bytes.
    """
    run = np.frombuffer(data, np.uint8, stop - start, start)
    last = np.flatnonzero((run[:-6] < 0x80) & (run[1:-5] == 0xFF)
                          & (run[2:-4] == 0x51) & (run[3:-3] == 0x03))
    if len(last) > 1 and np.diff(last).min() < 7:
        return None
    ticks = _run_ticks(run, last, np.diff(last, prepend=-7) - 7, tick)
    tempo = (run[last + 4].astype(np.int64) << 16 | run[last + 5].astype(np.int64) << 8
             | run[last + 6])
    tempos += zip(ticks.tolist(), tempo.tolist())
    return int(ticks[-1])


def _parse_track(
    data: bytes, start: int, end: int, blocks: list[np.ndarray], tempos: list[tuple[int, int]]
) -> int:
    """Decode one MTrk body, appending (channel, tick, pitch) rows of its
    sounding note starts, in file order, to ``blocks`` and its tempo
    events to ``tempos``; returns the tick of its last note-on or
    note-off (0 if it has none).

    Events are read one at a time, except that after a channel message
    with two data bytes, or after a tempo event, a run of such events
    that follows is matched as a whole and, if it spans at least
    ``MIN_RUN_BYTES``, decoded with numpy (``_channel_run``,
    ``_tempo_run``). A run ends before any event it does not fully
    hold, so the loop still reads every other event and raises every
    error."""
    onsets: list[int] = []  # the loop's rows, flat, since the last block
    last_note_tick = 0
    tick = 0
    running_status: int | None = None
    pos = start
    retry = start  # no run is matched again before here
    while pos < end:
        byte = data[pos]
        if byte < 0x80:  # one-byte delta, the common case
            tick += byte
            pos += 1
        else:
            delta, pos = _read_vlq(data, pos, end)
            tick += delta
        if pos >= end:
            raise TruncatedChunk("event status missing at chunk end")
        status = data[pos]
        if status >= 0x80:
            pos += 1
        elif running_status is None:
            raise TruncatedChunk("data byte with no running status")
        else:
            status = running_status

        if status < 0xF0:  # channel voice message
            running_status = status
            kind = status & 0xF0
            n_data = 1 if kind == 0xC0 or kind == 0xD0 else 2
            if pos + n_data > end:
                raise TruncatedChunk("channel message data runs past chunk end")
            if kind == 0x90:
                last_note_tick = tick
                if data[pos + 1] & 0x7F:  # velocity 0 is the note-off shorthand
                    onsets += (status & 0x0F, tick, data[pos] & 0x7F)
            elif kind == 0x80:
                last_note_tick = tick
            pos += n_data
            if n_data == 2 and pos >= retry:
                retry = _run_end(_CHANNEL_RUN, data, pos, end)
                if retry - pos >= MIN_RUN_BYTES:
                    if onsets:
                        blocks.append(np.array(onsets, dtype=np.int64).reshape(-1, 3))
                        onsets = []
                    tick, last_note_tick, running_status = _channel_run(
                        data, pos, retry, tick, status, last_note_tick, blocks)
                    pos = retry
        elif status == 0xFF:  # meta event
            running_status = None
            if pos >= end:
                raise TruncatedChunk("meta event type missing")
            meta_type = data[pos]
            pos += 1
            length, pos = _read_vlq(data, pos, end)
            if pos + length > end:
                raise TruncatedChunk("meta event data runs past chunk end")
            if meta_type == 0x51 and length == 3:
                tempos.append((tick, int.from_bytes(data[pos:pos + 3], "big")))
                pos += 3
                if pos >= retry:
                    retry = _run_end(_TEMPO_RUN, data, pos, end)
                    if retry - pos >= MIN_RUN_BYTES:
                        after = _tempo_run(data, pos, retry, tick, tempos)
                        if after is not None:
                            tick, pos = after, retry
                continue
            pos += length
            if meta_type == 0x2F:  # end of track
                break
        elif status == 0xF0 or status == 0xF7:  # sysex
            running_status = None
            length, pos = _read_vlq(data, pos, end)
            if pos + length > end:
                raise TruncatedChunk("sysex data runs past chunk end")
            pos += length
        else:  # stray system common / realtime
            running_status = None
            # MTC quarter frame and song select carry 1 data byte, song position 2
            skip = {0xF1: 1, 0xF2: 2, 0xF3: 1}.get(status, 0)
            if pos + skip > end:
                raise TruncatedChunk("system message data runs past chunk end")
            pos += skip
    if onsets:
        blocks.append(np.array(onsets, dtype=np.int64).reshape(-1, 3))
    return last_note_tick


def parse_midi(data: bytes) -> ParsedMidi:
    """Decode a Standard MIDI File (format 0 or 1) from raw bytes."""
    if len(data) < 14 or data[:4] != b"MThd":
        raise MalformedHeader("missing MThd chunk")
    header_len = int.from_bytes(data[4:8], "big")
    if header_len < 6:
        raise MalformedHeader(f"header length {header_len} < 6")
    fmt = int.from_bytes(data[8:10], "big")
    n_tracks = int.from_bytes(data[10:12], "big")
    division = int.from_bytes(data[12:14], "big")
    if fmt not in (0, 1):
        raise UnsupportedFormat(f"SMF format {fmt} not supported")
    if division & 0x8000:
        raise UnsupportedFormat("SMPTE time division not supported")
    if division == 0:
        raise MalformedHeader("zero ticks per quarter note")

    pos = 8 + header_len
    blocks: list[np.ndarray] = []
    tempos: list[tuple[int, int]] = []
    last_tick = 0
    parsed = 0
    while parsed < n_tracks and pos < len(data):
        if pos + 8 > len(data):
            raise TruncatedChunk("chunk header runs past end of file")
        chunk_id = data[pos:pos + 4]
        chunk_len = int.from_bytes(data[pos + 4:pos + 8], "big")
        body_start = pos + 8
        body_end = body_start + chunk_len
        if body_end > len(data):
            raise TruncatedChunk(f"{chunk_id!r} chunk body runs past end of file")
        if chunk_id == b"MTrk":
            last_tick = max(last_tick, _parse_track(data, body_start, body_end, blocks, tempos))
            parsed += 1
        # alien chunks are skipped per the SMF spec
        pos = body_end
    if parsed < n_tracks:
        raise TruncatedChunk(f"header declares {n_tracks} tracks, found {parsed}")

    tempo_map = _dedupe_tempos(tempos)
    return ParsedMidi(
        onsets=np.concatenate(blocks) if blocks else np.empty((0, 3), np.int64),
        tempo_changes=tempo_map,
        duration=_tick_to_seconds(last_tick, tempo_map, division),
    )


def _dedupe_tempos(tempos: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort by tick; when several tempi share a tick, the last one wins."""
    # a repeated tick keeps its first place in the dict and its last tempo
    return list(dict(sorted(tempos, key=itemgetter(0))).items())


def _tick_to_seconds(tick: int, tempo_changes: list[tuple[int, int]], tpq: int) -> float:
    seconds = 0.0
    cur_tick = 0
    cur_tempo = DEFAULT_TEMPO_US
    for change_tick, tempo in tempo_changes:
        if change_tick >= tick:
            break
        if change_tick > cur_tick:
            seconds += (change_tick - cur_tick) * cur_tempo / (tpq * 1e6)
            cur_tick = change_tick
        cur_tempo = tempo
    seconds += (tick - cur_tick) * cur_tempo / (tpq * 1e6)
    return seconds


def onset_stream(m: ParsedMidi) -> np.ndarray:
    """All sounding note starts but the drums', as (k, 3) rows sorted by
    (channel, tick, pitch). Note-offs and velocity-0 note-ons (the SMF
    note-off shorthand) were already dropped by the parser."""
    rows = m.onsets[m.onsets[:, 0] != PERCUSSION_CHANNEL]
    return rows[np.lexsort(rows.T[::-1])]
