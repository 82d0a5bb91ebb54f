"""Standard MIDI File parsing and tempo-aware note onset extraction.

Only note identity and timing are kept: pitch bends, aftertouch and
controller data are decoded (to keep the stream in sync) and discarded.
Channel 10 (index 9) is the General MIDI percussion channel and is
excluded from onset streams.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BadVariableLengthQuantity,
    MalformedHeader,
    TruncatedChunk,
    UnsupportedFormat,
)

DEFAULT_TEMPO_US = 500_000  # microseconds per quarter note (120 BPM)
PERCUSSION_CHANNEL = 9


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


def _parse_track(
    data: bytes, start: int, end: int, onsets: list[int], tempos: list[tuple[int, int]]
) -> int:
    """Decode one MTrk body, appending channel, tick and pitch of each
    sounding note start to the flat list ``onsets`` and its tempo events
    to ``tempos``; returns the tick of its last note-on or note-off (0
    if it has none)."""
    last_note_tick = 0
    tick = 0
    running_status: int | None = None
    pos = start
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
    onsets: list[int] = []
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
            last_tick = max(last_tick, _parse_track(data, body_start, body_end, onsets, tempos))
            parsed += 1
        # alien chunks are skipped per the SMF spec
        pos = body_end
    if parsed < n_tracks:
        raise TruncatedChunk(f"header declares {n_tracks} tracks, found {parsed}")

    tempo_map = _dedupe_tempos(tempos)
    return ParsedMidi(
        onsets=np.array(onsets, dtype=np.int64).reshape(-1, 3),
        tempo_changes=tempo_map,
        duration=_tick_to_seconds(last_tick, tempo_map, division),
    )


def _dedupe_tempos(tempos: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Sort by tick; when several tempi share a tick, the last one wins."""
    out: dict[int, int] = {}
    for tick, tempo in sorted(tempos, key=lambda t: t[0]):
        out[tick] = tempo
    return sorted(out.items())


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
