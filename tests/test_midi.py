import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from notegraph.errors import (
    BadVariableLengthQuantity,
    MalformedHeader,
    MidiParseError,
    TruncatedChunk,
    UnsupportedFormat,
)
from notegraph import midi
from notegraph.midi import onset_stream, parse_midi

import fixture_midi
from fixture_midi import header_chunk, note_off, note_on, track_chunk, vlq, write_midi
from oracles import parse_reference


def test_single_note_duration_and_onset():
    data = write_midi([(0, 0, 60, 480)], tpq=480, tempos=[(0, 500_000)])
    m = parse_midi(data)
    onsets = onset_stream(m)
    assert onsets.tolist() == [[0, 0, 60]]  # (channel, tick, pitch)
    # note-off at tick 480 = one quarter at 120 BPM
    assert m.duration == pytest.approx(0.5)


def test_empty_file_parses_to_empty_stream():
    data = header_chunk(0, 1, 480) + track_chunk([])
    m = parse_midi(data)
    assert len(onset_stream(m)) == 0
    assert m.duration == 0.0


def test_format_2_rejected():
    data = header_chunk(2, 1, 480) + track_chunk([])
    with pytest.raises(UnsupportedFormat):
        parse_midi(data)


def test_smpte_division_rejected():
    data = b"MThd" + (6).to_bytes(4, "big") + b"\x00\x00\x00\x01" + b"\xe7\x28" + track_chunk([])
    with pytest.raises(UnsupportedFormat):
        parse_midi(data)


def test_bad_header_rejected():
    with pytest.raises(MalformedHeader):
        parse_midi(b"RIFF" + b"\x00" * 20)
    with pytest.raises(MalformedHeader):
        parse_midi(b"MThd")


def test_truncated_track_rejected():
    data = write_midi([(0, 0, 60, 480)])
    with pytest.raises(TruncatedChunk):
        parse_midi(data[:-4])


def test_overlong_vlq_rejected():
    body = b"\xff\xff\xff\xff\xff"  # 5 continuation bytes
    chunk = b"MTrk" + len(body).to_bytes(4, "big") + body
    with pytest.raises(BadVariableLengthQuantity):
        parse_midi(header_chunk(0, 1, 480) + chunk)


def test_default_tempo_arithmetic():
    # no tempo events: 960 ticks at 480 tpq, 500000 us/quarter -> 1 s
    data = write_midi([(0, 0, 60, 960)], tpq=480, tempos=[])
    assert parse_midi(data).duration == pytest.approx(1.0)


def test_tempo_change_midway():
    # 480 ticks at 120 BPM then 480 ticks at 240 BPM: 0.5 + 0.25 s
    data = write_midi(
        [(0, 0, 60, 960)], tpq=480, tempos=[(0, 500_000), (480, 250_000)]
    )
    assert parse_midi(data).duration == pytest.approx(0.75)


def test_same_tick_tempo_last_wins():
    data = write_midi(
        [(0, 0, 60, 480)], tpq=480, tempos=[(0, 250_000), (0, 500_000)]
    )
    assert parse_midi(data).duration == pytest.approx(0.5)


def test_duration_runs_to_the_last_note_event():
    # format 1: the drum track's note-off at 1920 ends the song, although
    # drums have no onsets
    drums = write_midi(
        [(0, 0, 60, 480), (480, 0, 62, 480), (0, 9, 36, 1920)], tempos=[(0, 500_000)], fmt=1
    )
    assert parse_midi(drums).duration == pytest.approx(2.0)
    assert onset_stream(parse_midi(drums))[:, 2].tolist() == [60, 62]
    # a trailing velocity-0 note-on is a note event
    vel0 = header_chunk(0, 1, 480) + track_chunk(
        [(0, note_on(0, 60)), (480, note_on(0, 60, velocity=0)), (960, note_on(0, 62, velocity=0))]
    )
    assert parse_midi(vel0).duration == pytest.approx(1.0)
    # an end-of-track meta event 960 ticks after the last note-off is not
    body = vlq(0) + note_on(0, 60) + vlq(480) + note_off(0, 60) + vlq(960) + b"\xff\x2f\x00"
    late_end = header_chunk(0, 1, 480) + b"MTrk" + len(body).to_bytes(4, "big") + body
    assert parse_midi(late_end).duration == pytest.approx(0.5)


def test_drum_channel_excluded():
    data = write_midi([(0, 9, 36, 240), (0, 9, 38, 240)])
    assert len(onset_stream(parse_midi(data))) == 0


def test_two_channels_stay_grouped():
    data = write_midi(
        [(0, 0, 60, 240), (120, 1, 72, 240), (240, 0, 62, 240), (360, 1, 74, 240)]
    )
    onsets = onset_stream(parse_midi(data))
    channels = onsets[:, 0].tolist()
    assert channels == sorted(channels)
    assert onsets[:, [0, 2]].tolist() == [[0, 60], [0, 62], [1, 72], [1, 74]]


def test_onset_stream_sorts_like_three_keys():
    # the rows come out in the order Python sorts (channel, tick, pitch)
    # tuples, drums dropped, ticks of any size: a sort by one packed key
    # channel << 56 | tick << 7 | pitch would put channel 0 at tick 2**49
    # with channel 1 at tick 0
    rng = random.Random(12)
    ticks = (2**49 - 1, 2**49, 2**62)
    for case in range(400):
        k = rng.randint(0, 40)
        rows = [[rng.randrange(16), rng.choice((rng.randrange(50), rng.randrange(2**40))),
                 rng.randrange(128)] for _ in range(k)]
        if case % 4 and rows:
            rows[rng.randrange(k)][1] = ticks[case % 4 - 1]
            rows.append([1, 0, rows[0][2]])
        if case % 5 == 0 and rows:
            rows.append(list(rows[0]))  # a repeated onset
        onsets = np.array(rows, dtype=np.int64).reshape(-1, 3)
        got = onset_stream(midi.ParsedMidi(onsets=onsets, tempo_changes=[], duration=0.0))
        want = sorted(r for r in map(tuple, rows) if r[0] != midi.PERCUSSION_CHANNEL)
        assert got.dtype == np.int64 and list(map(tuple, got.tolist())) == want
    boundary = np.array([[1, 0, 60], [0, 2**49, 61], [0, 2**49 - 1, 62]], dtype=np.int64)
    got = onset_stream(midi.ParsedMidi(onsets=boundary, tempo_changes=[], duration=0.0))
    assert got.tolist() == [[0, 2**49 - 1, 62], [0, 2**49, 61], [1, 0, 60]]


@pytest.mark.parametrize("message", [b"\xf1\x05", b"\xf2\x10\x20", b"\xf3\x07"],
                         ids=["mtc-quarter-frame", "song-position", "song-select"])
def test_system_common_message_keeps_the_track_in_sync(message):
    body = (
        vlq(0) + note_on(0, 60) + vlq(240) + note_off(0, 60)
        + vlq(0) + message
        + vlq(0) + note_on(0, 62) + vlq(240) + note_off(0, 62)
        + vlq(0) + b"\xff\x2f\x00"
    )
    m = parse_midi(header_chunk(0, 1, 480) + b"MTrk" + len(body).to_bytes(4, "big") + body)
    assert onset_stream(m).tolist() == [[0, 0, 60], [0, 240, 62]]
    assert m.duration == pytest.approx(0.5)


def test_velocity_zero_note_on_is_note_off():
    # running status: note-on, then pitch/velocity pairs without a status byte
    body = (
        vlq(0) + bytes([0x90, 60, 64])
        + vlq(480) + bytes([60, 0])  # running-status note-off shorthand
        + vlq(0) + bytes([62, 64])
        + vlq(480) + bytes([62, 0])
    )
    chunk = b"MTrk" + len(body + b"\x00\xff\x2f\x00").to_bytes(4, "big") + body + b"\x00\xff\x2f\x00"
    m = parse_midi(header_chunk(0, 1, 480) + chunk)
    onsets = onset_stream(m)
    assert onsets[:, 2].tolist() == [60, 62]


def test_roundtrip_tick_pitch_channel_multiset():
    rng = random.Random(7)
    notes = [
        (rng.randrange(0, 4000), rng.randrange(0, 9), rng.randrange(30, 100), 120)
        for _ in range(200)
    ]
    m = parse_midi(write_midi(notes, fmt=1))
    got = sorted((tick, pitch, channel) for channel, tick, pitch in onset_stream(m).tolist())
    expected = sorted((t, p, c) for t, c, p, _ in notes)
    assert got == expected


def test_fuzz_never_panics():
    rng = random.Random(99)
    valid_prefix = write_midi([(0, 0, 60, 480)])
    for trial in range(300):
        if trial % 3 == 0:
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(0, 200)))
        elif trial % 3 == 1:
            cut = rng.randrange(0, len(valid_prefix))
            data = valid_prefix[:cut]
        else:
            data = bytearray(valid_prefix)
            for _ in range(rng.randrange(1, 6)):
                data[rng.randrange(len(data))] = rng.randrange(256)
            data = bytes(data)
        try:
            parse_midi(data)
        except MidiParseError:
            pass


def mutated_fixtures():
    """3000 fixture files, each with bit flips, a truncation or both."""
    rng = random.Random(2024)
    notes = [(i * 240, i % 3, 48 + (i * 7) % 36, 240) for i in range(60)]
    fixtures = [
        fixture_midi.melodic_midi(seed=1, length=60),
        fixture_midi.loop_midi(length=40),
        write_midi(notes, tempos=[(0, 500_000), (2400, 400_000), (7200, 650_000)], fmt=1),
    ]
    for trial in range(3000):
        data = bytearray(rng.choice(fixtures))
        if trial % 3 != 1:  # bit flips
            for _ in range(rng.randint(1, 8)):
                data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        if trial % 3 != 0:  # truncation
            del data[rng.randrange(len(data)):]
        yield bytes(data)


def test_mutated_fixture_files_raise_only_parse_errors():
    for data in mutated_fixtures():
        try:
            onset_stream(parse_midi(data))
        except MidiParseError:
            pass


def random_track(rng: random.Random) -> bytes:
    """An MTrk chunk of every event kind the parser decodes: notes and
    velocity-0 note-ons, 1- and 2-byte channel messages, running status,
    long deltas, tempo and text meta events, sysex and system messages."""
    body = bytearray()
    running = None
    for _ in range(rng.randint(0, 60)):
        body += vlq(rng.choice((0, 0, 1, 127, 128, 480, 20_000, 2**21)))
        kind = rng.randrange(10)
        channel = rng.choice((0, 1, 9, 15))
        if kind < 5:
            status = rng.choice((0x90, 0x90, 0x80)) | channel
            payload = bytes([rng.randrange(128), rng.choice((0, 1, 64, 127))])
        elif kind == 5:
            status = rng.choice((0xC0, 0xD0)) | channel
            payload = bytes([rng.randrange(128)])
        elif kind == 6:
            status = rng.choice((0xA0, 0xB0, 0xE0)) | channel
            payload = bytes([rng.randrange(128), rng.randrange(128)])
        elif kind == 7:
            status = 0xFF
            payload = rng.choice((b"\x51\x03" + rng.randrange(1, 2**24).to_bytes(3, "big"), b"\x01\x02hi"))
        elif kind == 8:
            status = rng.choice((0xF0, 0xF7))
            payload = b"\x03\x7e\x7f\xf7"
        else:
            status = rng.choice((0xF1, 0xF2, 0xF3, 0xF6, 0xF8))
            payload = bytes(rng.randrange(128) for _ in range({0xF1: 1, 0xF2: 2, 0xF3: 1}.get(status, 0)))
        if status != running or rng.random() < 0.3:
            body.append(status)
        body += payload
        running = status if status < 0xF0 else None
    body += vlq(0) + b"\xff\x2f\x00"
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def test_parser_matches_the_per_event_reference():
    rng = random.Random(31)
    valid = [
        header_chunk(fmt, n, rng.choice((96, 480, 960))) + b"".join(random_track(rng) for _ in range(n))
        for fmt, n in ((rng.randrange(2), rng.randint(1, 4)) for _ in range(300))
    ]
    parsed = []
    for data in [*valid, *mutated_fixtures()]:
        try:
            expected = parse_reference(data)
        except MidiParseError as exc:
            with pytest.raises(type(exc)) as got:
                parse_midi(data)
            assert type(got.value) is type(exc) and str(got.value) == str(exc)
            continue
        m = parse_midi(data)
        assert m.onsets.dtype == np.int64 and m.onsets.shape == (len(expected[0]), 3)
        assert list(map(tuple, m.onsets.tolist())) == expected[0]
        assert (m.tempo_changes, m.duration) == expected[1:]
        parsed.append(data)
    assert parsed[:len(valid)] == valid and len(parsed) > 1000


def test_duration_monotone_in_last_tick():
    durations = [
        parse_midi(write_midi([(0, 0, 60, last)], tempos=[(0, 500_000)])).duration
        for last in (100, 500, 1000, 5000)
    ]
    assert durations == sorted(durations)


# --- runs of events decoded with numpy ---

END_OF_TRACK = vlq(0) + b"\xff\x2f\x00"


def one_track(body: bytes) -> bytes:
    return header_chunk(0, 1, 480) + b"MTrk" + len(body).to_bytes(4, "big") + body


def channel_events(count: int, deltas=(0, 120), status: int = 0x90, running: bool = False) -> bytes:
    """``count`` two-data-byte messages, every third with data byte 0
    (the note-off shorthand for a note-on)."""
    body = bytearray()
    for i in range(count):
        body += vlq(deltas[i % len(deltas)])
        if not running or i == 0:
            body.append(status)
        body += bytes([40 + i % 40, 50 * (i % 3)])
    return bytes(body)


def tempo_events(count: int, deltas=(0,), first: int = 400_000) -> bytes:
    return b"".join(vlq(deltas[i % len(deltas)]) + b"\xff\x51\x03" + (first + 997 * i).to_bytes(3, "big")
                    for i in range(count))


def parse_counting_runs(data: bytes, monkeypatch) -> Counter:
    """Parse ``data`` as the per-event reference does (the same onsets,
    tempo map and duration, or the same error and message); returns how
    often each numpy run decoder was called."""
    calls = Counter()
    for name in ("_channel_run", "_tempo_run"):
        def counted(*args, _real=getattr(midi, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(midi, name, counted)
    try:
        expected = parse_reference(data)
    except MidiParseError as exc:
        with pytest.raises(type(exc)) as got:
            parse_midi(data)
        assert str(got.value) == str(exc)
        return calls
    m = parse_midi(data)
    assert m.onsets.dtype == np.int64 and m.onsets.shape == (len(expected[0]), 3)
    assert list(map(tuple, m.onsets.tolist())) == expected[0]
    assert (m.tempo_changes, m.duration) == expected[1:]
    return calls


RUN_CASES = {
    # 400 events with deltas of 1 to 4 bytes, the 4-byte one (2**21 + 5)
    # in the middle of the run
    "run-through-a-4-byte-delta": (
        channel_events(200, (0, 120, 20_000)) + vlq(2**21 + 5) + bytes([0x80, 60, 0])
        + channel_events(200, (480, 0), status=0x91, running=True) + END_OF_TRACK,
        {"_channel_run": 1}),
    # 20,000 events, about 93 KB, matched and decoded whole
    "run-of-over-64-kb": (channel_events(20_000, (0, 120, 20_000)) + END_OF_TRACK, {"_channel_run": 1}),
    "5-byte-delta": (
        channel_events(30) + b"\x81\x80\x80\x80\x00" + bytes([0x90, 60, 64]) + END_OF_TRACK,
        {"_channel_run": 1}),
    # the running-status program changes read as two-data-byte messages
    # if taken three bytes at a time; no run starts after one
    "running-status-after-program-change": (
        channel_events(30) + vlq(0) + b"\xc0\x05" + b"".join(vlq(10) + bytes([i]) for i in range(40))
        + channel_events(30, status=0xE2) + channel_events(30, status=0xB3, running=True) + END_OF_TRACK,
        {"_channel_run": 2}),
    "run-cut-in-its-data-bytes": (channel_events(30) + vlq(0) + b"\x90\x3c", {"_channel_run": 1}),
    "run-cut-in-a-delta": (channel_events(30) + b"\x81", {"_channel_run": 1}),
    "run-cut-before-a-status": (channel_events(30, running=True) + vlq(7), {"_channel_run": 1}),
    "tempo-runs-around-a-text-event": (
        tempo_events(12, (200, 20_000, 0)) + vlq(5) + b"\xff\x01\x02hi"
        + tempo_events(200, (20_000, 200), first=500_000) + END_OF_TRACK,
        {"_tempo_run": 2}),
    # a set-tempo event of 4 data bytes is skipped, and ends the run
    "tempo-event-of-length-4": (
        tempo_events(12, (3,)) + vlq(9) + b"\xff\x51\x04\x07\xa1\x20\x00" + tempo_events(12, (300,))
        + END_OF_TRACK,
        {"_tempo_run": 2}),
    # tempo bytes FF 51 03 after a low byte could start an event, so the
    # run is declined and read one event at a time
    "tempo-bytes-that-read-as-an-event": (
        tempo_events(6, (3,)) + vlq(3) + b"\xff\x51\x03\xff\x51\x03" + tempo_events(6, (3,))
        + END_OF_TRACK,
        {"_tempo_run": 1}),
    "tempo-run-cut-at-chunk-end": (tempo_events(12, (200,)) + vlq(1) + b"\xff\x51\x03\x07", {"_tempo_run": 1}),
}


@pytest.mark.parametrize("case", sorted(RUN_CASES))
def test_runs_decode_as_the_per_event_reference(case, monkeypatch):
    body, runs = RUN_CASES[case]
    assert parse_counting_runs(one_track(body), monkeypatch) == runs


def test_run_match_keeps_no_backtracking_state():
    # a greedy repeat would keep about 240 bytes of state per event
    for pattern, run in ((midi._CHANNEL_RUN, channel_events(30_000, (0, 120, 20_000))),
                         (midi._TEMPO_RUN, tempo_events(5_000, (200, 20_000, 0)))):
        data = run + END_OF_TRACK
        tracemalloc.start()
        try:
            end = midi._run_end(pattern, data, 0, len(data))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert end == len(run)
        assert peak < 16 * 1024


def random_run_track(rng: random.Random) -> bytes:
    """An MTrk chunk of long stretches of two-data-byte channel messages
    or of tempo events (any delta, explicit or running status, a data
    byte of 0x80 or more now and then) and the events that end them."""
    body = bytearray()
    running = None
    for _ in range(rng.randint(1, 8)):
        stretch = rng.randrange(3)
        for _ in range(rng.randint(1, 60)):
            body += vlq(rng.choice((0, 0, 1, 120, 128, 480, 20_000, 2**21, 2**28 - 1)))
            if stretch == 0:
                status = rng.choice((0x80, 0x90, 0x90, 0xA0, 0xB0, 0xE0)) | rng.choice((0, 3, 9))
                if status != running or rng.random() < 0.2:
                    body.append(status)
                running = status
                last = rng.choice((0, 1, 64, 127)) if rng.random() < 0.97 else rng.choice((0x80, 0xFF))
                body += bytes([rng.randrange(128), last])
            elif stretch == 1:
                running = None
                body += b"\xff\x51\x03" + rng.choice((rng.randrange(2**24), 0xFF5103)).to_bytes(3, "big")
            else:
                status, payload = rng.choice(((0xC5, b"\x07"), (0xD1, b"\x40"), (0xFF, b"\x01\x02hi"),
                                              (0xFF, b"\x51\x04\x07\xa1\x20\x00"), (0xF0, b"\x01\xf7")))
                if status != running:
                    body.append(status)
                running = status if status < 0xF0 else None
                body += payload
    body += END_OF_TRACK
    return b"MTrk" + len(body).to_bytes(4, "big") + bytes(body)


def test_random_runs_match_the_per_event_reference(monkeypatch):
    rng = random.Random(47)
    total = Counter()
    for _ in range(150):
        n = rng.randint(1, 3)
        data = header_chunk(1, n, 480) + b"".join(random_run_track(rng) for _ in range(n))
        total += parse_counting_runs(data, monkeypatch)
        for _ in range(3):  # cut after the header, a bit flipped in the tracks, or both
            mutated = bytearray(data[:rng.randrange(15, len(data))] if rng.random() < 0.6 else data)
            if rng.random() < 0.6:
                mutated[rng.randrange(14, len(mutated))] ^= 1 << rng.randrange(8)
            total += parse_counting_runs(bytes(mutated), monkeypatch)
    assert total["_channel_run"] > 600 and total["_tempo_run"] > 400
