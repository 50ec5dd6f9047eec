"""Tests for the wire codec: roundtrips, tamper rejection, fuzzing."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro import VChainNetwork
from repro.chain import DataObject, ProtocolParams
from repro.core.query import CNFCondition, RangeCondition, TimeWindowQuery
from repro.crypto import get_backend
from repro.errors import CryptoError
from repro.wire import (
    EnvelopeRequest,
    Reader,
    RecordedFrame,
    ServerStats,
    SessionRecording,
    StatsRequest,
    WireError,
    Writer,
    decode_recording,
    decode_request,
    decode_response,
    decode_stats_response,
    decode_time_window_vo,
    encode_recording,
    encode_request,
    encode_response,
    encode_stats_response,
    encode_time_window_vo,
    peek_deadline,
    read_header,
    read_object,
    write_header,
    write_object,
)
from tests.conftest import make_objects


# -- primitives ---------------------------------------------------------------
@given(st.integers(min_value=0, max_value=2**63 - 1))
def test_uvarint_roundtrip(value):
    data = Writer().uvarint(value).getvalue()
    reader = Reader(data)
    assert reader.uvarint() == value
    reader.expect_end()


def test_uvarint_rejects_negative():
    with pytest.raises(WireError):
        Writer().uvarint(-1)


def test_reader_rejects_truncation():
    with pytest.raises(WireError):
        Reader(b"").uvarint()
    with pytest.raises(WireError):
        Reader(b"\x80").uvarint()  # continuation bit with no next byte
    with pytest.raises(WireError):
        Reader(b"\x01").raw(2)


def test_reader_rejects_trailing_bytes():
    with pytest.raises(WireError):
        Reader(b"\x00\x00").uvarint() or Reader(b"\x00\x00").expect_end()
    reader = Reader(b"\x00\x00")
    reader.uvarint()
    with pytest.raises(WireError):
        reader.expect_end()


@given(st.binary(max_size=64))
def test_blob_roundtrip(data):
    encoded = Writer().blob(data).getvalue()
    assert Reader(encoded).blob() == data


@given(st.text(max_size=32))
def test_text_roundtrip(value):
    encoded = Writer().text(value).getvalue()
    assert Reader(encoded).text() == value


# -- objects and headers --------------------------------------------------------
@given(
    oid=st.integers(min_value=0, max_value=2**40),
    ts=st.integers(min_value=0, max_value=2**40),
    vector=st.lists(st.integers(min_value=0, max_value=255), max_size=4),
    keywords=st.sets(st.text(alphabet="abcXYZ", min_size=1, max_size=5), max_size=4),
)
def test_object_roundtrip(oid, ts, vector, keywords):
    obj = DataObject(
        object_id=oid, timestamp=ts, vector=tuple(vector), keywords=frozenset(keywords)
    )
    writer = Writer()
    write_object(writer, obj)
    assert read_object(Reader(writer.getvalue())) == obj


def test_header_roundtrip(small_chain):
    chain, _params = small_chain
    for header in chain.headers()[:5]:
        writer = Writer()
        write_header(writer, header)
        decoded = read_header(Reader(writer.getvalue()))
        assert decoded == header
        assert decoded.block_hash() == header.block_hash()


# -- full VO roundtrip over a real query ------------------------------------------
@pytest.fixture(scope="module")
def query_setup():
    params = ProtocolParams(mode="both", bits=8, skip_size=2)
    net = VChainNetwork.create(acc_name="acc2", params=params, seed=61)
    rng = random.Random(61)
    oid = 0
    for h in range(12):
        objs = make_objects(rng, 3, oid, timestamp=h * 10)
        oid += 3
        net.miner.mine_block(objs, timestamp=h * 10)
    net.user.sync_headers(net.chain)
    query = TimeWindowQuery(
        start=0, end=110,
        numeric=RangeCondition(low=(0, 0), high=(180, 255)),
        boolean=CNFCondition.of([["Benz", "BMW"]]),
    )
    return net, query


@pytest.mark.parametrize("batch", [False, True])
def test_vo_roundtrip_and_verify(query_setup, batch):
    net, query = query_setup
    backend = net.accumulator.backend
    results, vo, _stats = net.sp.processor.time_window_query(query, batch=batch)
    blob = encode_time_window_vo(backend, vo)
    decoded = decode_time_window_vo(backend, blob)
    assert decoded == vo
    # the decoded VO verifies end to end
    verified, _vstats = net.user.verify(query, results, decoded)
    assert sorted(o.object_id for o in verified) == sorted(o.object_id for o in results)


def test_response_roundtrip(query_setup):
    net, query = query_setup
    backend = net.accumulator.backend
    results, vo, _stats = net.sp.processor.time_window_query(query)
    blob = encode_response(backend, results, vo)
    decoded_results, decoded_vo = decode_response(backend, blob)
    assert decoded_results == results
    assert decoded_vo == vo


def test_wire_size_tracks_nbytes(query_setup):
    """Encoded size should be in the same ballpark as the accounting."""
    net, query = query_setup
    backend = net.accumulator.backend
    _results, vo, _stats = net.sp.processor.time_window_query(query)
    encoded = len(encode_time_window_vo(backend, vo))
    accounted = vo.nbytes(backend)
    assert 0.5 * accounted <= encoded <= 1.5 * accounted + 256


def test_decoder_rejects_bit_flips(query_setup):
    net, query = query_setup
    backend = net.accumulator.backend
    _results, vo, _stats = net.sp.processor.time_window_query(query)
    blob = bytearray(encode_time_window_vo(backend, vo))
    rng = random.Random(0)
    rejected = 0
    for _ in range(30):
        mutated = bytearray(blob)
        pos = rng.randrange(len(mutated))
        mutated[pos] ^= 1 << rng.randrange(8)
        try:
            decoded = decode_time_window_vo(backend, bytes(mutated))
        except (WireError, CryptoError):
            rejected += 1
            continue
        # structurally valid mutations must still fail verification or
        # decode to a different VO (never silently equal)
        assert decoded != vo
    assert rejected > 0


def test_real_backend_decode_rejects_invalid_point():
    backend = get_backend("ss512")
    bogus = b"\x04" + (1).to_bytes(64, "big") + (1).to_bytes(64, "big")
    with pytest.raises(CryptoError):
        backend.decode(bogus)


def test_real_backend_decode_roundtrip():
    backend = get_backend("ss512")
    g2 = backend.exp(backend.generator(), 12345)
    assert backend.decode(backend.encode(g2)) == g2
    assert backend.decode(backend.encode(backend.identity())) is None


def test_sim_backend_decode_bounds(sim_backend):
    with pytest.raises(CryptoError):
        sim_backend.decode(b"\xff" * sim_backend.element_nbytes)
    g = sim_backend.exp(sim_backend.generator(), 7)
    assert sim_backend.decode(sim_backend.encode(g)) == g


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=200))
def test_decoder_never_crashes_on_garbage(data):
    backend = get_backend("simulated")
    try:
        decode_time_window_vo(backend, data)
    except (WireError, CryptoError):
        pass  # rejection is the expected outcome


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=200))
def test_request_decoders_never_crash_on_garbage(data):
    """peek_deadline + decode_request must reject, never raise oddly."""
    try:
        _deadline, inner = peek_deadline(data)
        decode_request(inner)
    except WireError:
        pass


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=200))
def test_stats_decoder_never_crashes_on_garbage(data):
    try:
        decode_stats_response(data)
    except WireError:
        pass


@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=300))
def test_record_decoder_never_crashes_on_garbage(data):
    try:
        decode_recording(data)
    except WireError:
        pass


def _sample_recording() -> SessionRecording:
    frames = tuple(
        RecordedFrame(
            seq=i,
            channel=i % 2,
            direction=i % 2,
            timestamp_us=i * 7,
            payload=bytes([i]) * (i + 1),
        )
        for i in range(6)
    )
    return SessionRecording(
        label="sample", meta={"scenario": "unit", "seed": "1"}, frames=frames
    )


def test_envelope_and_stats_bit_flips_never_crash():
    """Bit-flip every PR 7 codec's happy-path bytes; decoders must only
    ever raise WireError, whatever byte gets hit."""
    envelope = encode_request(
        EnvelopeRequest(request=StatsRequest(), deadline_ms=1500)
    )
    stats = encode_stats_response(
        ServerStats(
            endpoint={"queries": 3},
            caches={"vo": {"hits": 1, "misses": 2.5}},
            engine={"deliveries": 4},
            pool={"workers": 2},
            server={"requests": 9},
        )
    )
    recording = encode_recording(_sample_recording())
    corpus = [
        (envelope, lambda b: decode_request(peek_deadline(b)[1])),
        (stats, decode_stats_response),
        (recording, decode_recording),
    ]
    rng = random.Random(7)
    for blob, decoder in corpus:
        for _ in range(40):
            mutated = bytearray(blob)
            pos = rng.randrange(len(mutated))
            mutated[pos] ^= 1 << rng.randrange(8)
            try:
                decoder(bytes(mutated))
            except WireError:
                pass


def test_recording_crc_catches_payload_flips():
    """Unlike generic bit flips, payload flips must *always* be caught:
    every recorded frame carries its own CRC."""
    recording = _sample_recording()
    blob = encode_recording(recording)
    target = recording.frames[3].payload
    start = blob.find(target)
    assert start >= 0
    mutated = bytearray(blob)
    mutated[start] ^= 0x10
    with pytest.raises(WireError, match="CRC"):
        decode_recording(bytes(mutated))
