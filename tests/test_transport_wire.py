"""Wire codec tests: every protocol message kind crosses bytes.

The canonical codec (``repro.transport.wire``) is what lets the TCP
backend carry the *same* protocol the simulator models, so the test
matrix here mirrors the protocol table in ``docs/architecture.md``:
service deployment, group execution (single + batch), module
distribution (package, chunk, head), discovery (publish + predicate
query), heartbeats, and numpy-bearing result payloads.

The table-driven codec in ``src/`` is held to the recursive reference
codec below (``oracle_encode`` / ``oracle_decode``): byte-equal frames
for every value, golden digests pinning wire v1, and a fuzzed decoder
that raises nothing but :class:`WireError`.
"""

import dataclasses
import hashlib
import struct
from typing import Any

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.galaxy import ColumnDensity, generate_snapshots
from repro.core.types import ImageData, ParticleSnapshot, SampleSet, TableData
from repro.mobility.repository import ModulePackage
from repro.p2p.advertisement import Advertisement, AttrPredicate
from repro.p2p.discovery import QuerySpec
from repro.p2p.network import Message
from repro.service.worker import DeploymentSpec
from repro.transport import wire
from repro.transport.wire import (
    MAGIC,
    WIRE_VERSION,
    WireError,
    decode,
    decode_message,
    encode,
    encode_message,
    result_checksum,
)


# -- reference codec (oracle) -------------------------------------------------------
#
# The recursive codec wire v1 was first written as: one ``if`` chain per
# value, ``dataclasses.fields`` and the class reference recomputed for
# every instance.  Slow, but obviously the format; ``src/`` must match it
# byte for byte.

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_F64 = struct.Struct(">d")


def oracle_encode(obj: Any) -> bytes:
    out = bytearray(MAGIC + bytes([WIRE_VERSION]))
    _oracle_enc(obj, out)
    return bytes(out)


def _oracle_enc_str(text: str, out: bytearray) -> None:
    raw = text.encode("utf-8")
    out += _U32.pack(len(raw))
    out += raw


def _oracle_enc(obj: Any, out: bytearray) -> None:
    if obj is None:
        out += b"N"
        return
    if obj is True:
        out += b"T"
        return
    if obj is False:
        out += b"F"
        return
    t = type(obj)
    if t is int:
        raw = obj.to_bytes((obj.bit_length() + 8) // 8 or 1, "big", signed=True)
        out += b"i"
        out += _U32.pack(len(raw))
        out += raw
        return
    if t is float:
        out += b"f"
        out += _F64.pack(obj)
        return
    if t is str:
        out += b"s"
        _oracle_enc_str(obj, out)
        return
    if t is bytes:
        out += b"b"
        out += _U32.pack(len(obj))
        out += obj
        return
    if t is complex:
        out += b"c"
        out += _F64.pack(obj.real)
        out += _F64.pack(obj.imag)
        return
    if t is list or t is tuple:
        out += b"l" if t is list else b"t"
        out += _U32.pack(len(obj))
        for item in obj:
            _oracle_enc(item, out)
        return
    if t is dict:
        pairs = []
        for key, value in obj.items():
            kb = bytearray()
            _oracle_enc(key, kb)
            vb = bytearray()
            _oracle_enc(value, vb)
            pairs.append((bytes(kb), bytes(vb)))
        pairs.sort(key=lambda p: p[0])
        out += b"d"
        out += _U32.pack(len(pairs))
        for kb, vb in pairs:
            out += kb
            out += vb
        return
    if t is set or t is frozenset:
        items = []
        for item in obj:
            ib = bytearray()
            _oracle_enc(item, ib)
            items.append(bytes(ib))
        items.sort()
        out += b"x" if t is set else b"X"
        out += _U32.pack(len(items))
        for ib in items:
            out += ib
        return
    if isinstance(obj, np.ndarray):
        if obj.dtype == object:
            raise WireError("object-dtype ndarrays are not wire-encodable")
        arr = np.ascontiguousarray(obj)
        out += b"a"
        _oracle_enc_str(arr.dtype.str, out)
        out += struct.pack(">B", arr.ndim)
        for dim in arr.shape:
            out += _U64.pack(dim)
        raw = arr.tobytes()
        out += _U64.pack(len(raw))
        out += raw
        return
    if isinstance(obj, np.generic):
        out += b"y"
        _oracle_enc_str(obj.dtype.str, out)
        raw = obj.tobytes()
        out += _U32.pack(len(raw))
        out += raw
        return
    if isinstance(obj, type):
        out += b"C"
        _oracle_enc_str(wire._type_ref(obj), out)
        return
    if dataclasses.is_dataclass(obj):
        flds = dataclasses.fields(obj)
        out += b"D"
        _oracle_enc_str(wire._type_ref(type(obj)), out)
        out += _U32.pack(len(flds))
        for f in flds:
            _oracle_enc_str(f.name, out)
            _oracle_enc(getattr(obj, f.name), out)
        return
    if callable(obj):
        raise WireError(f"cannot encode callable {obj!r}: use AttrPredicate")
    if hasattr(obj, "__dict__"):
        out += b"O"
        _oracle_enc_str(wire._type_ref(t), out)
        attrs = sorted(vars(obj).items())
        out += _U32.pack(len(attrs))
        for name, value in attrs:
            _oracle_enc_str(name, out)
            _oracle_enc(value, out)
        return
    raise WireError(f"type {t.__module__}.{t.__qualname__} is not wire-encodable")


def oracle_decode(data: bytes) -> Any:
    obj, pos = _oracle_dec(data, 4)
    assert pos == len(data)
    return obj


def _oracle_dec_str(data: bytes, pos: int) -> tuple[str, int]:
    (n,) = _U32.unpack_from(data, pos)
    pos += 4
    return data[pos : pos + n].decode("utf-8"), pos + n


def _oracle_dec(data: bytes, pos: int) -> tuple[Any, int]:
    tag = data[pos : pos + 1]
    pos += 1
    if tag == b"N":
        return None, pos
    if tag == b"T":
        return True, pos
    if tag == b"F":
        return False, pos
    if tag == b"i":
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        return int.from_bytes(data[pos : pos + n], "big", signed=True), pos + n
    if tag == b"f":
        (value,) = _F64.unpack_from(data, pos)
        return value, pos + 8
    if tag == b"s":
        return _oracle_dec_str(data, pos)
    if tag == b"b":
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        return bytes(data[pos : pos + n]), pos + n
    if tag == b"c":
        (real,) = _F64.unpack_from(data, pos)
        (imag,) = _F64.unpack_from(data, pos + 8)
        return complex(real, imag), pos + 16
    if tag in (b"l", b"t", b"x", b"X"):
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        items = []
        for _ in range(n):
            item, pos = _oracle_dec(data, pos)
            items.append(item)
        make = {b"l": list, b"t": tuple, b"x": set, b"X": frozenset}[tag]
        return make(items), pos
    if tag == b"d":
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        result = {}
        for _ in range(n):
            key, pos = _oracle_dec(data, pos)
            value, pos = _oracle_dec(data, pos)
            result[key] = value
        return result, pos
    if tag == b"a":
        dtype, pos = _oracle_dec_str(data, pos)
        ndim = data[pos]
        pos += 1
        shape = []
        for _ in range(ndim):
            (dim,) = _U64.unpack_from(data, pos)
            pos += 8
            shape.append(dim)
        (nbytes,) = _U64.unpack_from(data, pos)
        pos += 8
        arr = np.frombuffer(data[pos : pos + nbytes], dtype=np.dtype(dtype))
        return arr.reshape(shape).copy(), pos + nbytes
    if tag == b"y":
        dtype, pos = _oracle_dec_str(data, pos)
        (nbytes,) = _U32.unpack_from(data, pos)
        pos += 4
        value = np.frombuffer(data[pos : pos + nbytes], dtype=np.dtype(dtype))[0]
        return value, pos + nbytes
    if tag == b"C":
        ref, pos = _oracle_dec_str(data, pos)
        return wire._resolve_ref(ref), pos
    if tag == b"D":
        ref, pos = _oracle_dec_str(data, pos)
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        pairs = []
        for _ in range(n):
            name, pos = _oracle_dec_str(data, pos)
            value, pos = _oracle_dec(data, pos)
            pairs.append((name, value))
        cls = wire._resolve_ref(ref)
        field_map = {f.name: f for f in dataclasses.fields(cls)}
        kwargs = {}
        deferred = []
        for name, value in pairs:
            f = field_map.get(name)
            if f is None:
                continue
            if f.init:
                kwargs[f.name] = value
            else:
                deferred.append((f.name, value))
        instance = cls(**kwargs)
        for name, value in deferred:
            object.__setattr__(instance, name, value)
        return instance, pos
    if tag == b"O":
        ref, pos = _oracle_dec_str(data, pos)
        (n,) = _U32.unpack_from(data, pos)
        pos += 4
        cls = wire._resolve_ref(ref)
        instance = cls.__new__(cls)
        for _ in range(n):
            name, pos = _oracle_dec_str(data, pos)
            value, pos = _oracle_dec(data, pos)
            object.__setattr__(instance, name, value)
        return instance, pos
    raise WireError(f"unknown wire tag {tag!r}")


# -- one frame per protocol message kind --------------------------------------------


def protocol_messages() -> dict[str, Message]:
    """One deterministic frame per kind in the ``docs/architecture.md`` table.

    Also the payload set ``benchmarks/microbench_wire.py`` times.
    """
    rng = np.random.default_rng(0)
    snap = ParticleSnapshot(
        positions=rng.normal(size=(64, 3)),
        masses=np.ones(64),
        smoothing=np.full(64, 0.1),
        time=1.5,
    )
    samples = SampleSet(
        data=np.sin(np.linspace(0.0, 8.0, 256)), sampling_rate=1024.0, t0=0.25
    )
    adv = Advertisement(
        adv_type="service",
        name="triana:worker-0",
        publisher="worker-0",
        attrs=(("cpu_flops", 2e9), ("free_ram", 536870912), ("kind", "triana-worker")),
        expires_at=float("inf"),
        adv_id=7,
    )
    spec = QuerySpec(
        adv_type="service",
        name=None,
        predicate=AttrPredicate.make(
            equals={"kind": "triana-worker"}, at_least={"cpu_flops": 1e9}
        ),
    )
    deploy = DeploymentSpec(
        deployment_id="dep-1",
        controller="controller",
        xml='<taskgraph name="Chain" format="1"><task name="Stage0" unit="LowPass"/></taskgraph>',
        external_inputs=(("Stage0", 0),),
        output_spec=(("Stage3", 0),),
        forward=None,
    )
    pkg = ModulePackage(name="ColumnDensity", version="1.0", code_size=4096, cls=ColumnDensity)
    state = {"Stage0": {"count": 3, "acc": np.arange(4.0)}, "Stage1": {}}
    table = TableData(["id", "v"], [(1, 2.5), (2, -1.0)])
    image = ImageData(pixels=np.arange(64.0).reshape(8, 8))
    payloads = {
        "central-publish": adv,
        "central-query": (1, spec),
        "central-reply": (1, [adv]),
        "flood-query": ("worker-0", 3, spec, 4),
        "flood-reply": (3, [adv]),
        "rdv-publish": adv,
        "rdv-query": ("worker-1", 4, spec),
        "rdv-forward": ("worker-1", 4, spec),
        "rdv-reply": (4, [adv]),
        "pipe-data": ("pipe:density", samples),
        "module-fetch": ("worker-0", 1, "ColumnDensity", None),
        "module-package": (1, "ColumnDensity", pkg),
        "module-head": ("worker-0", 2, "ColumnDensity"),
        "module-head-reply": (2, "ColumnDensity", "1.0", 4096, pkg.digest),
        "module-chunk": (1, "ColumnDensity", pkg, 3, 4),
        "module-peer-fetch": ("worker-1", 5, "ColumnDensity", pkg.digest),
        "module-preseed": ("controller", ("ColumnDensity", "LowPass")),
        "preseed-ack": ("worker-0", ("ColumnDensity",)),
        "triana-deploy": deploy,
        "deploy-ack": ("dep-1", None),
        "group-exec": ("dep-1", 0, [samples]),
        "group-exec-batch": ("dep-1", [(0, [snap]), (1, [snap])]),
        "group-result": ("dep-1", 0, [image, table]),
        "triana-checkpoint": ("controller", "dep-1"),
        "checkpoint-reply": ("dep-1", state),
        "triana-rewire": ("dep-1", ("worker-1", "dep-2")),
        "triana-drain": ("controller", "dep-1", ("worker-1", "dep-2")),
        "drain-reply": ("dep-1", state, [(5, [samples])]),
        "triana-resume": ("dep-2", state, [(5, [samples])]),
        "triana-heartbeat": ("worker-0", {"dep-1": 4, "dep-2": 1}),
        "triana-hb-renew": ("controller", frozenset({3, 4})),
        "node-shutdown": None,
        "http-request": (9, "GET", "/status", b""),
        "http-response": (9, 200, {"ok": True, "load": 0.5}),
    }
    return {
        kind: Message(kind, "controller", "worker-0", payload=payload, size_bytes=512)
        for kind, payload in payloads.items()
    }


def roundtrip(obj):
    return decode(encode(obj))


def msg_roundtrip(kind, payload, src="a", dst="b", size=512):
    msg = Message(kind, src, dst, payload=payload, size_bytes=size)
    out = decode_message(encode_message(msg))
    assert out.kind == kind and out.src == src and out.dst == dst
    assert out.size_bytes == size
    return out


# -- scalar / container round trips -------------------------------------------------


class TestScalars:
    def test_atoms(self):
        for value in (None, True, False, 0, -1, 2**100, 3.5, -0.0, "héllo",
                      b"\x00\xff", complex(1.5, -2.5)):
            assert roundtrip(value) == value

    def test_containers(self):
        value = {
            "list": [1, [2, [3]]],
            "tuple": (1, "two", None),
            "set": {1, 2, 3},
            "frozen": frozenset({"a", "b"}),
            ("tuple", "key"): {"nested": (4.5,)},
        }
        out = roundtrip(value)
        assert out == value
        assert isinstance(out["tuple"], tuple)
        assert isinstance(out["frozen"], frozenset)

    def test_canonical_dict_order(self):
        a = encode({"x": 1, "y": 2})
        b = encode({"y": 2, "x": 1})
        assert a == b

    def test_canonical_set_order(self):
        assert encode({3, 1, 2}) == encode({2, 3, 1})

    def test_float_int_distinct(self):
        assert encode(1) != encode(1.0)
        assert type(roundtrip(1.0)) is float
        assert type(roundtrip(1)) is int

    def test_ndarray(self):
        for arr in (
            np.arange(12, dtype=np.float64).reshape(3, 4),
            np.array([], dtype=np.int32),
            np.ones((2, 2, 2), dtype=np.uint8),
            np.asfortranarray(np.arange(6.0).reshape(2, 3)),
        ):
            out = roundtrip(arr)
            assert out.dtype == arr.dtype
            assert out.shape == arr.shape
            np.testing.assert_array_equal(out, arr)

    def test_numpy_scalar(self):
        out = roundtrip(np.float64(2.5))
        assert out == np.float64(2.5)
        assert isinstance(out, np.generic)

    def test_class_by_reference(self):
        assert roundtrip(ColumnDensity) is ColumnDensity


# -- property tests -----------------------------------------------------------------

atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=20),
    st.binary(max_size=20),
)

nested = st.recursive(
    atoms,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=8), inner, max_size=4),
    ),
    max_leaves=25,
)


@given(nested)
@settings(max_examples=100)
def test_roundtrip_nested(value):
    assert roundtrip(value) == value


@given(nested)
@settings(max_examples=50)
def test_encoding_is_deterministic(value):
    assert encode(value) == encode(value)
    assert result_checksum(value) == result_checksum(value)


@given(st.dictionaries(st.text(max_size=6), st.integers(), max_size=6))
@settings(max_examples=50)
def test_checksum_insertion_order_independent(mapping):
    items = list(mapping.items())
    forward = dict(items)
    backward = dict(reversed(items))
    assert result_checksum(forward) == result_checksum(backward)


# -- protocol message kinds ---------------------------------------------------------


class TestMessageKinds:
    def test_triana_deploy(self):
        spec = DeploymentSpec(
            deployment_id="dep-1",
            controller="controller",
            xml="<taskgraph/>",
            external_inputs=(("density", "in"),),
            output_spec=(("density", "out"),),
            forward=None,
        )
        out = msg_roundtrip("triana-deploy", spec)
        assert isinstance(out.payload, DeploymentSpec)
        assert out.payload == spec

    def test_group_exec(self):
        snap = ParticleSnapshot(
            positions=np.random.default_rng(0).normal(size=(5, 3)),
            masses=np.ones(5),
            smoothing=np.full(5, 0.1),
            time=1.5,
        )
        out = msg_roundtrip("group-exec", ("dep-1", 3, [snap]))
        dep_id, iteration, inputs = out.payload
        assert (dep_id, iteration) == ("dep-1", 3)
        np.testing.assert_array_equal(inputs[0].positions, snap.positions)
        assert inputs[0].time == snap.time

    def test_group_exec_batch(self):
        frames = generate_snapshots(n_frames=3, n_particles=8, seed=1)
        batch = ("dep-2", [(i, [frame]) for i, frame in enumerate(frames)])
        out = msg_roundtrip("group-exec-batch", batch)
        dep_id, items = out.payload
        assert dep_id == "dep-2"
        assert [i for i, _ in items] == [0, 1, 2]
        for (_, inputs), frame in zip(items, frames):
            np.testing.assert_array_equal(inputs[0].masses, frame.masses)

    def test_group_result_image(self):
        img = ImageData(pixels=np.arange(16.0).reshape(4, 4))
        out = msg_roundtrip("group-result", ("dep-1", 0, [img]))
        np.testing.assert_array_equal(out.payload[2][0].pixels, img.pixels)

    def test_module_package_and_chunk(self):
        pkg = ModulePackage(
            name="galaxy.ColumnDensity",
            version="1.0",
            code_size=4096,
            cls=ColumnDensity,
        )
        out = msg_roundtrip("module-package", ("req-1", "galaxy.ColumnDensity", pkg))
        got = out.payload[2]
        assert got.cls is ColumnDensity
        assert got.digest == pkg.digest
        # chunked transfer: one mid-stream chunk and the terminal chunk
        out = msg_roundtrip(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", None, 2, 5)
        )
        assert out.payload == ("req-1", "galaxy.ColumnDensity", None, 2, 5)
        out = msg_roundtrip(
            "module-chunk", ("req-1", "galaxy.ColumnDensity", pkg, 4, 5)
        )
        assert out.payload[2].qualified_name == pkg.qualified_name

    def test_module_head_reply(self):
        out = msg_roundtrip(
            "module-head-reply", ("req-2", "galaxy.ColumnDensity", "sha:abc", 4096)
        )
        assert out.payload[2] == "sha:abc"

    def test_central_publish_preserves_adv_id(self):
        adv = Advertisement(
            adv_type="service",
            name="triana",
            publisher="worker-0",
            attrs={"kind": "triana", "cpu_flops": 2e9, "host": "worker-0"},
            expires_at=float("inf"),
        )
        out = msg_roundtrip("central-publish", adv)
        assert out.payload.adv_id == adv.adv_id
        assert out.payload.attrs == adv.attrs
        assert out.payload.expires_at == float("inf")

    def test_central_query_ships_predicate(self):
        pred = AttrPredicate.make(
            equals={"kind": "triana"}, at_least={"cpu_flops": 1e9}
        )
        spec = QuerySpec(adv_type="service", name=None, predicate=pred)
        out = msg_roundtrip("central-query", (7, spec))
        req, got = out.payload
        assert req == 7
        assert got.predicate({"kind": "triana", "cpu_flops": 2e9})
        assert not got.predicate({"kind": "triana", "cpu_flops": 1e3})

    def test_triana_heartbeat(self):
        out = msg_roundtrip("triana-heartbeat", ("worker-0", {"dep-1": 4}))
        assert out.payload == ("worker-0", {"dep-1": 4})

    def test_table_payload(self):
        table = TableData(["id", "v"], [(1, 2.5), (2, -1.0)])
        out = msg_roundtrip("group-result", ("dep-3", 1, [table]))
        got = out.payload[2][0]
        assert got.columns == table.columns
        assert [tuple(r) for r in got.rows] == [tuple(r) for r in table.rows]


# -- error paths --------------------------------------------------------------------


class TestErrors:
    def test_lambda_rejected_with_hint(self):
        with pytest.raises(WireError, match="AttrPredicate"):
            encode(lambda attrs: True)

    def test_local_class_rejected(self):
        class Local:
            pass

        with pytest.raises(WireError, match="locally-defined"):
            encode(Local)

    def test_foreign_class_rejected(self):
        import argparse

        with pytest.raises(WireError, match="allowlist"):
            encode(argparse.Namespace(x=1))
        with pytest.raises(WireError, match="not wire-encodable"):
            encode(np.random.default_rng(0))  # no __dict__, no dataclass

    def test_bad_magic(self):
        with pytest.raises(WireError, match="header"):
            decode(b"XXX" + bytes([WIRE_VERSION]) + b"N")

    def test_version_mismatch(self):
        with pytest.raises(WireError, match="version mismatch"):
            decode(MAGIC + bytes([WIRE_VERSION + 1]) + b"N")

    def test_trailing_bytes(self):
        with pytest.raises(WireError, match="trailing"):
            decode(encode(1) + b"\x00")

    def test_object_dtype_rejected(self):
        with pytest.raises(WireError, match="object-dtype"):
            encode(np.array([object()], dtype=object))

    def test_non_message_frame_rejected(self):
        with pytest.raises(WireError, match="not Message"):
            decode_message(encode({"kind": "fake"}))

    def test_decoded_ref_must_stay_in_allowlist(self):
        # Forge a class-by-ref frame pointing outside the allowlist.
        frame = bytearray(MAGIC + bytes([WIRE_VERSION]) + b"C")
        ref = b"os:system"
        frame += len(ref).to_bytes(4, "big") + ref
        with pytest.raises(WireError, match="allowlist"):
            decode(bytes(frame))

    def test_dataclass_tolerates_unknown_fields(self):
        # A frame from a peer whose DeploymentSpec grew an extra field
        # must still decode here: unknown names are skipped.
        spec = DeploymentSpec(
            deployment_id="d", controller="c", xml="<g/>",
            external_inputs=(), output_spec=(), forward=None,
        )
        raw = bytearray(encode(spec))
        # splice one extra (name, value) pair into the field list; the
        # field count sits right after header(4) + tag(1) + ref string
        ref = f"{type(spec).__module__}:{type(spec).__qualname__}".encode()
        count_at = 4 + 1 + 4 + len(ref)
        flds = dataclasses.fields(spec)
        assert raw[count_at:count_at + 4] == len(flds).to_bytes(4, "big")
        raw[count_at:count_at + 4] = (len(flds) + 1).to_bytes(4, "big")
        extra = bytearray()
        name = b"brand_new_field"
        extra += len(name).to_bytes(4, "big") + name
        extra += b"N"
        raw += extra
        out = decode(bytes(raw))
        assert out == spec


# -- byte-equality with the reference codec ------------------------------------------

hashable_atoms = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.binary(max_size=8),
    st.complex_numbers(),
)

keys = st.recursive(
    hashable_atoms,
    lambda inner: st.one_of(
        st.tuples(inner, inner), st.frozensets(inner, max_size=3)
    ),
    max_leaves=4,
)

array_dtypes = st.sampled_from(
    ["<f8", "<f4", ">f8", "<i8", "<i4", ">i2", "|u1", "|b1", "<c16", "<U3", "|S4"]
)
arrays = hnp.arrays(
    array_dtypes, hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
)
arrays = st.one_of(arrays, arrays.map(np.asfortranarray))
numpy_scalars = hnp.arrays(array_dtypes, 1).map(lambda a: a[0])

class_refs = st.sampled_from(
    [SampleSet, ImageData, TableData, Message, ColumnDensity, DeploymentSpec]
)
sample_sets = st.builds(
    SampleSet,
    data=hnp.arrays("<f8", st.integers(0, 8)),
    sampling_rate=st.floats(0.5, 1e6),
    t0=st.floats(allow_nan=False),
)
tables = st.builds(
    TableData,
    st.just(["id", "v"]),
    st.lists(st.tuples(st.integers(), st.floats()), max_size=3),
)


def _messages(inner):
    return st.builds(
        Message,
        kind=st.sampled_from(["group-exec", "group-result", "triana-heartbeat"]),
        src=st.text(max_size=6),
        dst=st.text(max_size=6),
        payload=inner,
        size_bytes=st.integers(0, 10**6),
    )


wire_values = st.recursive(
    st.one_of(hashable_atoms, arrays, numpy_scalars, class_refs, sample_sets, tables),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(keys, inner, max_size=4),
        st.sets(keys, max_size=4),
        st.frozensets(keys, max_size=4),
        _messages(inner),
    ),
    max_leaves=20,
)


@given(wire_values)
@settings(max_examples=300, deadline=None)
def test_encode_is_byte_equal_to_oracle(value):
    want = oracle_encode(value)
    assert encode(value) == want
    # decoding the oracle's bytes and encoding again gives them back
    assert encode(decode(want)) == want


# SHA-256 of one frame per message kind (``protocol_messages``), taken
# from the reference codec: any change to the v1 byte format fails here.
GOLDEN_DIGESTS = {
    "central-publish": "79afd72f0c7e7b376990f6a2160e1b9908c1881affd27ee6d1dc484932196d13",
    "central-query": "d95a4502572ac3f78dc52271bdd4890db52250651724cddb17cbff70fe9bd719",
    "central-reply": "13d915fc228669f0b42a7cfa03d025a0f678345e417b65e8495b491ad3adaf4e",
    "flood-query": "0f6bcad179b3a3d4bfd661f0bda2a4b823632341e66f20875030fe674b75be70",
    "flood-reply": "6619a3210b8a194d24a404d71ceb3313704bff70d8fc943fcef33ea119a6159f",
    "rdv-publish": "303eda809fa6edeb7b833416f46408fc97e2729773f6eb20dab24d3ad65a3a9f",
    "rdv-query": "e42ada6123dbca131bec1c20ed57cf653808cba43444de9f60ba887c2d563e84",
    "rdv-forward": "b4ece8d77f20ea0b6548fd77e9f2a7db21deb1c7e3d2fee5e10104e7aa755a44",
    "rdv-reply": "e3b1c96fb340e09ba7eb51a8218637a6c9690fc3a286855c2b0edad7b3523935",
    "pipe-data": "2b1c30d7847eacabc9d16b3823f3836075339266b198f0e7470c606c9ff58b00",
    "module-fetch": "7de2cbd43b565c9c2f6176c4487337116f8d86ff2a978694212a5cda5b880fe8",
    "module-package": "52da846d4f883866f5056eaebb605fda39a51c4e057c4739bb4fd3aced7032d1",
    "module-head": "8b8d85e619e708cf004d89dceced266709e854d4dead19aa656fbceb86ba32f2",
    "module-head-reply": "318e4e0fa568e68ad750868700f63d8ff050a6370aed08ce213d9485d2c95f22",
    "module-chunk": "1aa04f5750366716cf52e651b047b8f76e0a16154e91453fed4dc6f63326c47d",
    "module-peer-fetch": "e40fdf76934ce0d0370e576367e94ee66d85db1812b468ea1e0074b315901607",
    "module-preseed": "580cdea3a8cc180774741f852262590865acb313ed420f7d92b007e64f1393ab",
    "preseed-ack": "a18f7a253d919ff1c97093ad02c7576319c2f03a9bd105f9dcfa2d18004ab1c5",
    "triana-deploy": "6e36698401c158b362d8f95f691a802a26845368a618d563f8ee7503a8da3a81",
    "deploy-ack": "1427ad2a550591762c11875f4cb21d09fe71db24ceeea3b4f20d32dfb3742668",
    "group-exec": "29ac5b9f28eec284d55217d0e9d26433d6287b64e7cd139410f8cb44723181af",
    "group-exec-batch": "26bd383e329edfe575b575024b587eaa4a5665d84f306a0b088baef5ef5aa03c",
    "group-result": "e972ab9d4e284d1337cc1de7df912f600a2a1bf97a2676043ef8cfa9c9f082a4",
    "triana-checkpoint": "6c7a9787521c43b395d787af5d5cffc9723fbf131a81dfb8962d5f909be7f4ec",
    "checkpoint-reply": "833b0c68c67107df41d207fef5264a3750b6eb0603aabac8a11d4ded518b3788",
    "triana-rewire": "08403597b747fa7dad3b3476b26e9652bd6ed8f5aa998009196994abacdff12f",
    "triana-drain": "04ad2a27ff219822be9c7c5f3141a69f9b593dd134fce8ef33b4337aa4089bac",
    "drain-reply": "6ed9085b6c8db7b6ec50a07bc30f6f9377a67ccfabb319e80a2a745f6aac56be",
    "triana-resume": "17d5b75729668b638d8abfee1c0edc28ac9f03747b26f1961bbd0a9389153199",
    "triana-heartbeat": "93f979e6b6de1a4ee7be4cda110fa7397d519c5d7c34bfb494f6e0291cffa955",
    "triana-hb-renew": "020ff247a6784cf5ea5863acd7819ef2e76fe3a233fa76c677806a3fd7ce6ead",
    "node-shutdown": "a903cb375ed5a02afeb4d6f51781ccb2f6cf9201272510de5d01ec136edebfed",
    "http-request": "dcdc8af00d6fb437190109dffac7f615cf0e978ab4342964cf53767f6c6af083",
    "http-response": "cd645c3502571b595c36f764e54944fe3dd79610c38778ebc284d6ab88403ee6",
}


class TestWireV1Pinned:
    def test_golden_digest_per_message_kind(self):
        frames = {kind: encode_message(msg) for kind, msg in protocol_messages().items()}
        assert frames.keys() == GOLDEN_DIGESTS.keys()
        for kind, frame in frames.items():
            assert hashlib.sha256(frame).hexdigest() == GOLDEN_DIGESTS[kind], kind

    def test_every_kind_matches_oracle_both_ways(self):
        for kind, msg in protocol_messages().items():
            want = oracle_encode(msg)
            assert encode_message(msg) == want, kind
            assert encode(decode_message(want)) == want, kind
            assert oracle_encode(oracle_decode(encode_message(msg))) == want, kind


# -- exact-type plans -----------------------------------------------------------------


@dataclasses.dataclass
class PlanBase:
    a: int
    b: str = "x"


@dataclasses.dataclass
class PlanChild(PlanBase):
    extra: float = 0.5


@dataclasses.dataclass
class PlanDeferred:
    a: int
    derived: int = dataclasses.field(init=False, default=0)

    def __post_init__(self):
        self.derived = self.a * 2


@dataclasses.dataclass(init=False)
class PlanReordered:
    """A dataclass whose own ``__init__`` takes the fields in another order."""

    a: int
    b: int

    def __init__(self, b, a):
        self.a, self.b = a, b


class TaggedArray(np.ndarray):
    pass


class TestExactTypePlans:
    def test_dataclass_subclass_gets_its_own_plan(self):
        base, child = PlanBase(1), PlanChild(2, "y", 1.5)
        assert encode(base) == oracle_encode(base)
        assert encode(child) == oracle_encode(child)
        assert wire._ENCODERS[PlanChild] is not wire._ENCODERS[PlanBase]
        out = decode(encode(child))
        assert type(out) is PlanChild and out == child

    def test_ndarray_subclass_takes_the_general_path(self):
        arr = np.arange(6.0).reshape(2, 3).view(TaggedArray)
        assert encode(arr) == oracle_encode(arr) == encode(np.arange(6.0).reshape(2, 3))
        assert TaggedArray not in wire._ENCODERS
        out = decode(encode(arr))
        assert type(out) is np.ndarray
        np.testing.assert_array_equal(out, arr)

    def test_plain_object_encodes_its_current_state(self):
        table = TableData(["id"], [(1,)])
        first = encode(table)
        table.append((2,))
        table.note = "added after the first encode"
        second = encode(table)
        assert first != second
        assert second == oracle_encode(table)
        out = decode(second)
        assert out.rows == [(1,), (2,)] and out.note == table.note

    def test_post_init_runs_and_init_false_fields_are_restored(self):
        value = PlanDeferred(3)
        value.derived = 99  # state that differs from what __post_init__ derives
        out = decode(encode(value))
        assert (out.a, out.derived) == (3, 99)

    def test_fields_bind_by_name_not_position(self):
        out = decode(encode(PlanReordered(b=2, a=1)))
        assert (out.a, out.b) == (1, 2)

    def test_plans_are_cached_once_per_type(self):
        encode(PlanBase(1))
        plan = wire._ENCODERS[PlanBase]
        encode(PlanBase(2))
        assert wire._ENCODERS[PlanBase] is plan
        decode(encode(PlanBase(1)))
        ref = f"{PlanBase.__module__}:{PlanBase.__qualname__}".encode()
        assert wire._REF_PLANS[ref].cls is PlanBase

    def test_non_canonical_reference_is_not_cached(self):
        # An alias that resolves to a real class still decodes, but only
        # the canonical ``module:qualname`` spelling earns a cached plan.
        ref = b"repro.core.types:SampleSet.__class__"
        frame = MAGIC + bytes([WIRE_VERSION]) + b"C" + len(ref).to_bytes(4, "big") + ref
        assert decode(frame) is type
        assert ref not in wire._REF_PLANS


# -- malformed frames raise WireError and nothing else ---------------------------------


def decode_or_wire_error(frame: bytes) -> None:
    try:
        decode(frame)
    except WireError:
        pass


BASE_FRAMES = [
    encode_message(msg)
    for kind, msg in protocol_messages().items()
    if kind in ("group-exec", "group-result", "central-query", "checkpoint-reply")
]


class TestMalformedFrames:
    def test_every_truncation_of_a_group_exec_frame(self):
        frame = encode_message(protocol_messages()["group-exec"])
        for cut in range(len(frame)):
            with pytest.raises(WireError):
                decode(frame[:cut])

    @given(st.sampled_from(BASE_FRAMES), st.data())
    @settings(max_examples=400, deadline=None)
    def test_byte_flips(self, frame, data):
        buf = bytearray(frame)
        flips = data.draw(
            st.lists(st.tuples(st.integers(0, len(buf) - 1), st.integers(0, 255)),
                     min_size=1, max_size=4)
        )
        for at, byte in flips:
            buf[at] = byte
        decode_or_wire_error(bytes(buf))

    @given(st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_random_bodies(self, body):
        decode_or_wire_error(MAGIC + bytes([WIRE_VERSION]) + body)

    def test_invalid_utf8_string(self):
        frame = MAGIC + bytes([WIRE_VERSION]) + b"s" + (2).to_bytes(4, "big") + b"\xff\xfe"
        with pytest.raises(WireError, match="UnicodeDecodeError"):
            decode(frame)

    def test_deep_nesting_is_a_wire_error(self):
        frame = MAGIC + bytes([WIRE_VERSION]) + b"l\x00\x00\x00\x01" * 100_000 + b"N"
        with pytest.raises(WireError):
            decode(frame)

    def test_cyclic_value_is_a_wire_error(self):
        loop = []
        loop.append(loop)
        with pytest.raises(WireError, match="cyclic"):
            encode(loop)

    def test_unknown_tag(self):
        with pytest.raises(WireError, match="unknown wire tag"):
            decode(MAGIC + bytes([WIRE_VERSION]) + b"?")

    def test_array_bytes_must_fit_the_dtype(self):
        # shape (2,) of float64 with 23 payload bytes: two whole items
        # plus 7 stray bytes, which must not be silently dropped
        frame = (
            MAGIC + bytes([WIRE_VERSION]) + b"a"
            + (3).to_bytes(4, "big") + b"<f8"
            + bytes([1]) + (2).to_bytes(8, "big")
            + (23).to_bytes(8, "big") + bytes(23)
        )
        with pytest.raises(WireError, match="do not fit"):
            decode(frame)
