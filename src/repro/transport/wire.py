"""Canonical wire codec: :class:`~repro.p2p.network.Message` ↔ bytes.

In the simulator a :class:`Message` payload is handed to the receiver as
the very same Python object, so *anything* — closures, generators, live
event objects — rides for free.  On a real transport every frame crosses
a process boundary, which forces three properties the codec pins down:

* **self-describing** — a tagged, recursive encoding covering the value
  vocabulary the protocol actually uses: scalars, containers, numpy
  arrays, and the protocol dataclasses (``DeploymentSpec``,
  ``Advertisement``, ``QuerySpec``, ``ModulePackage``, TrianaType
  payloads, …).  Dataclasses are encoded *by reference* (module-qualified
  name + field values), so both endpoints must run the same code — the
  consumer-grid deployment model of the paper, where workers fetch the
  module code itself through the repository layer.
* **canonical** — one value, one byte string.  Dict entries and set
  members are sorted by their encoded key bytes, floats use fixed-width
  IEEE-754, arrays are flattened to C order.  Canonical bytes make
  result checksums (:func:`result_checksum`) comparable across the sim
  and TCP backends, which is how the e2e suite asserts a localhost run
  reproduces a simulated one bit-for-bit.
* **versioned** — every buffer starts with a 4-byte header (magic +
  version) so incompatible peers fail loudly instead of mis-decoding.

The codec is table-driven: the per-type work (class reference string,
field names, dtype strings) is done once per type and kept in a *plan*,
not redone for every value.  The encoder dispatches on the exact type
through :data:`_ENCODERS`; a dataclass or plain protocol class gets its
plan the first time it is seen, after the allowlist check.  The decoder
dispatches on the tag byte through :data:`_DECODERS` and keeps one plan
per canonical class reference (:data:`_REF_PLANS`), again only once the
allowlist check has passed.  Types outside the table — ``ndarray``
subclasses, callables, foreign objects — take the general path with
every check.  The recursive reference codec these plans must match byte
for byte lives in ``tests/test_transport_wire.py``.

:func:`decode` raises only :class:`WireError`: a corrupt, truncated or
hostile frame is a counted error for the transport, never a crash.

Functions and lambdas are *rejected* with a pointer at
:class:`~repro.p2p.advertisement.AttrPredicate` — the declarative
predicate form that replaced the discovery closures precisely so query
frames could cross the wire.
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import inspect
import struct
from operator import attrgetter, itemgetter
from typing import Any, Callable

import numpy as np

from ..p2p.network import Message

__all__ = [
    "WireError",
    "WIRE_VERSION",
    "encode",
    "decode",
    "encode_message",
    "decode_message",
    "result_checksum",
]

MAGIC = b"RPW"
WIRE_VERSION = 1
_HEADER = MAGIC + bytes([WIRE_VERSION])

#: Top-level module prefixes a dataclass/class reference may resolve to.
#: Decoding a reference imports the module, so this is a deliberate
#: allowlist, not an optimisation.
ALLOWED_REF_ROOTS = ("repro", "tests", "benchmarks")

_U32 = struct.Struct(">I")
_U64 = struct.Struct(">Q")
_TAG_U32 = struct.Struct(">cI").pack
_TAG_F64 = struct.Struct(">cd").pack
_TAG_C128 = struct.Struct(">cdd").pack
_U32_FROM = _U32.unpack_from
_U64_FROM = _U64.unpack_from
_F64_FROM = struct.Struct(">d").unpack_from
_C128_FROM = struct.Struct(">dd").unpack_from

#: Caches keyed by values a peer controls (dtype strings) stop growing here.
_CACHE_LIMIT = 256


class WireError(Exception):
    """Raised for unencodable values, bad headers, or corrupt buffers."""


def _str_bytes(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _U32.pack(len(raw)) + raw


def _type_ref(cls: type) -> str:
    module, qualname = cls.__module__, cls.__qualname__
    if "<locals>" in qualname:
        raise WireError(f"cannot encode locally-defined class {qualname!r}")
    root = module.split(".", 1)[0]
    if root not in ALLOWED_REF_ROOTS:
        raise WireError(
            f"class {module}:{qualname} is outside the wire allowlist "
            f"{ALLOWED_REF_ROOTS}"
        )
    return f"{module}:{qualname}"


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def encode(obj: Any) -> bytes:
    """Encode ``obj`` into canonical, versioned wire bytes."""
    out = bytearray(_HEADER)
    try:
        _enc(obj, out)
    except RecursionError:
        raise WireError("value is cyclic or nested too deeply to encode") from None
    return bytes(out)


def _enc(obj: Any, out: bytearray) -> None:
    fn = _ENCODERS.get(type(obj))
    if fn is None:
        fn = _encoder_for(obj)
    fn(obj, out)


def _enc_part(obj: Any) -> bytearray:
    """One value's encoding on its own (dict keys and set members sort by it)."""
    part = bytearray()
    _enc(obj, part)
    return part


def _e_none(obj: None, out: bytearray) -> None:
    out += b"N"


def _e_bool(obj: bool, out: bytearray) -> None:
    out += b"T" if obj else b"F"


def _e_int(obj: int, out: bytearray) -> None:
    raw = obj.to_bytes((obj.bit_length() + 8) // 8 or 1, "big", signed=True)
    out += _TAG_U32(b"i", len(raw))
    out += raw


def _e_float(obj: float, out: bytearray) -> None:
    out += _TAG_F64(b"f", obj)


def _e_str(obj: str, out: bytearray) -> None:
    raw = obj.encode("utf-8")
    out += _TAG_U32(b"s", len(raw))
    out += raw


def _e_bytes(obj: bytes, out: bytearray) -> None:
    out += _TAG_U32(b"b", len(obj))
    out += obj


def _e_complex(obj: complex, out: bytearray) -> None:
    out += _TAG_C128(b"c", obj.real, obj.imag)


def _sequence_encoder(tag: bytes) -> Callable[[Any, bytearray], None]:
    def enc(obj: Any, out: bytearray) -> None:
        out += _TAG_U32(tag, len(obj))
        get = _ENCODERS.get
        for item in obj:
            fn = get(type(item))
            if fn is None:
                fn = _encoder_for(item)
            fn(item, out)

    return enc


def _e_dict(obj: dict, out: bytearray) -> None:
    pairs = [(_enc_part(key), _enc_part(value)) for key, value in obj.items()]
    pairs.sort(key=itemgetter(0))
    out += _TAG_U32(b"d", len(pairs))
    for key, value in pairs:
        out += key
        out += value


def _set_encoder(tag: bytes) -> Callable[[Any, bytearray], None]:
    def enc(obj: Any, out: bytearray) -> None:
        items = sorted(_enc_part(item) for item in obj)
        out += _TAG_U32(tag, len(items))
        for item in items:
            out += item

    return enc


_DTYPE_STRS: dict[np.dtype, bytes] = {}
_SHAPES: dict[int, struct.Struct] = {}


def _dtype_str(dtype: np.dtype) -> bytes:
    raw = _DTYPE_STRS.get(dtype)
    if raw is None:
        raw = _str_bytes(dtype.str)
        if len(_DTYPE_STRS) < _CACHE_LIMIT:
            _DTYPE_STRS[dtype] = raw
    return raw


def _shape_struct(ndim: int) -> struct.Struct:
    shape = _SHAPES.get(ndim)
    if shape is None:
        shape = _SHAPES[ndim] = struct.Struct(f">{ndim}Q")
    return shape


def _e_ndarray(obj: np.ndarray, out: bytearray) -> None:
    if obj.dtype.hasobject:
        raise WireError("object-dtype ndarrays are not wire-encodable")
    arr = np.ascontiguousarray(obj)
    raw = arr.tobytes()
    out += b"a"
    out += _dtype_str(arr.dtype)
    out += bytes((arr.ndim,))
    out += _shape_struct(arr.ndim).pack(*arr.shape)
    out += _U64.pack(len(raw))
    out += raw


def _e_generic(obj: np.generic, out: bytearray) -> None:
    raw = obj.tobytes()
    out += b"y"
    out += _dtype_str(obj.dtype)
    out += _U32.pack(len(raw))
    out += raw


def _e_class(obj: type, out: bytearray) -> None:
    out += b"C"
    out += _str_bytes(_type_ref(obj))


def _dataclass_encoder(cls: type) -> Callable[[Any, bytearray], None]:
    """Plan for one dataclass: pre-encoded header and field names."""
    names = [f.name for f in dataclasses.fields(cls)]
    head = b"D" + _str_bytes(_type_ref(cls)) + _U32.pack(len(names))
    fields = [_str_bytes(name) for name in names]
    if len(names) == 1:
        getter = attrgetter(names[0])
        values = lambda obj: (getter(obj),)  # noqa: E731
    else:
        values = attrgetter(*names) if names else (lambda obj: ())

    def enc(obj: Any, out: bytearray) -> None:
        out += head
        get = _ENCODERS.get
        for name, value in zip(fields, values(obj)):
            out += name
            fn = get(type(value))
            if fn is None:
                fn = _encoder_for(value)
            fn(value, out)

    return enc


def _object_encoder(cls: type) -> Callable[[Any, bytearray], None]:
    """Plan for a plain protocol class (``TableData``): class-ref + state.

    The state is read from the instance on every call, attrs sorted by
    name so the encoding stays canonical; only the header is fixed.
    """
    head = b"O" + _str_bytes(_type_ref(cls))

    def enc(obj: Any, out: bytearray) -> None:
        attrs = sorted(vars(obj).items())
        out += head
        out += _U32.pack(len(attrs))
        for name, value in attrs:
            out += _str_bytes(name)
            _enc(value, out)

    return enc


def _encoder_for(obj: Any) -> Callable[[Any, bytearray], None]:
    """The general path for a type outside :data:`_ENCODERS`.

    Checks run in the reference codec's order.  A numpy scalar type, a
    metaclass, a dataclass or a plain class gets its plan registered
    under its exact type; ``ndarray`` subclasses are served uncached.
    """
    t = type(obj)
    if isinstance(obj, np.ndarray):
        return _e_ndarray
    if isinstance(obj, np.generic):
        fn = _e_generic
    elif isinstance(obj, type):
        fn = _e_class
    elif dataclasses.is_dataclass(obj):
        fn = _dataclass_encoder(t)
    elif callable(obj):
        raise WireError(
            f"cannot encode callable {obj!r}: discovery predicates must be "
            "declarative — use repro.p2p.advertisement.AttrPredicate"
        )
    elif hasattr(obj, "__dict__"):
        fn = _object_encoder(t)
    else:
        raise WireError(f"type {t.__module__}.{t.__qualname__} is not wire-encodable")
    _ENCODERS[t] = fn
    return fn


#: Exact type -> encoder.  Seeded with the builtin vocabulary; protocol
#: classes are added by :func:`_encoder_for` on first sight.
_ENCODERS: dict[type, Callable[[Any, bytearray], None]] = {
    type(None): _e_none,
    bool: _e_bool,
    int: _e_int,
    float: _e_float,
    str: _e_str,
    bytes: _e_bytes,
    complex: _e_complex,
    list: _sequence_encoder(b"l"),
    tuple: _sequence_encoder(b"t"),
    dict: _e_dict,
    set: _set_encoder(b"x"),
    frozenset: _set_encoder(b"X"),
    np.ndarray: _e_ndarray,
    type: _e_class,
}


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode(data: bytes) -> Any:
    """Decode wire bytes produced by :func:`encode`.

    Raises :class:`WireError`, and nothing else, for any buffer that is
    not a well-formed frame.
    """
    if type(data) is not bytes:
        data = bytes(data)
    if len(data) < 4 or data[:3] != MAGIC:
        raise WireError("bad wire header (not a repro wire frame)")
    if data[3] != WIRE_VERSION:
        raise WireError(
            f"wire version mismatch: frame v{data[3]}, this peer speaks "
            f"v{WIRE_VERSION}"
        )
    # The frame is untrusted input: whatever a malformed body trips over
    # (struct.error, UnicodeDecodeError, IndexError, a constructor's
    # TypeError, RecursionError, ...) surfaces as the one codec error.
    try:
        obj, pos = _DECODERS[data[4]](data, 5)
    except WireError:
        raise
    except Exception as exc:
        raise WireError(f"corrupt frame: {type(exc).__name__}: {exc}") from exc
    if pos > len(data):
        raise WireError("truncated frame")
    if pos != len(data):
        raise WireError(f"{len(data) - pos} trailing bytes after payload")
    return obj


# Every decoder takes the buffer and the offset just past its tag byte
# and returns ``(value, next_offset)``.


def _d_unknown(data: bytes, pos: int) -> tuple[Any, int]:
    raise WireError(f"unknown wire tag {data[pos - 1 : pos]!r} at offset {pos - 1}")


def _constant_decoder(value: Any) -> Callable[[bytes, int], tuple[Any, int]]:
    return lambda data, pos: (value, pos)


def _d_int(data: bytes, pos: int) -> tuple[Any, int]:
    end = pos + 4 + _U32_FROM(data, pos)[0]
    return int.from_bytes(data[pos + 4 : end], "big", signed=True), end


def _d_float(data: bytes, pos: int) -> tuple[Any, int]:
    return _F64_FROM(data, pos)[0], pos + 8


def _d_str(data: bytes, pos: int) -> tuple[Any, int]:
    end = pos + 4 + _U32_FROM(data, pos)[0]
    return str(data[pos + 4 : end], "utf-8"), end


def _d_bytes(data: bytes, pos: int) -> tuple[Any, int]:
    end = pos + 4 + _U32_FROM(data, pos)[0]
    return data[pos + 4 : end], end


def _d_complex(data: bytes, pos: int) -> tuple[Any, int]:
    return complex(*_C128_FROM(data, pos)), pos + 16


def _d_items(data: bytes, pos: int) -> tuple[list, int]:
    (n,) = _U32_FROM(data, pos)
    pos += 4
    items = []
    decoders = _DECODERS
    for _ in range(n):
        item, pos = decoders[data[pos]](data, pos + 1)
        items.append(item)
    return items, pos


def _collection_decoder(make: type) -> Callable[[bytes, int], tuple[Any, int]]:
    def dec(data: bytes, pos: int) -> tuple[Any, int]:
        items, pos = _d_items(data, pos)
        return make(items), pos

    return dec


def _d_dict(data: bytes, pos: int) -> tuple[Any, int]:
    (n,) = _U32_FROM(data, pos)
    pos += 4
    result = {}
    decoders = _DECODERS
    for _ in range(n):
        key, pos = decoders[data[pos]](data, pos + 1)
        value, pos = decoders[data[pos]](data, pos + 1)
        result[key] = value
    return result, pos


_DTYPES: dict[bytes, np.dtype] = {}


def _d_dtype(data: bytes, pos: int) -> tuple[np.dtype, int]:
    end = pos + 4 + _U32_FROM(data, pos)[0]
    raw = data[pos + 4 : end]
    dtype = _DTYPES.get(raw)
    if dtype is None:
        dtype = np.dtype(str(raw, "utf-8"))
        if len(_DTYPES) < _CACHE_LIMIT:
            _DTYPES[raw] = dtype
    return dtype, end


def _d_ndarray(data: bytes, pos: int) -> tuple[Any, int]:
    dtype, pos = _d_dtype(data, pos)
    ndim = data[pos]
    shape = _shape_struct(ndim).unpack_from(data, pos + 1)
    pos += 1 + 8 * ndim
    (nbytes,) = _U64_FROM(data, pos)
    pos += 8
    end = pos + nbytes
    if end > len(data):
        raise WireError("array payload runs past the end of the frame")
    count, rest = divmod(nbytes, dtype.itemsize)
    if rest:
        raise WireError(f"{nbytes} array bytes do not fit dtype {dtype.str}")
    arr = np.frombuffer(data, dtype, count, pos)
    return arr.reshape(shape).copy(), end


def _d_generic(data: bytes, pos: int) -> tuple[Any, int]:
    dtype, pos = _d_dtype(data, pos)
    end = pos + 4 + _U32_FROM(data, pos)[0]
    if not dtype.itemsize:
        # ``np.str_("")`` has dtype ``<U0`` yet four bytes of payload
        return dtype.type(), end
    return np.frombuffer(data[pos + 4 : end], dtype=dtype)[0], end


def _resolve_ref(ref: str) -> Any:
    module_name, _, qualname = ref.partition(":")
    root = module_name.split(".", 1)[0]
    if root not in ALLOWED_REF_ROOTS:
        raise WireError(f"reference {ref!r} is outside the wire allowlist")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:  # pragma: no cover - env-dependent
        raise WireError(f"cannot import module for reference {ref!r}: {exc}")
    target: Any = module
    for part in qualname.split("."):
        try:
            target = getattr(target, part)
        except AttributeError:
            raise WireError(f"reference {ref!r} does not resolve")
    return target


class _RefPlan:
    """Decode plan for one class reference.

    For a dataclass it carries the fields in declared order, each field's
    name as the encoder writes it (length-prefixed, ``encoded``), and a
    map from raw name bytes to field (``by_name``).  ``positional`` is
    true when calling the class takes exactly the fields, in declared
    order, as positional-or-keyword parameters, so ``cls(*values)`` binds
    the same as ``cls(**kwargs)``.
    """

    __slots__ = ("ref", "cls", "dataclass", "fields", "encoded", "by_name", "positional")

    def __init__(self, ref: str, cls: Any):
        self.ref = ref
        self.cls = cls
        self.dataclass = isinstance(cls, type) and dataclasses.is_dataclass(cls)
        self.fields: tuple = dataclasses.fields(cls) if self.dataclass else ()
        self.encoded = tuple(_str_bytes(f.name) for f in self.fields)
        self.by_name = {f.name.encode("utf-8"): f for f in self.fields}
        self.positional = self.dataclass and _takes_fields(
            cls, tuple(f.name for f in self.fields)
        )

    def build(self, pairs: list) -> Any:
        """Construct through ``__init__`` (so ``__post_init__`` runs), then
        set the ``init=False`` fields."""
        kwargs = {}
        deferred = []
        for f, value in pairs:
            if f.init:
                kwargs[f.name] = value
            else:
                deferred.append((f.name, value))
        instance = self.cls(**kwargs)
        for name, value in deferred:
            object.__setattr__(instance, name, value)
        return instance


def _takes_fields(cls: type, names: tuple) -> bool:
    try:
        params = inspect.signature(cls).parameters.values()
    except (TypeError, ValueError):
        return False
    return tuple(p.name for p in params) == names and all(
        p.kind is inspect.Parameter.POSITIONAL_OR_KEYWORD for p in params
    )


#: Canonical ``module:qualname`` bytes -> plan, filled only after the
#: allowlist check passed and the reference resolved to a class.
_REF_PLANS: dict[bytes, _RefPlan] = {}


def _ref_plan(data: bytes, pos: int) -> tuple[_RefPlan, int]:
    end = pos + 4 + _U32_FROM(data, pos)[0]
    raw = data[pos + 4 : end]
    plan = _REF_PLANS.get(raw)
    if plan is None:
        ref = str(raw, "utf-8")
        plan = _RefPlan(ref, _resolve_ref(ref))
        cls = plan.cls
        # Only the canonical spelling is cached: aliases such as
        # ``repro:X.__class__`` resolve, but would let a peer grow the cache.
        if isinstance(cls, type) and f"{cls.__module__}:{cls.__qualname__}" == ref:
            _REF_PLANS[raw] = plan
    return plan, end


def _d_class(data: bytes, pos: int) -> tuple[Any, int]:
    plan, pos = _ref_plan(data, pos)
    if not isinstance(plan.cls, type):
        raise WireError(f"reference {plan.ref!r} is not a class")
    return plan.cls, pos


def _d_dataclass(data: bytes, pos: int) -> tuple[Any, int]:
    plan, pos = _ref_plan(data, pos)
    if not plan.dataclass:
        raise WireError(f"reference {plan.ref!r} is not a dataclass")
    (n,) = _U32_FROM(data, pos)
    pos += 4
    decoders = _DECODERS
    encoded = plan.encoded
    values = []
    if n == len(encoded):
        # Fast path: the fields arrive in declared order, as encode writes them.
        for name in encoded:
            if not data.startswith(name, pos):
                break
            pos += len(name)
            value, pos = decoders[data[pos]](data, pos + 1)
            values.append(value)
        else:
            if plan.positional:
                return plan.cls(*values), pos
            return plan.build(list(zip(plan.fields, values))), pos
    pairs = list(zip(plan.fields, values))
    by_name = plan.by_name
    for _ in range(n - len(values)):
        end = pos + 4 + _U32_FROM(data, pos)[0]
        raw = data[pos + 4 : end]
        f = by_name.get(raw)
        if f is None:
            str(raw, "utf-8")  # field removed on this side: skip, if well-formed
        value, pos = decoders[data[end]](data, end + 1)
        if f is not None:
            pairs.append((f, value))
    return plan.build(pairs), pos


def _d_object(data: bytes, pos: int) -> tuple[Any, int]:
    plan, pos = _ref_plan(data, pos)
    cls = plan.cls
    if not isinstance(cls, type):
        raise WireError(f"reference {plan.ref!r} is not a class")
    (n,) = _U32_FROM(data, pos)
    pos += 4
    # Bypass __init__: the wire carries the instance *state*, and
    # constructors may validate/transform their arguments.
    instance = cls.__new__(cls)
    decoders = _DECODERS
    for _ in range(n):
        name, pos = _d_str(data, pos)
        value, pos = decoders[data[pos]](data, pos + 1)
        object.__setattr__(instance, name, value)
    return instance, pos


#: Tag byte -> decoder; unassigned tags report themselves as unknown.
_DECODERS: list[Callable[[bytes, int], tuple[Any, int]]] = [_d_unknown] * 256
for _tag, _decoder in {
    b"N": _constant_decoder(None),
    b"T": _constant_decoder(True),
    b"F": _constant_decoder(False),
    b"i": _d_int,
    b"f": _d_float,
    b"s": _d_str,
    b"b": _d_bytes,
    b"c": _d_complex,
    b"l": _d_items,
    b"t": _collection_decoder(tuple),
    b"x": _collection_decoder(set),
    b"X": _collection_decoder(frozenset),
    b"d": _d_dict,
    b"a": _d_ndarray,
    b"y": _d_generic,
    b"C": _d_class,
    b"D": _d_dataclass,
    b"O": _d_object,
}.items():
    _DECODERS[_tag[0]] = _decoder
del _tag, _decoder


# ---------------------------------------------------------------------------
# message framing + checksums
# ---------------------------------------------------------------------------


def encode_message(message: Message) -> bytes:
    """Encode one protocol :class:`Message` into a wire frame body."""
    return encode(message)


def decode_message(data: bytes) -> Message:
    """Decode a frame body back into a :class:`Message`."""
    obj = decode(data)
    if not isinstance(obj, Message):
        raise WireError(f"frame decoded to {type(obj).__name__}, not Message")
    return obj


def result_checksum(obj: Any) -> str:
    """SHA-256 over the canonical encoding of ``obj``.

    Because the encoding is canonical, the checksum of a run's
    ``group_results`` is comparable across transports: the acceptance
    test for the TCP backend asserts a localhost multi-process run
    produces the same digest as the deterministic simulation.
    """
    return hashlib.sha256(encode(obj)).hexdigest()
