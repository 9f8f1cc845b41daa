"""HDLC-like byte framing (RFC 1662).

``ppp_async`` frames every PPP packet between 0x7E flags and escapes
flag/escape/control octets with 0x7D followed by the octet XOR 0x20.
A 16-bit FCS (CRC-16/X.25) protects the frame.

The simulation moves :class:`~repro.ppp.frame.PPPFrame` objects rather
than octet streams, but this module implements the real encoding so
the byte-level behaviour is available (and property-tested): encode →
decode is the identity for any payload, and corrupted frames are
rejected by FCS.

The codec is table-driven rather than per-byte Python loops: the FCS
uses the standard 256-entry CRC table (one lookup per byte instead of
eight shift/xor rounds), escaping maps each octet through a
precomputed 256-entry expansion table joined in C, and the decoder
walks ``bytes.find`` from escape to escape so unescaped spans are
copied as slices.
"""

from __future__ import annotations

FLAG = 0x7E
ESCAPE = 0x7D
ESCAPE_XOR = 0x20

_FLAG_BYTES = b"\x7e"


class HdlcError(Exception):
    """Malformed or corrupted HDLC frame."""


def _build_fcs_table() -> tuple:
    table = []
    for byte in range(256):
        fcs = byte
        for _ in range(8):
            if fcs & 1:
                fcs = (fcs >> 1) ^ 0x8408
            else:
                fcs >>= 1
        table.append(fcs)
    return tuple(table)


#: One CRC-16/X.25 step per input byte: ``fcs = (fcs >> 8) ^ TABLE[(fcs ^ b) & 0xFF]``.
_FCS_TABLE = _build_fcs_table()

#: Octet → its on-the-wire form: ``0x7D, b ^ 0x20`` for flag/escape/control
#: octets, the octet itself otherwise.
_ESCAPE_TABLE = tuple(
    bytes((ESCAPE, byte ^ ESCAPE_XOR))
    if (byte in (FLAG, ESCAPE) or byte < 0x20)
    else bytes((byte,))
    for byte in range(256)
)


def _fcs16(data: bytes) -> int:
    """CRC-16/X.25 as used by PPP (RFC 1662 appendix), table-driven."""
    fcs = 0xFFFF
    table = _FCS_TABLE
    for byte in data:
        fcs = (fcs >> 8) ^ table[(fcs ^ byte) & 0xFF]
    return fcs ^ 0xFFFF


def hdlc_encode(payload: bytes) -> bytes:
    """Encode a payload into one flagged, escaped, FCS-protected frame."""
    fcs = _fcs16(payload)
    body = payload + bytes((fcs & 0xFF, (fcs >> 8) & 0xFF))
    escaped = b"".join(map(_ESCAPE_TABLE.__getitem__, body))
    return _FLAG_BYTES + escaped + _FLAG_BYTES


def hdlc_decode(frame: bytes) -> bytes:
    """Decode one frame produced by :func:`hdlc_encode`.

    Raises :class:`HdlcError` on missing flags, bad escapes, truncated
    frames, or FCS mismatch.
    """
    if len(frame) < 2 or frame[0] != FLAG or frame[-1] != FLAG:
        raise HdlcError("frame not delimited by flag octets")
    frame = bytes(frame)
    end = len(frame) - 1
    find = frame.find
    cut = find(ESCAPE, 1, end)
    if cut < 0:
        # Fast path: nothing escaped; one scan for stray flags, one slice.
        if find(FLAG, 1, end) >= 0:
            raise HdlcError("unescaped flag inside frame")
        body = frame[1:end]
    else:
        out = bytearray()
        pos = 1
        while cut >= 0:
            if find(FLAG, pos, cut) >= 0:
                raise HdlcError("unescaped flag inside frame")
            out += frame[pos:cut]
            if cut + 1 >= end:
                raise HdlcError("frame ends mid-escape")
            out.append(frame[cut + 1] ^ ESCAPE_XOR)
            pos = cut + 2
            cut = find(ESCAPE, pos, end)
        if find(FLAG, pos, end) >= 0:
            raise HdlcError("unescaped flag inside frame")
        out += frame[pos:end]
        body = bytes(out)
    if len(body) < 2:
        raise HdlcError("frame too short for FCS")
    payload = body[:-2]
    received_fcs = body[-2] | (body[-1] << 8)
    if _fcs16(payload) != received_fcs:
        raise HdlcError("FCS mismatch")
    return payload
