"""Tor cell framing.

Tor moves all traffic in fixed-size cells. A cell carries a circuit ID, a
command, and a payload. RELAY cells wrap an encrypted
:class:`RelayCellBody` whose plaintext layout mirrors tor-spec §6.1::

    relay command   1 byte
    'recognized'    2 bytes  (zero in plaintext)
    stream ID       2 bytes
    digest          4 bytes  (running digest of all plaintext bodies)
    length          2 bytes
    data            RELAY_DATA_LEN bytes (padded with zeros)

The body packs/unpacks to exactly :data:`RELAY_BODY_LEN` bytes so the
onion layers always cipher a fixed-size block, as real Tor does.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass
from typing import Any, Callable

from repro.util.errors import ReproError

#: Total size of a cell on the wire (tor-spec: 512 bytes plus link framing).
CELL_SIZE_BYTES = 512

#: Size of the relay cell body that gets onion-encrypted.
RELAY_BODY_LEN = 509

_RELAY_HEADER = struct.Struct("!BHHIH")
RELAY_DATA_LEN = RELAY_BODY_LEN - _RELAY_HEADER.size


class CellCommand(enum.IntEnum):
    """Link-level cell commands (subset Ting's path exercises)."""

    PADDING = 0
    CREATE = 1
    CREATED = 2
    RELAY = 3
    DESTROY = 4


class RelayCommand(enum.IntEnum):
    """Relay cell sub-commands (tor-spec numbering)."""

    BEGIN = 1
    DATA = 2
    END = 3
    CONNECTED = 4
    EXTEND = 6
    EXTENDED = 7
    TRUNCATE = 8
    TRUNCATED = 9
    DROP = 10


#: Relay command by wire value: a dict lookup where the enum call costs frames.
_RELAY_COMMANDS = {int(command): command for command in RelayCommand}


class CellError(ReproError):
    """A cell failed to parse or validate."""


@dataclass
class Cell:
    """A link cell travelling on one OR connection.

    ``payload`` is structured data for CREATE/CREATED/DESTROY and raw
    ``bytes`` (the encrypted body) for RELAY cells.

    A cell belongs to the hop that holds it: a relay forwards a RELAY
    cell by re-addressing this object (new ``circ_id``, new ``payload``)
    and sending it on, so nothing may keep a cell past the event it
    arrived in — copy what is needed instead.
    """

    circ_id: int
    command: CellCommand
    payload: Any = None

    @property
    def size_bytes(self) -> int:
        """All cells occupy one fixed-size frame on the wire."""
        return CELL_SIZE_BYTES


@dataclass
class RelayCellBody:
    """The plaintext of a RELAY cell body."""

    relay_command: RelayCommand
    stream_id: int
    data: bytes = b""
    recognized: int = 0
    digest: bytes = b"\x00\x00\x00\x00"

    def __post_init__(self) -> None:
        if len(self.data) > RELAY_DATA_LEN:
            raise CellError(
                f"relay data too long: {len(self.data)} > {RELAY_DATA_LEN}"
            )
        if not 0 <= self.stream_id <= 0xFFFF:
            raise CellError(f"stream id out of range: {self.stream_id}")
        if len(self.digest) != 4:
            raise CellError("digest must be exactly 4 bytes")

    def pack(self) -> bytes:
        """Serialize to exactly RELAY_BODY_LEN bytes (zero-padded)."""
        header = _RELAY_HEADER.pack(
            int(self.relay_command),
            self.recognized,
            self.stream_id,
            int.from_bytes(self.digest, "big"),
            len(self.data),
        )
        body = header + self.data
        return body + b"\x00" * (RELAY_BODY_LEN - len(body))

    def pack_for_digest(self) -> bytes:
        """Serialize with the digest field zeroed (digest computation form)."""
        header = _RELAY_HEADER.pack(
            int(self.relay_command), self.recognized, self.stream_id, 0, len(self.data)
        )
        body = header + self.data
        return body + b"\x00" * (RELAY_BODY_LEN - len(body))

    def pack_stamped(self, digest_of: Callable[[bytes], bytes]) -> bytes:
        """:meth:`pack_for_digest`, with ``digest_of`` of it spliced into
        the digest field: the bytes ``with_digest(digest).pack()`` gives,
        packed once."""
        plain = self.pack_for_digest()
        return plain[:5] + digest_of(plain) + plain[9:]

    @classmethod
    def unpack(cls, raw: bytes) -> "RelayCellBody":
        """Parse a RELAY_BODY_LEN-byte plaintext body."""
        if len(raw) != RELAY_BODY_LEN:
            raise CellError(f"relay body must be {RELAY_BODY_LEN} bytes, got {len(raw)}")
        command, recognized, stream_id, digest_int, length = _RELAY_HEADER.unpack(
            raw[: _RELAY_HEADER.size]
        )
        if length > RELAY_DATA_LEN:
            raise CellError(f"relay length field too large: {length}")
        relay_command = _RELAY_COMMANDS.get(command)
        if relay_command is None:
            raise CellError(f"unknown relay command {command}")
        data = raw[_RELAY_HEADER.size : _RELAY_HEADER.size + length]
        return cls(
            relay_command=relay_command,
            stream_id=stream_id,
            data=data,
            recognized=recognized,
            digest=digest_int.to_bytes(4, "big"),
        )

    def with_digest(self, digest: bytes) -> "RelayCellBody":
        """A copy of this body carrying ``digest`` (4 bytes)."""
        return RelayCellBody(
            relay_command=self.relay_command,
            stream_id=self.stream_id,
            data=self.data,
            recognized=self.recognized,
            digest=digest,
        )
