"""Handshake message objects.

Messages are dataclasses with a canonical deterministic encoding
(:meth:`to_bytes`) used for transcript hashing and signatures, and a
:meth:`wire_size` used for network accounting. The encoding is
complete (every security-relevant field is covered) but is not the
exact RFC 5246/8446 wire format — the simulation transports message
objects, not raw octets (see DESIGN.md).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Optional, Tuple

from .constants import HandshakeType, ProtocolVersion

__all__ = ["HandshakeMessage", "ClientHello", "ServerHello", "Certificate",
           "ServerKeyExchange", "ServerHelloDone", "ClientKeyExchange",
           "ChangeCipherSpec", "Finished", "EncryptedExtensions",
           "CertificateVerify", "NewSessionTicket", "Alert",
           "transcript_hash"]


def _encode_field(value) -> bytes:
    if value is None:
        return b"\x00"
    if isinstance(value, bytes):
        return len(value).to_bytes(4, "big") + value
    if isinstance(value, bool):
        return b"\x01" if value else b"\x02"
    if isinstance(value, int):
        return value.to_bytes(8, "big", signed=True)
    if isinstance(value, str):
        b = value.encode()
        return len(b).to_bytes(4, "big") + b
    if isinstance(value, (tuple, list)):
        out = len(value).to_bytes(2, "big")
        for v in value:
            out += _encode_field(v)
        return out
    raise TypeError(f"cannot encode field of type {type(value)!r}")


@lru_cache(maxsize=None)
def _field_names(cls: type) -> Tuple[str, ...]:
    """Dataclass field names of a message class, in declaration order."""
    return tuple(f.name for f in fields(cls))


@dataclass(frozen=True)
class HandshakeMessage:
    """Base class; subclasses define ``msg_type`` and ``overhead``."""

    msg_type = None   # type: Optional[HandshakeType]
    overhead = 8      # header/extension framing bytes on the wire

    # Messages are immutable and shared by both peers, so the encoding
    # and the wire size are computed once and kept in the instance dict,
    # outside the dataclass fields (equality and repr ignore them).

    def to_bytes(self) -> bytes:
        """Canonical encoding for transcripts and signatures."""
        encoded = self.__dict__.get("_encoded")
        if encoded is None:
            out = bytearray()
            out += int(self.msg_type).to_bytes(1, "big")
            for name in _field_names(type(self)):
                out += _encode_field(getattr(self, name))
            encoded = bytes(out)
            object.__setattr__(self, "_encoded", encoded)
        return encoded

    def wire_size(self) -> int:
        """Approximate on-the-wire size in bytes."""
        size = self.__dict__.get("_wire_size")
        if size is None:
            size = self.overhead + 4  # handshake header
            for name in _field_names(type(self)):
                v = getattr(self, name)
                if isinstance(v, bytes):
                    size += len(v)
                elif isinstance(v, str):
                    size += len(v)
                elif isinstance(v, (tuple, list)):
                    size += 2 * len(v) + 2
                elif v is not None:
                    size += 2
            object.__setattr__(self, "_wire_size", size)
        return size


@dataclass(frozen=True)
class ClientHello(HandshakeMessage):
    msg_type = HandshakeType.CLIENT_HELLO
    overhead = 60  # legacy fields + extension framing

    client_random: bytes = b""
    versions: Tuple[int, ...] = (ProtocolVersion.TLS12,)
    cipher_suites: Tuple[str, ...] = ()
    session_id: bytes = b""                 # resumption attempt if set
    session_ticket: Optional[bytes] = None  # ticket-based resumption
    supported_curves: Tuple[str, ...] = ()
    key_share_curve: Optional[str] = None   # TLS 1.3
    key_share: Optional[bytes] = None       # TLS 1.3 client share
    #: TLS 1.3 PSK offer: the identity is carried in session_ticket;
    #: the binder proves possession of the PSK (RFC 8446 section 4.2.11).
    psk_binder: Optional[bytes] = None


@dataclass(frozen=True)
class ServerHello(HandshakeMessage):
    msg_type = HandshakeType.SERVER_HELLO
    overhead = 40

    server_random: bytes = b""
    version: int = ProtocolVersion.TLS12
    cipher_suite: str = ""
    session_id: bytes = b""
    resumed: bool = False
    key_share_curve: Optional[str] = None   # TLS 1.3
    key_share: Optional[bytes] = None       # TLS 1.3 server share
    #: TLS 1.3: the accepted PSK offer (0 = the only one we send).
    selected_psk: Optional[int] = None


@dataclass(frozen=True)
class Certificate(HandshakeMessage):
    msg_type = HandshakeType.CERTIFICATE
    # X.509 framing, issuer/subject DNs, validity, signature by the CA:
    # dwarfs the raw public key. A 2048-bit RSA leaf cert is ~1 KB.
    overhead = 700

    kind: str = "rsa"                 # "rsa" | "ecdsa"
    public_bytes: bytes = b""
    curve: Optional[str] = None


@dataclass(frozen=True)
class ServerKeyExchange(HandshakeMessage):
    msg_type = HandshakeType.SERVER_KEY_EXCHANGE
    overhead = 12

    curve: str = ""
    public: bytes = b""               # server ephemeral EC point
    signature: bytes = b""            # over randoms + params

    def signed_portion(self, client_random: bytes,
                       server_random: bytes) -> bytes:
        return (b"SKE" + client_random + server_random
                + self.curve.encode() + self.public)


@dataclass(frozen=True)
class ServerHelloDone(HandshakeMessage):
    msg_type = HandshakeType.SERVER_HELLO_DONE
    overhead = 4


@dataclass(frozen=True)
class ClientKeyExchange(HandshakeMessage):
    msg_type = HandshakeType.CLIENT_KEY_EXCHANGE
    overhead = 6

    encrypted_premaster: Optional[bytes] = None  # TLS-RSA
    public: Optional[bytes] = None               # ECDHE client point


@dataclass(frozen=True)
class ChangeCipherSpec(HandshakeMessage):
    msg_type = HandshakeType.CLIENT_KEY_EXCHANGE  # placeholder, see below
    overhead = 1

    # CCS is its own content type, not a handshake message; modelled
    # here for uniform transport. It is excluded from transcripts.
    marker: str = "ccs"

    def to_bytes(self) -> bytes:
        return b"\x14ccs"


@dataclass(frozen=True)
class Finished(HandshakeMessage):
    msg_type = HandshakeType.FINISHED
    overhead = 28  # record encryption overhead (IV + MAC + padding)

    verify_data: bytes = b""


@dataclass(frozen=True)
class EncryptedExtensions(HandshakeMessage):
    msg_type = HandshakeType.ENCRYPTED_EXTENSIONS
    overhead = 10


@dataclass(frozen=True)
class CertificateVerify(HandshakeMessage):
    msg_type = HandshakeType.CERTIFICATE_VERIFY
    overhead = 8

    signature: bytes = b""


@dataclass(frozen=True)
class NewSessionTicket(HandshakeMessage):
    msg_type = HandshakeType.NEW_SESSION_TICKET
    overhead = 16

    ticket: bytes = b""
    lifetime: int = 3600
    #: TLS 1.3: per-ticket nonce feeding the resumption-PSK derivation.
    nonce: bytes = b""


@dataclass(frozen=True)
class Alert(HandshakeMessage):
    """A fatal TLS alert (its own content type on the real wire;
    transported like other messages here and excluded from
    transcripts)."""

    msg_type = HandshakeType.FINISHED  # placeholder; not transcripted
    overhead = 7

    description: str = "internal_error"

    def to_bytes(self) -> bytes:
        return b"\x15" + self.description.encode()


def transcript_hash(messages, hash_name: str = "sha256") -> bytes:
    """Hash of the canonical encodings of handshake messages, excluding
    ChangeCipherSpec (as TLS does)."""
    ctx = hashlib.new(hash_name)
    for m in messages:
        if isinstance(m, (ChangeCipherSpec, Alert)):
            continue
        ctx.update(m.to_bytes())
    return ctx.digest()
