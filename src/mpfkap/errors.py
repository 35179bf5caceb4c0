"""Exception hierarchy shared by every layer of the package.

It is the one table of failures: each class declares the CLI exit code
it ends in and the word cli.main prints before its message.
"""


class MpfKapError(Exception):
    """Base class for all errors raised by this package; only its subclasses are raised."""

    exit_code: int
    kind: str


class ParameterError(MpfKapError):
    """Invalid local inputs: dimensions, moduli, a setup with a zero entry,
    or a setup that cannot be sampled."""

    exit_code, kind = 2, "parameter"


class SerializationError(MpfKapError):
    """A value does not fit the canonical 8-byte wire encoding."""

    exit_code, kind = 2, "parameter"


class ProtocolError(MpfKapError):
    """A peer message or transcript violates the session contract, such as
    a peer token of the wrong shape or with a zero entry."""

    exit_code, kind = 3, "protocol"


class FrameError(ProtocolError):
    """A wire frame failed to decode."""


class TransportError(MpfKapError):
    """The peer could not be reached or the exchange timed out."""

    exit_code, kind = 4, "transport"
