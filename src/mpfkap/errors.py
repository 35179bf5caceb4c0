"""Exception hierarchy shared by every layer of the package.

Each class maps to one CLI exit code: ParameterError and
SerializationError exit 2, ProtocolError and FrameError exit 3,
TransportError exits 4.
"""


class MpfKapError(Exception):
    """Base class for all errors raised by this package."""


class ParameterError(MpfKapError):
    """Invalid local inputs: dimensions, moduli, a setup with a zero entry,
    or a setup that cannot be sampled.  Exit code 2."""


class SerializationError(MpfKapError):
    """A value does not fit the canonical 8-byte wire encoding.  Exit code 2."""


class ProtocolError(MpfKapError):
    """A peer message or transcript violates the session contract, such as
    a peer token of the wrong shape or with a zero entry.  Exit code 3."""


class FrameError(ProtocolError):
    """A wire frame failed to decode.  Exit code 3."""


class TransportError(MpfKapError):
    """The peer could not be reached or the exchange timed out.  Exit code 4."""
