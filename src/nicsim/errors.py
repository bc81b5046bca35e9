"""Exception types shared across the package.

Ring-level fast paths signal "would block" conditions through return
values (None / False); exceptions are reserved for contract violations
and API-level errors.
"""


class NicSimError(Exception):
    """Base class for all package errors."""


class PayloadTooLarge(NicSimError):
    """RPC payload exceeds the 48-byte entry capacity."""


class MalformedEntry(NicSimError):
    """A 64-byte block does not decode to a legal entry."""


class DuplicateConnection(NicSimError):
    """Connection id already attached to the NIC, or its ring pair already
    bound to another connection."""


class ContractViolation(NicSimError):
    """Ring ownership protocol misuse (publish without acquire, double release, ...)."""


class HardFieldViolation(NicSimError):
    """Attempt to soft-reconfigure a hard (rebuild-only) NIC config field."""


class InvalidValue(NicSimError):
    """Config value outside its legal domain."""


class DrainTimeout(NicSimError):
    """NIC failed to quiesce within the drain budget."""


class UnknownDestination(NicSimError):
    """No route to the requested NIC id."""


class ResourceExhausted(NicSimError):
    """Ring-pair allocation failed."""


class DuplicateHandler(NicSimError):
    """Handler already registered for this function id."""


class RpcCallError(NicSimError):
    """Server answered with an error response (bad function id, oversized reply, ...)."""


class UnderdeterminedFit(NicSimError):
    """Calibration dataset has fewer points than fitted parameters."""


class ConfigInvalid(NicSimError):
    """Scenario or parameter file failed validation.

    Carries per-field messages so callers can report exactly what is wrong.
    """

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))
