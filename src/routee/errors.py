"""Exception hierarchy. Every error carries a stable machine-readable `code`
that is used verbatim in wire error responses and CLI JSON output."""


class RouteeError(Exception):
    code = "error"

    def __init__(self, detail: str = ""):
        self.detail = detail
        super().__init__(f"{self.code}: {detail}" if detail else self.code)


class CodedError(RouteeError):
    """An error whose code is given where it is raised, not by its class."""

    def __init__(self, code: str, detail: str = ""):
        self.code = code
        super().__init__(detail)


# --- chain model ---

class MalformedTarget(RouteeError):
    code = "malformed-target"


class InsufficientHistory(RouteeError):
    code = "insufficient-history"


class BlockRejected(CodedError):
    """Block failed validation; `code` names the first failed check."""


class TxRejected(CodedError):
    """Transaction failed validation (codes: missing-utxo, bad-signature,
    double-spend, value-mismatch, value-overflow, mempool-conflict)."""


# --- hub core ---

class NotInitialized(RouteeError):
    code = "not-initialized"


class AlreadyInitialized(RouteeError):
    code = "already-initialized"


class InitFailure(RouteeError):
    code = "init-failure"


class AlreadyRegistered(RouteeError):
    code = "already-registered"


class UnknownUser(RouteeError):
    code = "unknown-user"


class AuthFailure(RouteeError):
    code = "auth-failure"


class HostAuthFailure(RouteeError):
    code = "host-auth-failure"


class StaleRequest(RouteeError):
    code = "stale-request"


class NotInChain(RouteeError):
    code = "not-in-chain"


class MonotonicityViolation(RouteeError):
    code = "monotonicity-violation"


class ReceiverNotReady(RouteeError):
    code = "receiver-not-ready"


class InsufficientBalance(RouteeError):
    code = "insufficient-balance"


class FeeBelowMinimum(RouteeError):
    code = "fee-below-minimum"


class FeeTooLow(RouteeError):
    code = "fee-too-low"


class NotOnTip(RouteeError):
    code = "not-on-tip"


class InvalidBlock(RouteeError):
    code = "invalid-block"


class HubTerminated(RouteeError):
    code = "hub-terminated"


class SnapshotError(RouteeError):
    code = "snapshot-error"


class ConfigError(RouteeError):
    code = "bad-config"


# --- wire / session ---

class MalformedFrame(RouteeError):
    code = "malformed-frame"


class UnknownType(RouteeError):
    code = "unknown-type"


class HandshakeFailure(RouteeError):
    code = "handshake-failure"


class SessionAborted(CodedError):
    """Session integrity violation (codes: auth-tag, seq-gap, seq-repeat,
    wrong-session)."""


class PeerError(RouteeError):
    code = "peer-error"


class ChainTooShort(RouteeError):
    code = "chain-too-short"
