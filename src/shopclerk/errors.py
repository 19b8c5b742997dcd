"""Exception taxonomy shared across the package."""


class ClerkError(Exception):
    """Base class for all package errors."""


class UsageError(ClerkError):
    """Caller violated a documented precondition."""


class ConfigError(ClerkError):
    """Bad run configuration (unreadable or misshapen input file, conflicting backends, ...)."""


class SequencingError(ClerkError):
    """Turn appended out of order."""


class SchemaError(ClerkError):
    """Value rejected by a closed schema (unknown namespace, bad field, ...), or an order
    action that is unknown, names no order or is illegal from the order's status."""


class ProposalError(ClerkError):
    """No parseable candidate plan in the backend reply."""


class EvaluationError(ClerkError):
    """Backend never produced a usable label for plan scoring."""


class BackendError(ClerkError):
    """Chat backend failed (transport, auth, bad response shape)."""


class ScriptError(BackendError):
    """Scripted backend had no entry for a request."""


class ReplayMissError(BackendError):
    """Replay store has no recorded response for a request digest."""


class ResolutionError(ClerkError):
    """Placeholder not resolved: unknown token, failed lookup, or an asset without fixtures."""
