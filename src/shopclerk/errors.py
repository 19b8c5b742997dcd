"""Exception taxonomy shared across the package."""


class ClerkError(Exception):
    """Base class for all package errors."""


class UsageError(ClerkError):
    """Caller violated a documented precondition."""


class ConfigError(ClerkError):
    """Bad run configuration (missing files, conflicting backends, ...)."""


class SequencingError(ClerkError):
    """Turn appended out of order."""


class SchemaError(ClerkError):
    """Value rejected by a closed schema (unknown namespace, bad field, ...)."""


class TaskLoadError(ConfigError):
    """Task file failed to read or validate; message names the offending path."""


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


class UnknownPlaceholderError(ClerkError):
    """Placeholder token not present in the session table."""


class ResolutionError(ClerkError):
    """Downstream lookup failed while resolving a placeholder."""


class AssetError(ClerkError):
    """Vision fixture has no entry for the requested asset."""


class IllegalTransitionError(ClerkError):
    """Order action not allowed from the current status."""
