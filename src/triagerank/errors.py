"""Exception taxonomy shared across the package.

Three branches map onto the CLI exit codes: ConfigError (2), DataError (3),
BackendError (4). Anything else is an internal error (5).
"""

from __future__ import annotations


class TriageRankError(Exception):
    """Base class for all package errors.

    Extra keyword arguments are attached as attributes so callers can
    inspect structured context (e.g. ``err.line``, ``err.message_id``).
    """

    def __init__(self, message: str = "", **context: object):
        super().__init__(message)
        for key, value in context.items():
            setattr(self, key, value)


class ConfigError(TriageRankError):
    """Invalid configuration, flags, or constructor arguments."""


class DataError(TriageRankError):
    """Invalid or insufficient input data."""


class BackendError(TriageRankError):
    """A model backend (endpoint, comparator) failed or misbehaved."""


# corpus
class DuplicateId(DataError):
    """Two records share the same message id."""


class BadLabel(DataError):
    """A label token is not one of L1..L6, UNCLEAR, SUPPORTIVE_CARE."""


class EmptyMessage(DataError):
    """Message text is empty after whitespace trimming."""


class MalformedRecord(DataError):
    """A record-file line is not a valid record."""


class ExportFailed(DataError):
    """Writing a record file failed."""


# annotate
class EqualLabels(DataError):
    """A pair was built from two messages with the same urgency level."""


class TooFewMessages(DataError):
    """Sextile labeling needs at least six messages."""


# pairs
class NoValidPairs(DataError):
    """No cross-level pair can be formed from the corpus."""


class NoTriplets(DataError):
    """Triplet generation produced nothing (no valid anchors or partners)."""


class InsufficientLevel(DataError):
    """The corpus cannot supply the requested count for some level."""


# compare
class OracleNeedsLabels(DataError):
    """The noisy oracle was asked about a message it has no label for."""


class ComparisonFailed(BackendError):
    """A directed comparison failed; no partial outcome is produced."""


# prompts
class MissingBinding(DataError):
    """A prompt template placeholder was left unbound."""


# gateway
class EndpointUnavailable(BackendError):
    """All retries against the endpoint were exhausted."""


class RequestRejected(BackendError):
    """The endpoint rejected the request (HTTP 4xx)."""


class ProtocolError(BackendError):
    """The endpoint answered with a payload we cannot interpret."""


class BadScore(BackendError):
    """A scoring backend returned a non-finite or non-numeric score."""


class UnparseableLogprobs(BackendError):
    """No YES/NO probability could be extracted from the logprobs."""


class UnparseableAnswer(BackendError):
    """A free-text completion contains neither YES nor NO."""


# metrics
class MissingLabel(DataError):
    """A ranked id has no label, or a sentinel label with no relevance."""


class NoStrata(DataError):
    """No pair carries the demographics the bias scheme needs."""


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit-code contract."""
    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, DataError):
        return 3
    if isinstance(exc, BackendError):
        return 4
    return 5
