"""Exception hierarchy shared by all framework modules."""


class AdaptdomError(Exception):
    """Base class for every error raised by this package."""


# --- registry / naming ---

class AlreadyInitialized(AdaptdomError):
    """create_root called twice on the same registry."""


class UnknownId(AdaptdomError):
    """An ObjectId that is not registered."""


class DuplicateLocalName(AdaptdomError):
    """Local name already bound inside the target domain."""


class CycleDetected(AdaptdomError):
    """Inclusion would create a cycle among domain memberships."""


class UnknownLocalName(AdaptdomError):
    """Local name not bound inside the domain."""


class Forbidden(AdaptdomError):
    """Operation not permitted (e.g. excluding the root domain)."""


class NotFound(AdaptdomError):
    """Path resolution failed; `index` is the first unresolvable segment."""

    def __init__(self, message: str, index: int):
        super().__init__(message)
        self.index = index


class NotADomain(AdaptdomError):
    """A non-domain object was used where a domain is required.

    When raised during path resolution, `index` is the offending segment.
    """

    def __init__(self, message: str, index: int = -1):
        super().__init__(message)
        self.index = index


class BadToken(AdaptdomError):
    """A local name or token violates the token grammar."""


# --- adaptation engine ---

class NoLogicLoaded(AdaptdomError):
    """Domain has no adaptation logic bound."""


class InsufficientSamples(AdaptdomError):
    """Fewer than two distinct-time samples supplied to the forecaster."""


# --- sensing / actuation ---

class UnknownSensor(AdaptdomError):
    """Emitting object was never registered as a sensor."""


class UnknownAction(AdaptdomError):
    """Agent action token is not registered."""


class EmptyItinerary(AdaptdomError):
    """Mobile agent launched with no stops."""


# --- configuration manager ---

class InvalidTxn(AdaptdomError):
    """Transaction failed validation; `report` lists the violations."""

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class UnknownHost(AdaptdomError):
    """Fault or placement referenced a host that does not exist."""


class HostDown(AdaptdomError):
    """An action reached a host that is down."""


# --- persistence / scenarios ---

class ParseError(AdaptdomError):
    """Config or report text failed to parse; carries line number."""

    def __init__(self, message: str, line: int = 0):
        super().__init__(f"line {line}: {message}" if line else message)
        self.line = line


class ScenarioParseError(ParseError):
    """Scenario document failed to parse."""


class UnknownStage(ScenarioParseError):
    """A stage behavior token is not registered."""


class UnknownVersion(AdaptdomError):
    """Document version header is not supported."""


class DanglingReference(AdaptdomError):
    """Document referenced an undeclared object, host, or component."""


class DirtyRegistry(AdaptdomError):
    """Registry has orphaned objects and saving was not forced."""


class IoFailure(AdaptdomError):
    """Wraps an OS-level failure while reading or writing a document."""
