"""Exception types shared across the package."""


class SqlScoutError(Exception):
    """Base class for package errors."""


class ContractViolation(SqlScoutError):
    """An operation was called outside its documented precondition."""


class ParseError(SqlScoutError):
    """A model response could not be parsed into the expected answer."""


class TransportError(SqlScoutError):
    """The chat/embedding endpoint refused a request or could not be reached."""


class EndpointUnavailable(TransportError):
    """The endpoint stayed unreachable (no connection, HTTP 429 or 5xx)
    through the whole retry budget: an outage, not a request it refused."""


class ProtocolError(SqlScoutError):
    """The endpoint answered, but not with the expected JSON shape."""


class IngestionError(SqlScoutError):
    """A dataset or catalog file is malformed or incomplete."""


class ScriptError(SqlScoutError):
    """A scripted model received a prompt no rule matches (test setup bug)."""
