"""Exception types shared across the package."""


class SqlScoutError(Exception):
    """Base class for package errors."""


class ContractViolation(SqlScoutError):
    """An operation was called outside its documented precondition."""


class ParseError(SqlScoutError):
    """A model response could not be parsed into the expected answer."""


class TransportError(SqlScoutError):
    """The chat/embedding endpoint refused a request or could not be reached."""


class EndpointUnavailable(SqlScoutError):
    """The endpoint can answer no request: it stayed unreachable (no
    connection, HTTP 429 or 5xx) through the whole retry budget, it refused
    the API key, model or URL (HTTP 401, 403 or 404, not retried), or no
    request to it could be built (a malformed URL or API key). An outage,
    not one request it refused, so not a `TransportError`: the search's
    lost-sample handlers let it through and it ends the item at once."""


class ProtocolError(SqlScoutError):
    """The endpoint answered, but not with the expected JSON shape."""


class IngestionError(SqlScoutError):
    """A dataset or catalog file is malformed or incomplete."""


class ScriptError(SqlScoutError):
    """A scripted model received a prompt no rule matches (test setup bug)."""
