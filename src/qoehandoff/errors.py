"""Exception hierarchy shared across the package, and the guard that
decodes the package's JSON documents (models, Q-tables, reports)."""

import json


class DomainError(ValueError):
    """An input violates a documented precondition."""


class DegenerateModelError(DomainError):
    """Requested model cannot be fit (e.g. more states than the data supports)."""


class ZeroProbabilityError(DomainError):
    """An observation has zero density under every state the chain can be in
    at its step. `row` is its row in a (B, T) block (None for one sequence)
    and `observation` its index in the sequence."""

    def __init__(self, observation: int, row: int | None = None):
        where = f"observation {observation}" if row is None else \
            f"row {row}, observation {observation}"
        super().__init__(f"{where} has zero predicted probability under the model")
        self.observation = observation
        self.row = row


class DocumentError(DomainError):
    """A model, Q-table or report document is not valid JSON, lacks a key or
    holds values of the wrong kind."""


class TraceParseError(ValueError):
    """A trace file is syntactically malformed."""

    def __init__(self, message, line_number=None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class TraceValidationError(ValueError):
    """A trace file parsed but violates an invariant (units, ordering, ranges)."""


def parse_document(text: str, what: str) -> dict:
    """Decode a JSON document that must be an object, or raise DocumentError
    naming `what`."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise DocumentError(f"{what} is not a JSON object")
    return doc
