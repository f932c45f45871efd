"""Exception types shared across the package."""

from __future__ import annotations


class NetAuctionError(Exception):
    """Base class for all library errors."""


class ValidationError(NetAuctionError):
    """A report profile violates a type invariant.

    `buyer` is the offending buyer id, or her label when `parse_instance`
    raises it (None for profile-level problems); `reason` names the first
    violated invariant in canonical id order.
    """

    def __init__(self, buyer, reason: str):
        self.buyer = buyer
        self.reason = reason
        super().__init__(f"buyer {buyer!r}: {reason}" if buyer is not None else reason)


class ContractError(NetAuctionError):
    """A caller broke an operation precondition."""


class MuTooSmall(NetAuctionError):
    """The supplied mu is below the structural bound required by the network."""

    def __init__(self, required: int, given: int):
        self.required = required
        self.given = given
        super().__init__(f"mu={given} is below the required bound {required}")


class OverCommitted(NetAuctionError):
    """Fixed allocations exceed the unit supply of a welfare problem."""


class FixedOutsideIncluded(NetAuctionError):
    """A fixed buyer is not part of the included buyer set."""


class SearchBudgetExceeded(NetAuctionError):
    """An exhaustive check was asked to enumerate more than its budget allows."""


class TraceMissing(NetAuctionError):
    """The outcome carries no trace of the kind the caller needs."""


class ParseError(NetAuctionError):
    """Instance text is not well-formed."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"line {line}, column {column}: {message}"
        super().__init__(message)
