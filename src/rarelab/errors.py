"""Exceptions shared across rarelab modules."""

__all__ = ["ConfigError", "NumericalAbort"]


class ConfigError(ValueError):
    """Invalid configuration or violated precondition (CLI exit code 1)."""


class NumericalAbort(RuntimeError):
    """A run stopped itself: a CFL violation, or mass at the edge of a
    cylinder run's x1 window (CLI exit code 2).  A run whose edge mass
    reaches the pinned ends is flagged truncated, not stopped."""

    def __init__(self, reason: str, t: float, detail: str):
        self.reason = reason
        self.t = t
        self.detail = detail
        super().__init__(f"numerical abort ({reason}) at t = {t:.6g}: {detail}")
