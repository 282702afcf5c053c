"""The two error kinds, chosen where the error is raised.

* ConfigError: a document, config, argument or caller-supplied value was
  rejected. The CLI exits with code 2.
* NumericalError: the inputs passed their checks, but a computation cannot
  proceed (a singular operating point, an unstable family, scenarios the
  probe cannot tell apart) or an internal invariant failed. The CLI exits
  with code 3.
"""


class ShslabError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ShslabError):
    """A rejected input; `location` names the place in its document, if any."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class NumericalError(ShslabError):
    """A computation on accepted inputs cannot proceed."""
