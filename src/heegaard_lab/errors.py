"""The one input-error type: bad input, not a bug in the engine."""


class InputError(ValueError):
    """The input is malformed, or names something that does not exist.
    The CLI reports it as one `input error:` line and exit code 1."""
