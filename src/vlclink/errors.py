"""Exception types shared across the simulator, one per way of handling it.

`ParseError` and `ValidationError` are config errors (the CLI exits 2);
`ParameterError` means a caller broke a call's contract; `SyncNotFound` and
`SingularMatrix` mean one frame cannot be decoded.
"""


class ParameterError(ValueError):
    """An argument breaks the call's contract: a value out of range, a wrong
    length or shape, an index outside the samples, or a scheme mismatch.

    `field` names the attribute at fault where there is one, so a config can
    name the key that sets it.
    """

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class SyncNotFound(RuntimeError):
    """No preamble correlation peak exceeded the detection threshold."""


class SingularMatrix(ArithmeticError):
    """The channel estimate cannot be inverted for detection: ZF on a
    rank-deficient estimate, or MRC on a zero combined gain."""


class ParseError(ValueError):
    """Config text could not be parsed.  Carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ValidationError(ValueError):
    """A config key failed validation.  Carries the offending key."""

    def __init__(self, key: str, message: str = ""):
        text = f"{key}: {message}" if message else key
        super().__init__(text)
        self.key = key
