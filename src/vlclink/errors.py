"""Exception types shared across the simulator."""


class LengthError(ValueError):
    """Sequence length violates an operation's contract, empty input included."""


class ParameterError(ValueError):
    """A scalar parameter is outside its legal range, or a mode is not in the table."""


class SchemeError(ValueError):
    """Branch contents, or an SNR record, do not match the requested MIMO scheme."""


class RangeError(ValueError):
    """An index or window falls outside the available samples."""


class SyncNotFound(RuntimeError):
    """No preamble correlation peak exceeded the detection threshold."""


class SingularMatrix(ArithmeticError):
    """Matrix is rank deficient; typically a fully blocked channel."""


class DeadChannel(RuntimeError):
    """Combined channel gain is zero on every receive branch."""


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
