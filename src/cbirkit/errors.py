"""Exception types shared across the package."""

from __future__ import annotations


def _restored(cls: type, args: tuple, state: dict) -> "CbirkitError":
    """An error of type `cls` with `args` and the attributes in `state`,
    made without calling its __init__."""
    error = cls.__new__(cls, *args)
    error.__dict__.update(state)
    return error


class CbirkitError(Exception):
    """Base class for all errors raised by this package."""

    def __reduce__(self):
        # a subclass's __init__ takes its parts (path, line, ...), not the
        # message that args holds, so unpickling restores args and the
        # attributes as they are rather than calling it again
        return _restored, (type(self), self.args, self.__dict__)


class ConfigError(CbirkitError):
    """Invalid parameter or pipeline configuration."""


class DataError(CbirkitError):
    """Input data violates a documented precondition (non-finite value,
    zero-norm row, dimension mismatch, misaligned id maps, ...)."""


class ParseError(DataError):
    """A text input file could not be parsed.  Carries the path and the
    1-based line number of the offending record."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class EmbeddingFormatError(DataError):
    """The binary embedding container is malformed.  ``code`` is one of
    ``bad_magic``, ``truncated``, ``count_mismatch`` or ``empty_matrix``."""

    def __init__(self, code: str, message: str):
        super().__init__(f"[{code}] {message}")
        self.code = code


class StageError(CbirkitError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
