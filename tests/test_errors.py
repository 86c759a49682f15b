import pickle

import pytest

from cbirkit.errors import ConfigError, EmbeddingFormatError, ParseError, StageError


@pytest.mark.parametrize("error, attributes", [
    (ParseError("a.jsonl", 3, "bad"), {"path": "a.jsonl", "line": 3}),
    (EmbeddingFormatError("truncated", "x"), {"code": "truncated"}),
    (StageError("fuse", ParseError("b.jsonl", 1, "v")), {"stage": "fuse"}),
    (ConfigError("k: out of range"), {}),
])
def test_errors_survive_pickling(error, attributes):
    # a forked loader sends its error back to the caller pickled
    copy = pickle.loads(pickle.dumps(error, protocol=5))
    assert type(copy) is type(error) and str(copy) == str(error)
    assert copy.args == error.args
    for name, value in attributes.items():
        assert getattr(copy, name) == value
    if isinstance(error, StageError):
        assert type(copy.cause) is ParseError and str(copy.cause) == str(error.cause)
        assert copy.cause.line == 1
