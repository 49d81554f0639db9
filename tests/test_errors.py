"""The exception types: five classes, each with one handler.

`ParseError` and `ValidationError` are config errors, `ParameterError` is a
broken call contract, and `SyncNotFound` and `SingularMatrix` are the only
errors that mean one frame is lost.  Every `raise` in the package names one
of them, so a caller that handles those five handles everything it raises;
the one other `raise` is `_map_tasks`' re-raise of a sweep task's own
exception, which the package did not originate.
A channel that cannot carry two streams is not a lost frame: `stream_snrs`
reads it as no SM SNRs, and is the one place that catches `SingularMatrix`.
"""

import ast
import inspect
from pathlib import Path

import vlclink
from vlclink import errors

FIVE = {"ParameterError", "ParseError", "ValidationError", "SyncNotFound", "SingularMatrix"}
RERAISE = ("scenario.py", "failures[min(failures)]")   # `_map_tasks`: the first failed task's exception
SRC = Path(vlclink.__file__).resolve().parent


def raised_names(path: Path) -> list[tuple[int, str]]:
    """(line, name) of every `raise` in `path` that names an exception;
    a bare re-raise names none."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            found.append((node.lineno, exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)))
    return found


def test_errors_defines_exactly_the_five_classes():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException) and obj.__module__ == errors.__name__
    }
    assert defined == FIVE


def test_every_raise_names_one_of_the_five():
    raises = {path.name: raised_names(path) for path in sorted(SRC.glob("*.py"))}
    assert sum(len(found) for found in raises.values()) > 50
    stray = [(name, exc) for name, found in raises.items() for _, exc in found if exc not in FIVE]
    assert stray == [RERAISE]


def singular_matrix_handlers(path: Path) -> list[str]:
    """The function around each `except` clause in `path` that catches
    `SingularMatrix`, alone or in a tuple."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.ExceptHandler) and child.type is not None:
                types = child.type.elts if isinstance(child.type, ast.Tuple) else [child.type]
                if any(ast.unparse(t).split(".")[-1] == "SingularMatrix" for t in types):
                    found.append(function)
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_stream_snrs_catches_singular_matrix():
    handlers = {path.name: singular_matrix_handlers(path) for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in handlers.items() if found} == {"receiver.py": ["stream_snrs"]}
