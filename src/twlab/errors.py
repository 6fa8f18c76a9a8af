from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex ids, broken invariants,
    unparseable files)."""


class GuardError(InputError):
    """Instance exceeds a size guard; lift with an explicit override."""


def require_at_most(what: str, x, ceiling: int) -> None:
    """InputError if x is above ceiling: the input ceilings are checked with
    this before anything of size x is allocated."""
    if x > ceiling:
        raise InputError(f"{what} {x} exceeds the ceiling {ceiling}")


@contextmanager
def decoding(what: str, obj):
    """Refuse a JSON boolean anywhere in obj (bool is an int subclass, so
    `true` would pass every integer check), then turn the Python errors a
    wrong-shaped JSON value raises while it is decoded (a missing key, a
    number where a list belongs, a pair of the wrong length) into
    InputError("malformed <what>: ...")."""
    stack = [obj]
    while stack:
        x = stack.pop()
        if isinstance(x, bool):
            raise InputError(f"malformed {what}: JSON {str(x).lower()} where an integer belongs")
        if isinstance(x, dict):
            stack.extend(x.values())
        elif isinstance(x, list):
            stack.extend(x)
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
