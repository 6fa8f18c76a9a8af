from contextlib import contextmanager


class InputError(ValueError):
    """Malformed or out-of-contract input (bad vertex ids, broken invariants,
    unparseable files)."""


class GuardError(InputError):
    """Instance exceeds a size guard; lift with an explicit override."""


@contextmanager
def decoding(what: str):
    """Turn the Python errors a wrong-shaped JSON value raises while it is
    decoded (a missing key, a number where a list belongs, a pair of the
    wrong length) into InputError("malformed <what>: ...")."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise InputError(f"malformed {what}: {exc}") from exc
