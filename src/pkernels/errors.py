"""Package-wide exception types, and the one reader of integer inputs."""

import operator


class ConventionError(RuntimeError):
    """An internal consistency check tied to a sign/orientation convention
    failed.  This never indicates bad user input: it means two parts of the
    library disagree about a convention and the result cannot be trusted."""


class ResourceLimitError(RuntimeError):
    """A configured bound (height, support, field order, orbit size) was hit."""


def integers(*values) -> tuple:
    """The values as a tuple of ints, each read by operator.index; TypeError
    on a bool or on any value that is no integer."""
    if bool in map(type, values):
        raise TypeError('booleans are not integer inputs: %r' % (values,))
    return tuple(map(operator.index, values))
