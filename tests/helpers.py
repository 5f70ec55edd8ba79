"""Reference helpers shared by the tests, written apart from the package."""


def normalize_h_index(raw):
    """A raw H subscript sequence as a strong composition, or None.

    A negative entry kills the monomial (H_a = 0 for a < 0); zeros are
    deleted (H_0 = 1).
    """
    seq = tuple(raw)
    if any(a < 0 for a in seq):
        return None
    return tuple(a for a in seq if a != 0)
