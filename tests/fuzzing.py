"""Hypothesis strategies shared by the reader fuzz tests.

Each reader test corrupts a valid input in one of three ways: it truncates
the bytes, flips a few bits, or puts a value of another type into one
field.  Only the reader's own typed error may escape.
"""

from hypothesis import strategies as st

# Values of every JSON type, plus an int too large for a float.
FIELD_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 10**12),
                         st.just(10**400), st.floats(allow_nan=True), st.text(max_size=4),
                         st.lists(st.integers(-2, 4), max_size=3),
                         st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))


def mutate(data, raw: bytes) -> bytes:
    """Truncate the bytes or flip 1-4 bits, as the draw decides."""
    raw = bytearray(raw)
    if data.draw(st.booleans()):
        return bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    for _ in range(data.draw(st.integers(1, 4))):
        raw[data.draw(st.integers(0, len(raw) - 1))] ^= 1 << data.draw(st.integers(0, 7))
    return bytes(raw)
