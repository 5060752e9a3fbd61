"""Exact comparison of long texts that reports a mismatch at once."""

import pytest


def assert_same(got, want, name=""):
    """Fail unless `got == want`, two str or two bytes, naming the first
    offset where they differ and about 40 characters of each around it.

    pytest's explanation of a failed `==` diffs both sides whole, which
    takes minutes for a one-line SVG of a megabyte.
    """
    __tracebackhide__ = True  # report the caller's line
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b),
              min(len(got), len(want)))
    window = slice(max(at - 20, 0), at + 20)
    pytest.fail(f"first difference in {name or 'the texts'} at offset {at} "
                f"(lengths {len(got)} and {len(want)}):\n"
                f" got {got[window]!r}\nwant {want[window]!r}")
