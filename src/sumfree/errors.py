"""The failure policy: every error the package raises on purpose, with the
exit code the CLI gives it, and the memory budget of the size checks.

A Python exception outside this hierarchy is a bug and keeps its traceback.
"""

# Bytes one computation may allocate; a larger input raises
# ResourceLimitError before its large allocation.
MEMORY_BUDGET = 2**32


class SumfreeError(Exception):
    """Base class; `exit_code` is the CLI's exit status for the error."""

    exit_code = 1


class InputError(SumfreeError, ValueError):
    """An input or a parameter outside its documented range."""

    exit_code = 2


class ResourceLimitError(SumfreeError, RuntimeError):
    """The size or magnitude of the input set exceeds a stated limit."""

    exit_code = 3


class CertificationError(SumfreeError, RuntimeError):
    """A computed certificate failed its re-verification."""

    exit_code = 1


def magnitude(n: int) -> str:
    """n >= 1 as '10^e', 10^e <= n < 10^(e+1), without str(n) (refused past 4300 digits)."""
    e = (n.bit_length() - 1) * 30102999 // 10**8  # 0.30102999 < log10(2)
    while 10 ** (e + 1) <= n:
        e += 1
    return f"10^{e}"
