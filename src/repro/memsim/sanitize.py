"""Runtime sanitizer mode: ``REPRO_SANITIZE=1``.

When enabled, the replay engines sweep the machine's coherence and
ordering invariants (:meth:`NumaMachine.check_invariants`) at stream
boundaries -- cheap enough to leave on in CI smoke runs, strong enough to
catch a corrupted directory or write buffer long before it would surface
as a wrong stall count.  The sweeps are read-only, so a sanitized run
produces bit-identical results to an unsanitized one; the CI smoke job
asserts exactly that.

The flag is read once at import: workers inherit it through the spawn
environment, and flipping it mid-run would make "which iterations were
checked" ambiguous.  Inside ``# repro: hot`` regions the checks hide
behind an ``if _sanitize:`` gate, which the HOT lint rules recognize and
exempt (see :mod:`repro.analysis.rules_hot`).
"""

import os

#: True when the environment opted into invariant checking.
ENABLED = os.environ.get("REPRO_SANITIZE", "") == "1"


class SanitizerError(AssertionError):
    """A machine invariant does not hold (simulator bug, not user error)."""


def enabled():
    """Whether sanitizer mode is on for this process."""
    return ENABLED
