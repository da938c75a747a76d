"""Suite-wide test configuration: the hypothesis profiles.

``tier1`` is loaded by default and is derandomized: every run draws the
same examples, so the suite passes or fails for a reason, not by draw.
``explore`` draws fresh examples on every run; the fuzz CI job selects it
with ``--hypothesis-profile explore`` to keep searching for new cases
(pin any it finds with ``@example``).
"""

try:
    from hypothesis import settings
except ImportError:  # pragma: no cover - hypothesis is a dev dependency
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True)
    settings.register_profile("explore", derandomize=False)
    settings.load_profile("tier1")
