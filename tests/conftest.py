"""Test-session settings: hypothesis draws the same examples on every run
(derandomized, no example database), so the suite is deterministic."""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    pass
else:
    settings.register_profile("deterministic", derandomize=True, database=None)
    settings.load_profile("deterministic")
