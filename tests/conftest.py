"""Hypothesis profiles.

``ci-long`` runs a property 2,000 times on a fixed (derandomised) example
sequence: ``pytest --hypothesis-profile=ci-long <files>``.  A property that
should grow under it sets ``max_examples=max(N, settings.default.max_examples)``
— ``N`` in the default profile, the profile's count when it is loaded.
"""

from hypothesis import settings

settings.register_profile("ci-long", max_examples=2000, derandomize=True)
