"""Suite-wide checks.

Every fixed-2-set solver's stream re-checks each function it yields against
the minimality predicate while tests run, so any completeness test that
passes also certifies soundness of the yielded stream.
"""

import pytest

from romanenum.fixed_two import FixedTwoSolver
from romanenum.roman import is_minimal_variant


def checked(stream):
    """stream, with an assertion that every yield is a minimal function of
    the solver's variant."""

    def verified(self, a):
        for f in stream(self, a):
            assert is_minimal_variant(self.graph, f, self.variant), f
            yield f

    return verified


@pytest.fixture(autouse=True)
def verify_yields(monkeypatch):
    for cls in FixedTwoSolver.__subclasses__():
        monkeypatch.setattr(cls, "stream", checked(cls.stream))
