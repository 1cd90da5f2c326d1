"""Suite-wide checks.

A solver's whole protocol is stream(a), so wrapping it covers every
function a solver gives, also the one the engine peeks to decide whether to
descend: each is re-checked against the minimality predicate while tests
run.  The predicate is TwoSetContext.minimal, so the check is independent
of the solver where the solver yields without that rule: RdfSolver
(valid_two_set, and canonical_rdf, which builds through
function_from_masks like every route) and the whole interval route, which
reads every completion off its window tables.  MrdfSolver and
CobipartiteSolver filter their candidates with TwoSetContext.minimal
itself, so there the check re-runs the solver's own filter, and only the
oracle cross-checks grade them.  The solver's own stream stays reachable
as the wrapper's __wrapped__, for a test that counts the solver's own
searches.
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

    verified.__wrapped__ = stream
    return verified


@pytest.fixture(autouse=True)
def verify_yields(monkeypatch):
    for cls in FixedTwoSolver.__subclasses__():
        monkeypatch.setattr(cls, "stream", checked(cls.stream))
