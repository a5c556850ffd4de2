"""Shared fixtures: a session-wide cache of generated hypersurfaces and
their contexts, so expensive eliminations run once per test session.

The acceptance module registers one summary line per criterion; the
``pytest_terminal_summary`` hook prints the block after the run so the
pass/fail ledger is visible regardless of output capture.
"""

from __future__ import annotations

import pytest

from nodalcert.field import FieldConfig
from nodalcert.fixtures import FixtureSpec, fermat, make_fixture
from nodalcert.milnor import JacobianContext
from nodalcert.nodal import NodalCertificate, certify_nodal

# The certified roster: six generated nodal hypersurfaces covering ambient
# dimensions 3 and 4, degrees n+1 and n+2, and node counts 1 and 2.
ROSTER = {
    "A": ("one_node", 3, 4, None, 101),
    "B": ("multi_node", 3, 4, 2, 202),
    "C": ("one_node", 3, 5, None, 303),
    "D": ("multi_node", 3, 5, 2, 404),
    "E": ("one_node", 4, 5, None, 505),
    "F": ("multi_node", 4, 5, 2, 606),
}

# Frozen invariants, established once and pinned: coincidence threshold,
# minimal nontrivial relation degree, and node count per roster entry.
EXPECTED = {
    "A": {"ct": 8, "mdr": 6, "nodes": 1},
    "B": {"ct": 7, "mdr": 5, "nodes": 2},
    "C": {"ct": 12, "mdr": 9, "nodes": 1},
    "D": {"ct": 11, "mdr": 8, "nodes": 2},
    "E": {"ct": 15, "mdr": 12, "nodes": 1},
    "F": {"ct": 14, "mdr": 11, "nodes": 2},
}


class RosterCache:
    """Builds fixtures/contexts/certificates lazily, at most once each."""

    def __init__(self) -> None:
        self._fixtures: dict[str, FixtureSpec] = {}
        self._contexts: dict[str, JacobianContext] = {}
        self._certs: dict[str, NodalCertificate] = {}

    def fixture(self, key: str) -> FixtureSpec:
        if key not in self._fixtures:
            if key == "fermat34":
                self._fixtures[key] = fermat(3, 4)
            else:
                kind, n, d, m, seed = ROSTER[key]
                self._fixtures[key] = make_fixture(kind, n, d, m=m, seed=seed)
        return self._fixtures[key]

    def ctx(self, key: str) -> JacobianContext:
        if key not in self._contexts:
            self._contexts[key] = JacobianContext(
                self.fixture(key).f, FieldConfig.prime_pair()
            )
        return self._contexts[key]

    def both_modes(self, key: str, exact_spec: FixtureSpec) -> tuple[JacobianContext, ...]:
        """The two-prime context of a roster entry and a fresh exact-mode
        context of a cheaper fixture of the same (n, d): a test looping over
        both covers every field realization."""
        return self.ctx(key), JacobianContext(exact_spec.f, FieldConfig.exact())

    def cert(self, key: str) -> NodalCertificate:
        if key not in self._certs:
            self._certs[key] = certify_nodal(self.ctx(key), self.fixture(key).points)
        return self._certs[key]

    def certified_keys(self) -> tuple[str, ...]:
        return tuple(ROSTER)


@pytest.fixture(scope="session")
def roster() -> RosterCache:
    return RosterCache()


def record_criterion(config, line: str) -> None:
    """Stash one acceptance ledger line for the terminal summary."""
    lines = getattr(config, "_acceptance_lines", None)
    if lines is None:
        lines = []
        config._acceptance_lines = lines
    lines.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = getattr(config, "_acceptance_lines", [])
    if lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
