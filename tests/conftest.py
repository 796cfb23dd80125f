import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

# 13 conjoined copies of a disjunction: a trigger for Stage1.fwd of
# relay.apml whose DNF has 8,192 disjuncts, twice the default budget
FOLD13 = " /\\ ".join(["([i = x] \\/ [i = x])"] * 13)

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


@pytest.fixture
def enumerations(monkeypatch):
    """One entry per ``Congruence.representatives`` call without a term,
    the matcher's walk over every class, made while the test runs."""
    from apml.entailment import Congruence
    calls = []
    real = Congruence.representatives

    def counting(self, term=None):
        if term is None:
            calls.append(None)
        return real(self, term)

    monkeypatch.setattr(Congruence, "representatives", counting)
    return calls


def all_findings(verdict):
    """Every finding of a verdict: a proof's steps' in order, then its own."""
    return tuple(f for s in getattr(verdict, "steps", ())
                 for f in s.findings) + verdict.findings


def load(name):
    from apml.parser import parse_model
    path = CORPUS / name
    return parse_model(path.read_text(), str(path.relative_to(ROOT)))
