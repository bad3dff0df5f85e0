from __future__ import annotations

import random

import pytest

from confmon.petri import PetriNet, bundled_model

# Verdicts recorded by tests/test_acceptance.py, echoed after the run so the
# per-criterion lines survive pytest's output capture.
ACCEPTANCE_RESULTS: list[tuple[int, bool, str]] = []


def record_acceptance(number: int, ok: bool, detail: str = "") -> None:
    ACCEPTANCE_RESULTS.append((number, ok, detail))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, ok, detail in sorted(ACCEPTANCE_RESULTS):
        line = f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture
def enabled_calls(monkeypatch) -> list:
    """Grows by one entry per call of petri.enabled during the test."""
    import confmon.petri

    calls = []
    real = confmon.petri.enabled
    monkeypatch.setattr(confmon.petri, "enabled",
                        lambda net, marking: calls.append(1) or real(net, marking))
    return calls


@pytest.fixture(scope="session")
def fn1() -> PetriNet:
    return bundled_model("fn1")


@pytest.fixture(scope="session")
def som() -> PetriNet:
    return bundled_model("som")


class _NetBuilder:
    """Grows a structured workflow net block by block; every generated net is
    sound by construction (sequence, exclusive choice, parallel split/join)."""

    def __init__(self):
        self.places = ["source", "sink"]
        self.transitions = []
        self.labels = {}
        self.arcs = []
        self._acts = 0
        self._silents = 0

    def place(self) -> str:
        p = f"q{len(self.places)}"
        self.places.append(p)
        return p

    def visible(self, pin: str, pout: str) -> None:
        self._acts += 1
        t = f"v{self._acts}"
        self.transitions.append(t)
        self.labels[t] = f"a{self._acts}"
        self.arcs += [(pin, t), (t, pout)]

    def silent(self, pins, pouts) -> None:
        self._silents += 1
        t = f"s{self._silents}"
        self.transitions.append(t)
        self.labels[t] = None
        self.arcs += [(p, t) for p in pins] + [(t, p) for p in pouts]

    def block(self, rng: random.Random, pin: str, pout: str, budget: int) -> None:
        kind = rng.choice(["atom", "seq", "xor", "and"]) if budget > 1 else "atom"
        if kind == "atom":
            self.visible(pin, pout)
        elif kind == "seq":
            mid = self.place()
            self.block(rng, pin, mid, budget // 2)
            self.block(rng, mid, pout, budget - budget // 2)
        elif kind == "xor":
            self.block(rng, pin, pout, budget // 2)
            self.block(rng, pin, pout, budget - budget // 2)
        else:
            q1, q2, r1, r2 = (self.place() for _ in range(4))
            self.silent([pin], [q1, q2])
            self.block(rng, q1, r1, budget // 2)
            self.block(rng, q2, r2, budget - budget // 2)
            self.silent([r1, r2], [pout])

    def build(self, name: str) -> PetriNet:
        return PetriNet(self.places, self.transitions, self.arcs,
                        {"source": 1}, {"sink": 1}, self.labels, name=name)


def random_workflow_net(seed: int, budget: int = 4) -> PetriNet:
    """Deterministic structured random workflow net with a handful of visible
    activities named a1, a2, ..."""
    rng = random.Random(seed)
    builder = _NetBuilder()
    builder.block(rng, "source", "sink", budget)
    return builder.build(f"rand{seed}")
