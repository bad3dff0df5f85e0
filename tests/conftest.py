from __future__ import annotations

import random
from importlib import resources

import pytest

from confmon.cli import main
from confmon.eventlog import write_log
from confmon.petri import PetriNet, bundled_model, playout

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


@pytest.fixture()
def normal_log_file(fn1, tmp_path):
    path = tmp_path / "normal.log"
    path.write_text(write_log(playout(fn1, 40, seed=1)), encoding="utf-8")
    return path


@pytest.fixture()
def cli_input_files(normal_log_file, tmp_path) -> dict:
    """One valid file of each kind the CLI reads, with the command that reads
    it: kind -> (path, argv)."""
    log = str(normal_log_file)
    model = tmp_path / "fn1.net"
    model.write_bytes((resources.files("confmon") / "models" / "fn1.net").read_bytes())
    det = tmp_path / "ft.det"
    assert main(["train", "--detector", "ft", "--model", "fn1", "--log", log,
                 "-o", str(det)]) == 0
    truth = tmp_path / "truth.log"
    truth.write_text("c1: t1 | normal\nc2: t1 | anomalous\n", encoding="utf-8")
    preds = tmp_path / "preds.csv"
    preds.write_text("case,score,prediction\nc1,0.0,normal\nc2,1.0,anomalous\n",
                     encoding="utf-8")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("model = fn1\nseeds = 0\nn_traces = 20\ndetectors = ft\n", encoding="utf-8")
    # detect prints each case id of the log
    detect = ["detect", "--detector", str(det), "--model", "fn1", "--log", log]
    return {
        "log file": (normal_log_file, detect),
        "model file": (model, ["check", "--model", str(model), "--log", log]),
        "predictions file": (preds, ["evaluate", "--preds", str(preds), "--log", str(truth)]),
        "detector file": (det, detect),
        "config": (cfg, ["experiment", "--config", str(cfg), "--outdir",
                         str(tmp_path / "out")]),
    }


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
