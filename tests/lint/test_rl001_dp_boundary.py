"""RL001 dp-boundary: taint tracking from count estimates to released answers."""

from __future__ import annotations

from pathlib import Path

from tests.lint.conftest import rule_ids

REPO_ROOT = Path(__file__).resolve().parents[2]

LEAKY = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        samples = self.base_station.current_samples()
        estimate = self.estimator.estimate(samples, query.low, query.high)
        released = float(estimate.estimate)
        return PrivateAnswer(
            value=released,
            raw_value=estimate.estimate,
            sample_estimate=estimate.estimate,
        )
"""

NOISED = """
class DataBroker:
    def answer(self, query, spec, consumer="anonymous"):
        samples = self.base_station.current_samples()
        estimate = self.estimator.estimate(samples, query.low, query.high)
        noise = float(sample_laplace(plan.noise_scale, self.rng))
        raw_value = estimate.estimate + noise
        released = float(min(max(raw_value, 0.0), float(self.base_station.n)))
        return PrivateAnswer(
            value=released,
            raw_value=raw_value,
            sample_estimate=estimate.estimate,
        )
"""

TAINTED_RETURN = """
class DataBroker:
    def answer_exact(self, query):
        estimate = self.estimator.estimate(samples, query.low, query.high)
        return float(estimate.estimate)
"""


def test_unperturbed_answer_is_flagged(lint_snippet):
    result = lint_snippet(LEAKY, rules=["RL001"])
    ids = rule_ids(result)
    assert ids.count("RL001") == 2  # value= and raw_value=
    assert "sample_laplace" in result.findings[0].message


def test_laplace_perturbed_answer_is_clean(lint_snippet):
    result = lint_snippet(NOISED, rules=["RL001"])
    assert rule_ids(result) == []


def test_tainted_bare_return_is_flagged(lint_snippet):
    result = lint_snippet(TAINTED_RETURN, rules=["RL001"])
    assert rule_ids(result) == ["RL001"]
    assert "returns a count-derived value" in result.findings[0].message


def test_rule_is_scoped_to_broker_modules(lint_snippet):
    # The same leak outside the broker modules (e.g. an estimator
    # returning its own estimate) is not a DP-boundary violation.
    result = lint_snippet(LEAKY, rel_path="repro/estimators/rank.py", rules=["RL001"])
    assert rule_ids(result) == []


def test_inline_suppression_is_honoured(lint_snippet):
    suppressed = LEAKY.replace(
        "value=released,",
        "value=released,  # repro-lint: disable=RL001",
    ).replace(
        "raw_value=estimate.estimate,",
        "raw_value=estimate.estimate,  # repro-lint: disable=RL001",
    )
    result = lint_snippet(suppressed, rules=["RL001"])
    assert rule_ids(result) == []
    assert result.suppressed == 2


def test_real_broker_sources_are_clean(lint_snippet):
    for rel in ("src/repro/core/broker.py", "src/repro/cluster/broker.py"):
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        result = lint_snippet(source, rel_path=rel.removeprefix("src/"), rules=["RL001"])
        assert rule_ids(result) == [], rel


def test_seeded_mutation_of_answer_batch_is_caught(lint_snippet):
    """Acceptance criterion: deleting the Laplace perturbation from a
    fixture copy of ``DataBroker.answer_batch`` produces RL001 findings."""
    source = (REPO_ROOT / "src/repro/core/broker.py").read_text(encoding="utf-8")
    mutated = source.replace(
        "noise = sample_laplace_many(scales, self.rng)",
        "noise = np.zeros_like(scales)",
    )
    assert mutated != source, "mutation target not found; fixture out of date"
    result = lint_snippet(mutated, rules=["RL001"])
    assert "RL001" in rule_ids(result)
    assert any("answer_batch" in f.message for f in result.findings)

