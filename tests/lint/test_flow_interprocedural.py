"""Acceptance tests for the interprocedural rules over the real tree.

Each test applies one of the ISSUE's seeded mutations to a HEAD source
file in memory and asserts (1) the whole-program rule fires with a full
call-chain trace and (2) the corresponding intra-procedural rule stays
blind to it -- the defect only exists across a call boundary.
"""

from __future__ import annotations

from tests.lint.conftest import REPO_ROOT, rule_ids

from repro.lint import LintEngine, default_registry
from repro.lint.flow import run_project_rules

BROKER = "src/repro/core/broker.py"
CLUSTER = "src/repro/cluster/broker.py"
STREAMING = "src/repro/streaming/broker.py"
SETTLE = "src/repro/core/settle.py"
WORKER = "src/repro/workers/worker.py"
TELEMETRY = "src/repro/serving/telemetry.py"

# ----------------------------------------------------------------------
# seeded mutations (exact anchors into the HEAD sources)
# ----------------------------------------------------------------------
MUTATION_RL001I = {
    BROKER: [
        (
            "        noise = sample_laplace_many(scales, self.rng)\n"
            "        raw_values = estimates + noise\n",
            "        raw_values = self._release_values(estimates, scales)\n",
        ),
        (
            "    def answer_batch(",
            "    def _release_values(self, raw, scales):\n"
            "        return raw\n"
            "\n"
            "    def answer_batch(",
        ),
    ]
}

#: A booking helper that charges only batches of more than one trade, so
#: every single-query ``answer`` would release uncharged.
MUTATION_RL007 = {
    BROKER: [
        (
            "            txns = self._book(consumer, records)\n",
            "            txns = self._settle_and_charge(consumer, records)\n",
        ),
        (
            "    def answer_batch(",
            "    def _settle_and_charge(self, consumer, records):\n"
            "        for record in records:\n"
            '            self.policy.settle(consumer, record["epsilon_prime"])\n'
            "        if len(records) > 1:\n"
            "            self.accountant.charge_many(\n"
            "                self.dataset,\n"
            '                [record["epsilon_prime"] for record in records],\n'
            '                [record["label"] for record in records],\n'
            "            )\n"
            "        return self.ledger.record_many(records)\n"
            "\n"
            "    def answer_batch(",
        ),
    ]
}

#: The hedged duplicate-release bug: a refactor gives the settle kernel a
#: hedge-aware booking step for the cluster that skips the accountant
#: whenever a hedge won the race -- on the (wrong) theory that the losing
#: lane already billed.  The hedge's exactly-once claim means the loser
#: never touched the books, so the hedged branch releases answers
#: uncharged.
MUTATION_RL007_HEDGE = {
    CLUSTER: [
        (
            "            txns = self._book(consumer, records)\n",
            "            txns = self._settle_and_bill(consumer, records)\n",
        ),
    ],
    SETTLE: [
        (
            "    def replay(",
            "    def _settle_and_bill(self, consumer, records):\n"
            "        for record in records:\n"
            '            self.policy.settle(consumer, record["epsilon_prime"])\n'
            "        if self.hedging is None or self.hedging.hedges_won == 0:\n"
            "            self.accountant.charge_many(\n"
            "                self.dataset,\n"
            '                [record["epsilon_prime"] for record in records],\n'
            '                [record["label"] for record in records],\n'
            "            )\n"
            "        return self.ledger.record_many(records)\n"
            "\n"
            "    def replay(",
        ),
    ],
}

#: The shared booking step charges only on one branch: every broker's
#: batch path settles through it, so all three must be flagged.
MUTATION_RL007_KERNEL = {
    SETTLE: [
        (
            "        self.accountant.charge_many(self.dataset, epsilons, labels)\n",
            "        if epsilons:\n"
            "            self.accountant.charge_many(self.dataset, epsilons, labels)\n",
        ),
    ],
}

MUTATION_RL008 = {
    WORKER: [
        (
            "        samples = reader.group_samples(group_index)\n",
            "        samples = reader.group_samples(group_index)\n"
            "        _normalise(samples)\n",
        ),
        (
            "def worker_main(",
            "def _normalise(samples):\n"
            "    for sample in samples:\n"
            "        sample.values[0] = 0.0\n"
            "\n"
            "\n"
            "def worker_main(",
        ),
    ]
}

MUTATION_RL009 = {
    TELEMETRY: [
        (
            "    def counter(self, name: str) -> Counter:\n",
            "    def sync_admission(self, consumer: str) -> None:\n"
            "        with self._lock:\n"
            "            self._admission.release(consumer, 0.0)\n"
            "\n"
            "    def counter(self, name: str) -> Counter:\n",
        ),
    ]
}


def _intra_findings(mutations, rules):
    """Intra-procedural findings for each mutated file."""
    engine = LintEngine(rules=default_registry.create(only=rules))
    out = []
    for rel, replacements in mutations.items():
        source = (REPO_ROOT / rel).read_text(encoding="utf-8")
        for old, new in replacements:
            assert old in source, f"mutation anchor not found in {rel}"
            source = source.replace(old, new, 1)
        result = engine.lint_source(source, rel.removeprefix("src/"))
        out.extend(result.findings)
    return out


# ----------------------------------------------------------------------
# the clean tree
# ----------------------------------------------------------------------
def test_head_tree_has_no_interprocedural_findings(head_contexts):
    findings, _suppressed, _project = run_project_rules(head_contexts)
    assert findings == []


# ----------------------------------------------------------------------
# (a) RL001i: Laplace deleted in a helper called by the release path
# ----------------------------------------------------------------------
def test_rl001i_taint_through_helper_return(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL001I, only=["RL001i"])
    assert [f.rule_id for f in findings] == ["RL001i", "RL001i"]
    for finding in findings:
        assert finding.path == BROKER
        assert len(finding.trace) >= 2, "expected a multi-hop call chain"
        notes = [hop.note for hop in finding.trace]
        assert any("_release_value" in note for note in notes)
        assert "taint source" in notes[-1]
        # The rendered message prints the whole chain.
        rendered = finding.render_text()
        assert rendered.count("    via ") == len(finding.trace)


def test_rl001i_mutation_is_invisible_to_intra_rl001():
    assert _intra_findings(MUTATION_RL001I, ["RL001"]) == []


# ----------------------------------------------------------------------
# (b) RL007: charge moved to a callee that only charges on one branch
# ----------------------------------------------------------------------
def test_rl007_conditional_charge_in_callee(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL007, only=["RL007"])
    assert [f.rule_id for f in findings] == ["RL007"]
    finding = findings[0]
    assert finding.path == BROKER
    assert "accountant is never charged" in finding.message
    notes = [hop.note for hop in finding.trace]
    assert any("_settle_and_charge" in note and "some of its paths" in note for note in notes)


def test_rl007_mutation_is_invisible_to_intra_rules():
    assert _intra_findings(MUTATION_RL007, ["RL001", "RL006"]) == []


# ----------------------------------------------------------------------
# (b') RL007: hedged duplicate release -- charge skipped when a hedge won
# ----------------------------------------------------------------------
def test_rl007_hedged_duplicate_release_is_caught(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL007_HEDGE, only=["RL007"])
    assert [f.rule_id for f in findings] == ["RL007"]
    finding = findings[0]
    assert finding.path == CLUSTER
    assert "accountant is never charged" in finding.message
    assert "on every path of the callee" in finding.message
    notes = [hop.note for hop in finding.trace]
    assert any(
        "_settle_and_bill" in note and "some of its paths" in note
        for note in notes
    )


def test_rl007_hedged_mutation_is_invisible_to_intra_rules():
    assert _intra_findings(MUTATION_RL007_HEDGE, ["RL001", "RL006"]) == []


# ----------------------------------------------------------------------
# (b'') RL007: the shared booking step charges on one branch only
# ----------------------------------------------------------------------
def test_rl007_conditional_kernel_charge_flags_every_broker(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL007_KERNEL, only=["RL007"])
    assert [f.rule_id for f in findings] == ["RL007"] * 3
    assert sorted(f.path for f in findings) == sorted(
        [BROKER, CLUSTER, STREAMING]
    )
    for finding in findings:
        assert ".answer_batch releases an answer" in finding.message
        assert "accountant is never charged" in finding.message
        notes = [hop.note for hop in finding.trace]
        assert any(
            "_book" in note and "some of its paths" in note for note in notes
        )


def test_rl007_kernel_mutation_is_invisible_to_intra_rules():
    assert _intra_findings(MUTATION_RL007_KERNEL, ["RL001", "RL006"]) == []


# ----------------------------------------------------------------------
# (c) RL008: helper mutates a zero-copy StoreReader view
# ----------------------------------------------------------------------
def test_rl008_view_write_through_helper(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL008, only=["RL008"])
    assert [f.rule_id for f in findings] == ["RL008"]
    finding = findings[0]
    assert finding.path == WORKER
    assert "zero-copy" in finding.message
    notes = [hop.note for hop in finding.trace]
    assert any("_normalise" in note for note in notes)
    assert any("group_samples" in note for note in notes)


# ----------------------------------------------------------------------
# (d) RL009: inverted two-lock acquisition across modules
# ----------------------------------------------------------------------
def test_rl009_lock_order_inversion_across_modules(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL009"])
    assert [f.rule_id for f in findings] == ["RL009"]
    finding = findings[0]
    assert "lock-order cycle" in finding.message
    assert "AdmissionController._lock" in finding.message
    assert "MetricsRegistry._lock" in finding.message
    # The trace walks both halves of the cycle, through both modules.
    paths = {hop.path for hop in finding.trace}
    assert paths == {
        "src/repro/serving/admission.py",
        "src/repro/serving/telemetry.py",
    }


def test_rl009_reports_each_cycle_once(mutated_project):
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL009"])
    messages = [f.message for f in findings]
    assert len(messages) == len(set(messages)) == 1


# ----------------------------------------------------------------------
# rule selection
# ----------------------------------------------------------------------
def test_project_rules_can_be_subset(mutated_project):
    # Running only RL007 over the RL009 mutation reports nothing.
    findings, _, _ = mutated_project(MUTATION_RL009, only=["RL007"])
    assert findings == []


def test_finding_fingerprints_survive_unrelated_refactors(mutated_project, head_sources):
    """Summary-hash versioning: renaming an intermediate local variable
    between source and sink leaves the fingerprint unchanged."""
    base, _, _ = mutated_project(MUTATION_RL001I, only=["RL001i"])
    renamed = {
        BROKER: MUTATION_RL001I[BROKER]
        + [
            (
                "        released = np.clip(raw_values, 0.0, float(self.base_station.n))",
                "        bounded = raw_values\n"
                "        released = np.clip(bounded, 0.0, float(self.base_station.n))",
            ),
        ]
    }
    after, _, _ = mutated_project(renamed, only=["RL001i"])
    assert {f.fingerprint for f in base} == {f.fingerprint for f in after}
