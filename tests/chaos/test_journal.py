"""Unit tests for the write-ahead trade journal."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.durability.journal import (
    ENTRY_KINDS,
    JOURNAL_FORMAT,
    JOURNAL_VERSION,
    JournalEntry,
    TradeJournal,
)
from repro.errors import JournalError
from tests.chaos.conftest import journal_record


class TestAppend:
    def test_ids_are_monotone_from_one(self):
        journal = TradeJournal()
        first = journal.append(**journal_record())
        second = journal.append(**journal_record(kind="replay",
                                                 epsilon_prime=0.0))
        assert first.answer_id == 1
        assert second.answer_id == 2
        assert journal.last_answer_id == 2

    def test_append_many_is_contiguous_and_ordered(self):
        journal = TradeJournal()
        entries = journal.append_many(
            [journal_record(low=float(i)) for i in range(5)]
        )
        assert [e.answer_id for e in entries] == [1, 2, 3, 4, 5]
        assert [e.low for e in journal.entries()] == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert len(journal) == 5

    def test_entries_after(self):
        journal = TradeJournal()
        journal.append_many([journal_record() for _ in range(4)])
        suffix = journal.entries_after(2)
        assert [e.answer_id for e in suffix] == [3, 4]

    def test_entry_fields_round_trip_payload(self):
        entry = JournalEntry(answer_id=7, **journal_record())
        payload = entry.to_payload()
        assert payload["format"] == JOURNAL_FORMAT
        assert payload["version"] == JOURNAL_VERSION
        assert JournalEntry.from_payload(payload) == entry


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(kind="refund"))

    def test_replay_must_carry_zero_epsilon(self):
        with pytest.raises(JournalError):
            TradeJournal().append(
                **journal_record(kind="replay", epsilon_prime=0.01)
            )

    def test_negative_price_and_epsilon_rejected(self):
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(price=-1.0))
        with pytest.raises(JournalError):
            TradeJournal().append(**journal_record(epsilon_prime=-0.01))

    def test_wrong_envelope_rejected(self):
        payload = JournalEntry(answer_id=1, **journal_record()).to_payload()
        payload["format"] = "not-a-journal"
        with pytest.raises(JournalError):
            JournalEntry.from_payload(payload)


class TestFileBacked:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record(low=float(i))
                                 for i in range(3)])
            checksum = journal.checksum()
        loaded = TradeJournal.load(path)
        assert len(loaded) == 3
        assert loaded.checksum() == checksum
        assert loaded.last_answer_id == 3

    def test_load_resumes_id_sequence(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append(**journal_record())
        loaded = TradeJournal.load(path)
        resumed = loaded.append(**journal_record())
        assert resumed.answer_id == 2
        loaded.close()

    def test_torn_tail_is_dropped(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        # Simulate a crash mid-write: a partial final line.
        with path.open("a", encoding="utf-8") as handle:
            handle.write('{"format": "repro.trade-jour')
        loaded = TradeJournal.load(path)
        assert len(loaded) == 2
        assert loaded.last_answer_id == 2

    def test_corrupt_middle_line_is_loud(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([journal_record() for _ in range(2)])
        lines = path.read_text().splitlines()
        lines[0] = "garbage {"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError):
            TradeJournal.load(path)

    def test_missing_file_loads_empty(self, tmp_path):
        loaded = TradeJournal.load(tmp_path / "never-written.jsonl")
        assert len(loaded) == 0
        assert loaded.last_answer_id == 0

    def test_lines_are_sorted_key_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append(**journal_record())
        line = path.read_text().splitlines()[0]
        payload = json.loads(line)
        assert list(payload) == sorted(payload)


class TestChecksum:
    def test_checksum_tracks_content(self):
        a, b = TradeJournal(), TradeJournal()
        a.append(**journal_record())
        b.append(**journal_record())
        assert a.checksum() == b.checksum()
        b.append(**journal_record(kind="replay", epsilon_prime=0.0))
        assert a.checksum() != b.checksum()


def _odd_record():
    """A record with awkward floats and a non-ASCII label."""
    return journal_record(
        consumer="bob", low=-1e-300, high=1 / 3, alpha=0.15, delta=0.6,
        epsilon_prime=2.5e-17, price=12345.678, store_version=0,
        label="bob:[\u00fcn\u00ef]",
    )


class TestPayloadEncoding:
    """``to_payload`` is a shallow copy; it must equal the ``asdict`` form."""

    @staticmethod
    def _asdict_payload(entry):
        payload = dataclasses.asdict(entry)
        payload["format"] = JOURNAL_FORMAT
        payload["version"] = JOURNAL_VERSION
        return payload

    @pytest.mark.parametrize("kind", ENTRY_KINDS)
    @pytest.mark.parametrize("origin", ["init", "append", "load"])
    def test_payload_equals_asdict_for_every_field(self, kind, origin,
                                                   tmp_path):
        record = journal_record(kind=kind, epsilon_prime=(
            0.02 if kind == "release" else 0.0))
        if origin == "init":
            entry = JournalEntry(answer_id=5, **record)
        elif origin == "append":
            entry = TradeJournal().append(**record)
        else:
            path = tmp_path / "journal.jsonl"
            with TradeJournal(path=path) as journal:
                journal.append(**record)
            [entry] = TradeJournal.load(path).entries()
        payload = entry.to_payload()
        expected = self._asdict_payload(entry)
        fields = {f.name for f in dataclasses.fields(JournalEntry)}
        assert set(payload) == fields | {"format", "version"}
        assert payload == expected
        for key, value in expected.items():
            assert type(payload[key]) is type(value), key
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            expected, sort_keys=True)

    def test_payload_is_a_copy(self):
        entry = JournalEntry(answer_id=1, **journal_record())
        entry.to_payload()["low"] = 99.0
        assert entry.low == 0.0
        assert "format" not in vars(entry)

    def test_checksum_and_lines_are_pinned(self, tmp_path):
        # Bytes written by the asdict-based encoder; the shallow copy
        # must reproduce them exactly.
        path = tmp_path / "journal.jsonl"
        with TradeJournal(path=path) as journal:
            journal.append_many([
                journal_record(),
                journal_record(kind="replay", epsilon_prime=0.0),
                _odd_record(),
            ])
            checksum = journal.checksum()
        assert checksum == (
            "d81a3e8db71908a9dcb6e795940d89b2195833884c1c54157b983d5be82da47d"
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[2] == (
            '{"alpha": 0.15, "answer_id": 3, "consumer": "bob", '
            '"dataset": "default", "delta": 0.6, "epsilon_prime": 2.5e-17, '
            '"format": "repro.trade-journal", "high": 0.3333333333333333, '
            '"kind": "release", "label": "bob:[\\u00fcn\\u00ef]", '
            '"low": -1e-300, "price": 12345.678, "store_version": 0, '
            '"version": 1}'
        )
