"""Crash fingerprinting and bucketing."""

import pytest

from repro.frontend import SemaError, compile_source
from repro.robustness import (
    CrashRecord,
    crash_fingerprint,
    fingerprint_from_frames,
    record_crash,
    triage,
)
from repro.robustness.triage import MAX_FRAMES


def capture(source):
    """Compile a bad source and hand back the raised exception."""
    with pytest.raises(Exception) as info:
        compile_source(source)
    return info.value


class TestFingerprint:
    def test_includes_type_and_repro_frames(self):
        exc = capture("int main() { return bogus; }")
        fingerprint = crash_fingerprint(exc)
        assert fingerprint.startswith("SemaError|")
        assert "compile_source" in fingerprint

    def test_message_does_not_change_the_bucket(self):
        # Different undeclared identifiers -> different messages, same
        # failure path, same fingerprint.
        first = capture("int main() { return bogus; }")
        second = capture("int main() { return other_name; }")
        assert str(first) != str(second)
        assert crash_fingerprint(first) == crash_fingerprint(second)

    def test_different_failure_paths_differ(self):
        sema = capture("int main() { return bogus; }")
        parse = capture("int main( {")
        assert crash_fingerprint(sema) != crash_fingerprint(parse)

    def test_frames_outside_the_package_are_dropped(self):
        try:
            raise ValueError("raised from test code")
        except ValueError as exc:
            assert crash_fingerprint(exc) == "ValueError|"

    def test_parity_with_preextracted_frames(self):
        exc = capture("int main() { return bogus; }")
        from repro.robustness.triage import repro_frames

        frames = repro_frames(exc)
        assert fingerprint_from_frames("SemaError", frames) == crash_fingerprint(exc)

    def test_long_stacks_keep_only_the_innermost_frames(self):
        frames = [f"f{i}" for i in range(MAX_FRAMES + 4)]
        fingerprint = fingerprint_from_frames("RuntimeError", frames)
        assert "f0" not in fingerprint
        assert fingerprint.endswith(">".join(frames[-MAX_FRAMES:]))


class TestTriage:
    def records(self):
        return [
            CrashRecord("t1", "ValueError", "boom 1", "ValueError|a>b"),
            CrashRecord("t2", "ValueError", "boom 2", "ValueError|a>b"),
            CrashRecord("t3", "KeyError", "missing", "KeyError|c"),
        ]

    def test_same_fingerprint_same_bucket(self):
        report = triage(self.records())
        assert report.total_crashes == 3
        assert report.counts() == {"ValueError|a>b": 2, "KeyError|c": 1}

    def test_exemplar_is_first_observed(self):
        report = triage(self.records())
        assert report.exemplar("ValueError|a>b").task == "t1"

    def test_summary_names_count_and_exemplar(self):
        lines = report = triage(self.records()).summary_lines()
        assert any("2x" in line and "t1" in line for line in lines)

    def test_record_crash_captures_message(self):
        exc = capture("int main() { return bogus; }")
        record = record_crash("task-x", exc)
        assert record.task == "task-x"
        assert record.exc_type == "SemaError"
        assert "bogus" in record.message
        assert record.to_dict()["fingerprint"] == record.fingerprint
