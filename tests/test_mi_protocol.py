"""Tests for the MI wire protocol: format/parse round trips."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.errors import ProtocolError
from repro.mi import protocol


class TestCommands:
    def test_simple_command(self):
        command = protocol.parse_command("-exec-run")
        assert command.name == "-exec-run"
        assert command.args == []
        assert command.options == {}

    def test_args_and_options(self):
        command = protocol.parse_command("-break-insert main --maxdepth 3")
        assert command.args == ["main"]
        assert command.options == {"maxdepth": "3"}
        assert command.option_int("maxdepth") == 3
        assert command.option_int("missing") is None

    def test_quoted_argument(self):
        command = protocol.parse_command('-file-exec-and-symbols "my prog.c"')
        assert command.args == ["my prog.c"]

    def test_malformed_command_raises(self):
        with pytest.raises(ProtocolError):
            protocol.parse_command("exec-run")
        with pytest.raises(ProtocolError):
            protocol.parse_command("")

    def test_option_without_value_raises(self):
        with pytest.raises(ProtocolError):
            protocol.parse_command("-break-insert main --maxdepth")

    def test_format_parse_round_trip(self):
        line = protocol.format_command(
            "-break-insert", ["file with space:3"], {"maxdepth": 2}
        )
        command = protocol.parse_command(line)
        assert command.args == ["file with space:3"]
        assert command.options == {"maxdepth": "2"}


class TestRecords:
    def test_done_without_payload(self):
        record = protocol.parse_record(protocol.format_done())
        assert record.kind == "done"
        assert record.payload is None

    def test_done_with_payload(self):
        record = protocol.parse_record(protocol.format_done({"n": 1}))
        assert record.payload == {"n": 1}

    def test_error_record(self):
        record = protocol.parse_record(protocol.format_error('bad "thing"'))
        assert record.kind == "error"
        assert record.payload == 'bad "thing"'

    def test_running_and_stopped(self):
        assert protocol.parse_record(protocol.format_running()).kind == "running"
        record = protocol.parse_record(
            protocol.format_stopped({"reason": "exited", "exitcode": 0})
        )
        assert record.kind == "stopped"
        assert record.payload["reason"] == "exited"

    def test_stream_record_preserves_newlines(self):
        record = protocol.parse_record(protocol.format_stream("a\nb\n"))
        assert record.kind == "stream"
        assert record.payload == "a\nb\n"

    def test_notify_record(self):
        record = protocol.parse_record(
            protocol.format_notify("alloc", {"size": 8})
        )
        assert record.kind == "notify"
        assert record.notify_name == "alloc"
        assert record.payload == {"size": 8}

    def test_records_are_single_lines(self):
        for line in (
            protocol.format_done({"a": "x\ny"}),
            protocol.format_stream("line1\nline2"),
            protocol.format_stopped({"reason": "end-stepping-range"}),
        ):
            assert "\n" not in line

    def test_unparsable_record_raises(self):
        with pytest.raises(ProtocolError):
            protocol.parse_record("hello world")


class TestReplyEnd:
    """One rule decides which record ends a command's reply."""

    @pytest.mark.parametrize(
        "line, exec_command, ends",
        [
            ('^error,msg="boom"', False, True),
            ('^error,msg="boom"', True, True),
            ("^done", False, True),
            ("^done", True, False),  # a stale interrupt ack mid-run
            ('*stopped,{"reason":"exited"}', True, True),
            ('*stopped,{"reason":"exited"}', False, False),
            ("^running", True, False),
            ('~"out"', True, False),
            ('=heap-alloc,{"address":16}', False, False),
            ('s1^done', False, True),
        ],
    )
    def test_ends_reply(self, line, exec_command, ends):
        record = protocol.parse_record(line)
        assert protocol.ends_reply(record, exec_command) is ends


# ---------------------------------------------------------------------------
# Property-based round trips
# ---------------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.text(max_size=20),
)
json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=10,
)


@given(json_values)
@settings(max_examples=100, deadline=None)
def test_done_payload_round_trip(payload):
    record = protocol.parse_record(protocol.format_done(payload))
    if payload is None:
        assert record.payload is None
    else:
        assert record.payload == payload


@given(st.text(max_size=100))
@settings(max_examples=100, deadline=None)
def test_stream_text_round_trip(text):
    record = protocol.parse_record(protocol.format_stream(text))
    assert record.payload == text


@given(st.text(max_size=50))
@settings(max_examples=100, deadline=None)
def test_error_message_round_trip(message):
    record = protocol.parse_record(protocol.format_error(message))
    assert record.payload == message


@given(
    st.lists(
        st.text(
            alphabet=st.characters(
                blacklist_categories=("Cc", "Cs"), blacklist_characters="\x7f"
            ),
            min_size=1,
            max_size=12,
        ),
        max_size=3,
    ),
    st.dictionaries(
        st.text(alphabet="abcdefgh", min_size=1, max_size=6),
        st.integers(min_value=0, max_value=99),
        max_size=3,
    ),
)
@settings(max_examples=100, deadline=None)
def test_command_round_trip(args, options):
    line = protocol.format_command("-test-cmd", args, options)
    command = protocol.parse_command(line)
    assert command.name == "-test-cmd"
    assert command.args == [a for a in args]
    assert command.options == {k: str(v) for k, v in options.items()}
