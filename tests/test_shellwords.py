"""The shared command tokenizer against ``shlex.split``.

``split_command`` must be indistinguishable from ``shlex.split``: the
same tokens, and the same ``ValueError`` message for a line POSIX
rejects.  The session test pins that the back-end's own lines never
need the POSIX lexer at all.
"""

import shlex
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.shellwords import split_command
from repro.testbed.scenarios import OneLabScenario

#: Characters where ``str.split`` and ``shlex.split`` can part ways.
_TRICKY = " \t\r\n\x0b\x0c\x1f\x85\xa0\u3000'\"\\#"


def _outcome(split, line):
    try:
        return split(line)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _assert_same(line):
    assert _outcome(split_command, line) == _outcome(shlex.split, line)


@given(st.text())
@settings(max_examples=500)
def test_matches_shlex_on_arbitrary_text(line):
    _assert_same(line)


@given(
    st.lists(
        st.one_of(
            st.sampled_from(_TRICKY),
            st.text(alphabet="abc-./019", min_size=1, max_size=4),
        ),
        max_size=12,
    ).map("".join)
)
@settings(max_examples=1000)
def test_matches_shlex_on_quotes_escapes_and_odd_whitespace(line):
    _assert_same(line)


def test_every_whitespace_and_special_code_point():
    specials = [
        chr(code)
        for code in range(sys.maxunicode + 1)
        if chr(code).isspace() or chr(code) in "'\"\\#"
    ]
    assert len(specials) > 20
    for c in specials:
        _assert_same(f"a{c}b")


@pytest.mark.parametrize("line", ["'open", 'say "open', "trailing\\"])
def test_unbalanced_input_raises_the_posix_error(line):
    with pytest.raises(ValueError) as caught:
        split_command(line)
    with pytest.raises(ValueError) as expected:
        shlex.split(line)
    assert str(caught.value) == str(expected.value)


def test_paper_session_never_needs_the_posix_lexer(monkeypatch):
    """One §2.3 ``umts`` session: every command line takes the fast path."""
    scenario = OneLabScenario(seed=3)
    umts = scenario.umts_command()
    stack = scenario.napoli.stack

    def refuse(line, *args, **kwargs):
        raise AssertionError(f"shlex.split called on {line!r}")

    monkeypatch.setattr(shlex, "split", refuse)
    replies = [
        umts.start_blocking(),
        umts.add_destination_blocking("138.96.250.100"),
        umts.add_destination_blocking("143.225.229.3"),
        umts.status_blocking(),
        umts.del_destination_blocking("138.96.250.100"),
        umts.del_destination_blocking("143.225.229.3"),
        umts.stop_blocking(),
    ]
    assert [reply.ok for reply in replies] == [True] * 7, [r.text for r in replies]
    assert stack.ip.history == [
        "route add default dev ppp0 table umts",
        "rule add fwmark 0x1 lookup umts pref 100",
        "rule add from 10.199.0.2 lookup umts pref 101",
        "rule del pref 100",
        "rule del pref 101",
        "route flush table umts",
    ]
    assert stack.iptables.history == [
        "-t filter -A OUTPUT -o ppp0 -m xid ! --xid 510 -j DROP",
        "-t mangle -A OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 0x1",
        "-t mangle -A OUTPUT -m xid --xid 510 -d 143.225.229.3 -j MARK --set-mark 0x1",
        "-t mangle -D OUTPUT -m xid --xid 510 -d 138.96.250.100 -j MARK --set-mark 0x1",
        "-t mangle -D OUTPUT -m xid --xid 510 -d 143.225.229.3 -j MARK --set-mark 0x1",
        "-t filter -D OUTPUT -o ppp0 -m xid ! --xid 510 -j DROP",
    ]
