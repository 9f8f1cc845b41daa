"""Unit tests for the vsys daemon, ACLs and FIFO protocol."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.process import spawn
from repro.vsys.daemon import VsysDaemon, VsysError, VsysResult
from repro.vsys.pipes import EOF, FifoPair


def echo_handler(slice_name, argv):
    return 0, [f"{slice_name}: {' '.join(argv)}"]


def failing_handler(slice_name, argv):
    raise RuntimeError("boom")


def slow_handler(slice_name, argv):
    yield 5.0
    return 0, ["done after 5s"]


@pytest.fixture()
def sim():
    return Simulator()


@pytest.fixture()
def daemon(sim):
    d = VsysDaemon(sim, "node")
    d.register("echo", echo_handler, acl=["unina_umts"])
    d.register("fail", failing_handler, acl=["unina_umts"])
    d.register("slow", slow_handler, acl=["unina_umts"])
    return d


def test_register_duplicate_raises(daemon):
    with pytest.raises(VsysError):
        daemon.register("echo", echo_handler)


def test_open_unknown_script_raises(daemon):
    with pytest.raises(VsysError):
        daemon.open("unina_umts", "nosuch")


def test_acl_denies_unlisted_slice(daemon):
    with pytest.raises(VsysError):
        daemon.open("evil_slice", "echo")
    assert daemon.calls_denied == 1


def test_allow_then_open(daemon):
    daemon.allow("echo", "other")
    conn = daemon.open("other", "echo")
    assert conn.slice_name == "other"


def test_deny_revokes(daemon):
    daemon.deny("echo", "unina_umts")
    with pytest.raises(VsysError):
        daemon.open("unina_umts", "echo")


def test_is_allowed(daemon):
    assert daemon.is_allowed("echo", "unina_umts")
    assert not daemon.is_allowed("echo", "other")
    assert not daemon.is_allowed("nosuch", "unina_umts")


def test_call_blocking_roundtrip(daemon):
    conn = daemon.open("unina_umts", "echo")
    result = conn.call_blocking(["status", "now"])
    assert result.ok
    assert result.lines == ["unina_umts: status now"]
    assert result.text == "unina_umts: status now"


def test_handler_exception_becomes_exit_1(daemon):
    conn = daemon.open("unina_umts", "fail")
    result = conn.call_blocking(["x"])
    assert result.code == 1
    assert "boom" in result.lines[0]


def test_generator_handler_takes_simulated_time(sim, daemon):
    conn = daemon.open("unina_umts", "slow")
    result = conn.call_blocking(["go"])
    assert result.ok
    assert sim.now == pytest.approx(5.0)


def test_sequential_calls_on_one_connection(daemon):
    conn = daemon.open("unina_umts", "echo")
    first = conn.call_blocking(["one"])
    second = conn.call_blocking(["two"])
    assert first.lines == ["unina_umts: one"]
    assert second.lines == ["unina_umts: two"]


def test_concurrent_calls_rejected(sim, daemon):
    conn = daemon.open("unina_umts", "slow")
    conn.call(["first"])
    with pytest.raises(VsysError):  # same instant, before the call first runs
        conn.call(["second"])

    def second_caller():
        yield 1.0  # first call still running (takes 5s)
        with pytest.raises(VsysError):
            conn.call(["second"])

    spawn(sim, second_caller())
    sim.run()


def test_crashed_frontend_frees_the_connection(sim, daemon, monkeypatch):
    conn = daemon.open("unina_umts", "echo")

    def broken_send(line):
        raise RuntimeError("pipe broke")

    with monkeypatch.context() as patch:
        patch.setattr(conn.pipe, "send_request", broken_send)
        with pytest.raises(RuntimeError):
            conn.call_blocking(["one"])
    assert conn.call_blocking(["two"]).lines == ["unina_umts: two"]


def test_call_from_inside_process(sim, daemon):
    conn = daemon.open("unina_umts", "echo")
    results = []

    def experiment():
        result = yield conn.call(["hello"])
        results.append(result)

    spawn(sim, experiment())
    sim.run()
    assert results[0].lines == ["unina_umts: hello"]


def test_close_sends_eof_to_backend(sim, daemon):
    conn = daemon.open("unina_umts", "echo")
    conn.call_blocking(["x"])
    conn.close()
    sim.run()
    with pytest.raises(VsysError):
        conn.call(["after-close"])


def test_vsysresult_properties():
    good = VsysResult(0, ["a", "b"])
    bad = VsysResult(3, [])
    assert good.ok and not bad.ok
    assert good.text == "a\nb"


def test_fifo_pair_close_idempotent(sim):
    pipe = FifoPair(sim, "p")
    pipe.close()
    pipe.close()
    assert pipe.to_backend.get_nowait() is EOF
    with pytest.raises(IndexError):
        pipe.to_backend.get_nowait()


def test_quoting_of_arguments(daemon):
    conn = daemon.open("unina_umts", "echo")
    result = conn.call_blocking(["add", "two words"])
    assert result.lines == ["unina_umts: add two words"]


def test_connections_counter(daemon):
    daemon.open("unina_umts", "echo")
    daemon.open("unina_umts", "slow")
    assert daemon.connections_opened == 2


def test_scripts_listing(daemon):
    assert daemon.scripts() == ["echo", "fail", "slow"]


def test_two_slices_two_scripts_independent(sim, daemon):
    daemon.allow("echo", "slice-b")
    conn_a = daemon.open("unina_umts", "echo")
    conn_b = daemon.open("slice-b", "echo")
    result_a = conn_a.call_blocking(["from-a"])
    result_b = conn_b.call_blocking(["from-b"])
    assert result_a.lines == ["unina_umts: from-a"]
    assert result_b.lines == ["slice-b: from-b"]


def test_handler_returning_none_is_success(sim):
    daemon = VsysDaemon(sim)
    daemon.register("noop", lambda slice_name, argv: None, acl=["s"])
    conn = daemon.open("s", "noop")
    result = conn.call_blocking(["anything"])
    assert result.ok
    assert result.lines == []


def test_same_slice_multiple_connections_same_script(sim, daemon):
    first = daemon.open("unina_umts", "echo")
    second = daemon.open("unina_umts", "echo")
    assert first.call_blocking(["one"]).ok
    assert second.call_blocking(["two"]).ok
