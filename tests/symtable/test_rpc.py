"""RPC symbol table tests: native vs RPC answers must be identical
(paper Fig. 1: the symbol table is queried 'Native' or via 'RPC'),
and the wire protocol must survive malformed peers on both sides."""

import json
import socket
import socketserver
import threading

import pytest

import repro
from repro.symtable import (
    RPCSymbolTable,
    SQLiteSymbolTable,
    SymbolTableServer,
    write_symbol_table,
)
from tests.helpers import SERVER_KINDS, TwoLeaves, line_of, start_server


@pytest.fixture()
def served():
    d = repro.compile(TwoLeaves())
    st = SQLiteSymbolTable(write_symbol_table(d))
    server = SymbolTableServer(st)
    server.start()
    client = RPCSymbolTable(*server.address)
    yield d, st, client
    client.close()
    server.stop()


class TestParity:
    def test_top_name(self, served):
        _d, st, cli = served
        assert cli.top_name() == st.top_name()

    def test_instances(self, served):
        _d, st, cli = served
        assert cli.instances() == st.instances()

    def test_all_breakpoints(self, served):
        _d, st, cli = served
        assert cli.all_breakpoints() == st.all_breakpoints()

    def test_breakpoints_at(self, served):
        d, st, cli = served
        filename, line = line_of(d, "o")
        assert cli.breakpoints_at(filename, line) == st.breakpoints_at(filename, line)

    def test_scope_variables(self, served):
        d, st, cli = served
        bp = st.all_breakpoints()[0]
        assert cli.scope_variables(bp.id) == st.scope_variables(bp.id)

    def test_resolvers(self, served):
        d, st, cli = served
        filename, line = line_of(d, "o")
        bp = st.breakpoints_at(filename, line)[0]
        assert cli.resolve_scoped_var(bp.id, "i") == st.resolve_scoped_var(bp.id, "i")
        top = st.instances()[0]
        assert cli.resolve_instance_var(top.id, "x") == st.resolve_instance_var(top.id, "x")

    def test_filenames_lines(self, served):
        _d, st, cli = served
        assert cli.filenames() == st.filenames()
        f = st.filenames()[0]
        assert cli.breakpoint_lines(f) == st.breakpoint_lines(f)


class TestProtocol:
    def test_unknown_method_errors(self, served):
        _d, _st, cli = served
        with pytest.raises(RuntimeError, match="unknown method"):
            cli._call("drop_tables")

    def test_server_side_exception_propagates(self, served):
        _d, _st, cli = served
        with pytest.raises(RuntimeError):
            cli._call("breakpoints_at")  # missing params

    def test_runtime_accepts_rpc_table(self, served):
        """The hgdb runtime works identically over an RPC symbol table."""
        from repro.core import Runtime
        from repro.sim import Simulator

        d, _st, cli = served
        sim = Simulator(d.low)
        rt = Runtime(sim, cli)
        filename, line = line_of(d, "o")
        bps = rt.add_breakpoint(filename, line)
        assert len(bps) == 2

    def test_client_context_manager(self, served):
        _d, st, _cli = served
        with SymbolTableServer(st) as server:
            with RPCSymbolTable(*server.address) as cli:
                assert cli.top_name() == st.top_name()
            # closed: further calls fail cleanly
            with pytest.raises((ConnectionError, OSError, ValueError)):
                cli.top_name()


def _fake_server(responder):
    """A one-connection TCP server answering each request line with
    ``responder(request_dict) -> response_dict`` — for injecting protocol
    violations a well-behaved SymbolTableServer never produces."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for line in self.rfile:
                resp = responder(json.loads(line))
                self.wfile.write(json.dumps(resp).encode() + b"\n")
                self.wfile.flush()

    srv = socketserver.TCPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=srv.serve_forever, daemon=True).start()
    return srv


class TestProtocolEdgeCases:
    def test_response_id_mismatch_raises(self):
        srv = _fake_server(lambda req: {"id": req["id"] + 99, "result": "Top"})
        try:
            cli = RPCSymbolTable(*srv.server_address)
            with pytest.raises(RuntimeError, match="id mismatch"):
                cli._call("attribute", "top")
            cli.close()
        finally:
            srv.shutdown()
            srv.server_close()

    def test_empty_error_string_is_still_an_error(self):
        srv = _fake_server(lambda req: {"id": req["id"], "error": ""})
        try:
            cli = RPCSymbolTable(*srv.server_address)
            with pytest.raises(RuntimeError, match="RPC error"):
                cli._call("attribute", "top")
            cli.close()
        finally:
            srv.shutdown()
            srv.server_close()

    @pytest.mark.parametrize("kind", SERVER_KINDS)
    def test_malformed_line_gets_error_response_and_connection_survives(
        self, kind
    ):
        """On every server, a request line that is not a JSON object must
        produce {"id": null, "error": ...} — not kill the handler, and not
        reuse an earlier request's id — and the connection keeps serving."""
        served = start_server(kind)
        try:
            sock = socket.create_connection(served.address, timeout=5)
            f = sock.makefile("rwb")

            def exchange(data: bytes) -> dict:
                f.write(data)
                f.flush()
                while True:
                    msg = json.loads(f.readline())
                    if "event" not in msg:  # the Sec. 3.5 welcome push
                        return msg

            resp = exchange(b"this is not json\n")
            assert resp["id"] is None
            assert resp["error"]
            # same connection still answers a valid request
            good = json.dumps({"id": 7, **served.request}).encode() + b"\n"
            assert exchange(good) == {"id": 7, "result": served.result}
            # a malformed line after it is not answered as request 7
            for bad in (b"still not json\n", b"[1, 2, 3]\n"):
                resp = exchange(bad)
                assert resp["id"] is None
                assert resp["error"]
            assert exchange(good) == {"id": 7, "result": served.result}
            sock.close()
        finally:
            served.stop()

    def test_non_object_request_gets_error_response(self, served):
        _d, st, _cli = served
        with SymbolTableServer(st) as server:
            sock = socket.create_connection(server.address, timeout=5)
            f = sock.makefile("rwb")
            f.write(b"[1, 2, 3]\n")
            f.flush()
            resp = json.loads(f.readline())
            assert resp["id"] is None
            assert "JSON object" in resp["error"]
            sock.close()

    def test_flaky_server_recovered_by_reconnect(self, served):
        """With the chaos injector delaying and dropping half of all
        responses, the hardened client must still answer every query —
        and identically to the native table."""
        from repro.faults import RPCFaultInjector

        d, st, _cli = served
        with SymbolTableServer(st) as server:
            server.faults = RPCFaultInjector(seed=1, rate=0.5, delay_s=0.02)
            cli = RPCSymbolTable(
                *server.address, timeout=5.0, max_reconnects=8,
                reconnect_backoff_s=0.01,
            )
            filename, line = line_of(d, "o")
            for _ in range(10):
                assert cli.top_name() == st.top_name()
                assert cli.instances() == st.instances()
                assert cli.breakpoints_at(filename, line) == st.breakpoints_at(
                    filename, line
                )
            cli.close()

    def test_delay_past_timeout_is_bounded(self, served):
        """Every response delayed past the per-request timeout: the
        client must give up after its reconnect budget, promptly."""
        import time as _time

        from repro.faults import RPCFaultInjector

        _d, st, _cli = served
        with SymbolTableServer(st) as server:
            server.faults = RPCFaultInjector(
                seed=0, rate=1.0, kinds=("delay",), delay_s=5.0,
            )
            cli = RPCSymbolTable(
                *server.address, timeout=0.2, max_reconnects=2,
                reconnect_backoff_s=0.01,
            )
            t0 = _time.monotonic()
            with pytest.raises(ConnectionError, match="after 2 reconnect"):
                cli.top_name()
            assert _time.monotonic() - t0 < 3
            cli.close()

    def test_total_drop_outage_exhausts_reconnects(self, served):
        from repro.faults import RPCFaultInjector

        _d, st, _cli = served
        with SymbolTableServer(st) as server:
            server.faults = RPCFaultInjector(seed=0, rate=1.0, kinds=("drop",))
            cli = RPCSymbolTable(
                *server.address, timeout=1.0, max_reconnects=2,
                reconnect_backoff_s=0.01,
            )
            with pytest.raises(ConnectionError, match="failed after"):
                cli.top_name()
            cli.close()

    def test_server_shutdown_mid_call(self):
        """The server side drops the connection before answering: the
        client must raise a ConnectionError, not hand back a bogus
        result."""

        class Handler(socketserver.StreamRequestHandler):
            def handle(self):
                self.rfile.readline()   # swallow the request, answer nothing

        srv = socketserver.TCPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=srv.serve_forever, daemon=True).start()
        try:
            cli = RPCSymbolTable(*srv.server_address)
            with pytest.raises((ConnectionError, OSError)):
                cli._call("attribute", "top")
            cli.close()
        finally:
            srv.shutdown()
            srv.server_close()
