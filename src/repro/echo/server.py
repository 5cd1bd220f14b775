"""The minimal TCP echo server (the paper's ``d``).

Accepts stream connections and writes every received payload straight
back. Runs on a plain simulated host; Tor exit relays connect to it like
any other TCP service.
"""

from __future__ import annotations

from repro.netsim.topology import Host
from repro.netsim.transport import NetworkFabric, StreamConnection

#: Default port the echo service listens on.
DEFAULT_ECHO_PORT = 7


class EchoServer:
    """Echo every byte back to the sender."""

    #: Every payload comes straight back, unchanged, on the connection it
    #: arrived on. A probe flight (:mod:`repro.tor.client`) may therefore
    #: turn around at a connection this server owns without delivering
    #: anything, provided it sizes the reply with :meth:`segment_bytes`
    #: and calls :meth:`count_echo` for it.
    reflects_payloads = True

    def __init__(
        self, fabric: NetworkFabric, host: Host, port: int = DEFAULT_ECHO_PORT
    ) -> None:
        self.fabric = fabric
        self.host = host
        self.port = port
        self.connections_accepted = 0
        self.payloads_echoed = 0
        fabric.listen(host, port, self._accept)

    def _accept(self, conn: StreamConnection) -> None:
        self.connections_accepted += 1
        conn.owner = self
        conn.on_data = lambda payload, c=conn: self._echo(c, payload)

    def _echo(self, conn: StreamConnection, payload: bytes) -> None:
        if conn.closed:
            return
        self.count_echo()
        conn.send(payload, size_bytes=self.segment_bytes(payload))

    def count_echo(self, payloads: int = 1) -> None:
        """Account for ``payloads`` payloads sent back."""
        self.payloads_echoed += payloads

    @staticmethod
    def segment_bytes(payload: bytes) -> int:
        """Bytes on the wire for the echo of ``payload``."""
        return max(64, len(payload))

    def shutdown(self) -> None:
        """Stop accepting new connections."""
        self.fabric.stop_listening(self.host, self.port)

    @property
    def address(self) -> str:
        """The server host's IPv4 address."""
        return self.host.address

    def __repr__(self) -> str:
        return (
            f"EchoServer({self.host.name}:{self.port}, "
            f"echoed={self.payloads_echoed})"
        )
