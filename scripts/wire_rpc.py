"""The framed protocol for the CI smoke jobs (`.github/workflows/ci.yml`).

One frame, in either direction, is a u32 little-endian byte length and
that many bytes of JSON. Requests carry no "version" (absent means the
one version the server speaks).
"""

import json
import re
import socket
import struct


def connect(addr, timeout=None):
    """Opens a connection to `HOST:PORT`."""
    host, port = addr.rsplit(":", 1)
    return socket.create_connection((host, int(port)), timeout=timeout)


def rpc_raw(sock, obj):
    """Sends `obj` as one frame on `sock`; returns the response's bytes."""
    payload = json.dumps(obj).encode()
    sock.sendall(struct.pack("<I", len(payload)) + payload)
    hdr = b""
    while len(hdr) < 4:
        hdr += sock.recv(4 - len(hdr))
    n = struct.unpack("<I", hdr)[0]
    buf = b""
    while len(buf) < n:
        buf += sock.recv(n - len(buf))
    return buf


def rpc(sock, obj):
    """`rpc_raw`, parsed."""
    return json.loads(rpc_raw(sock, obj))


def call_raw(addr, obj):
    """One request on a connection of its own; returns the raw bytes."""
    with connect(addr, timeout=10) as sock:
        return rpc_raw(sock, obj)


def call(addr, obj):
    """`call_raw`, parsed."""
    return json.loads(call_raw(addr, obj))


def strip_timings(raw):
    """`raw` without the wall-clock `"timings"` object every ok query
    response carries, for byte comparisons."""
    return re.sub(rb',"timings":\{[^}]*\}', b"", raw, count=1)
