"""The JSON-lines control protocol ``repro serve`` speaks.

One request per line, one response per line, both JSON objects over a
Unix-domain socket.  Requests carry ``{"op": <verb>, ...}``; responses
carry ``{"ok": true, ...}`` or ``{"ok": false, "error": <message>}``.
The verb surface mirrors :class:`~repro.service.manager.MigrationManager`
one to one, so anything expressible in-process is expressible over the
wire (the mini-cloud controller shape: submit / status / pause /
resume / stop-and-copy / abort / finalize, plus watch and shutdown).

Unix socket paths are length-limited (~108 bytes); the daemon therefore
writes the path it actually bound to into ``<root>/ctl.addr`` and
clients resolve through that file, falling back to a short ``/tmp``
path when the service root itself is too deep.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile

#: every verb the daemon accepts (validated before dispatch)
VERBS = (
    "ping",
    "submit",
    "status",
    "list",
    "pause",
    "resume",
    "stop_and_copy",
    "abort",
    "finalize",
    "watch",
    "shutdown",
)

#: conservative budget under the kernel's sun_path limit
_MAX_SOCKET_PATH = 100

ADDR_FILE = "ctl.addr"


def default_socket_path(root_dir: str) -> str:
    """Where the daemon for *root_dir* should bind.

    Prefers ``<root>/ctl.sock``; when that exceeds the Unix-socket path
    limit (deep pytest tmpdirs), falls back to a short, root-derived
    path under the system temp directory.
    """
    path = os.path.join(os.path.abspath(root_dir), "ctl.sock")
    if len(path.encode()) <= _MAX_SOCKET_PATH:
        return path
    tag = hashlib.sha256(os.path.abspath(root_dir).encode()).hexdigest()[:12]
    return os.path.join(tempfile.gettempdir(), f"repro-ctl-{tag}.sock")


def write_addr(root_dir: str, socket_path: str) -> None:
    # Renamed into place: a client polling for the daemon never reads
    # a half-written (empty) path.
    path = os.path.join(root_dir, ADDR_FILE)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        fh.write(socket_path + "\n")
    os.replace(path + ".tmp", path)


def read_addr(root_dir: str) -> str:
    """The socket path a client should dial for *root_dir*."""
    addr_file = os.path.join(root_dir, ADDR_FILE)
    if os.path.exists(addr_file):
        with open(addr_file, encoding="utf-8") as fh:
            return fh.read().strip()
    return default_socket_path(root_dir)


def encode(message: dict) -> bytes:
    return (json.dumps(message, sort_keys=True) + "\n").encode("utf-8")


def decode(line: bytes) -> dict:
    try:
        message = json.loads(line.decode("utf-8"))
    except RecursionError:
        # a line under the stream limit can still nest past the parser's
        # recursion limit ("[" * 60000): refuse it like any bad JSON
        raise ValueError("JSON nested too deeply") from None
    if not isinstance(message, dict):
        raise ValueError("protocol messages must be JSON objects")
    return message


def error(message: str) -> dict:
    return {"ok": False, "error": message}


def ok(**fields) -> dict:
    response = {"ok": True}
    response.update(fields)
    return response
