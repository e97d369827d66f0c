"""Chat-completions stub endpoint for the HTTP workload.

Run as its own process: python3 bench/stub.py

It serves one asyncio event loop on a socket it binds itself, so the
process runs a single thread whatever the number of connections. It
prints its port on the first line of stdout and exits when its stdin
closes or on SIGTERM.

Every completion waits the fixed service delay corpus.SERVICE_DELAY_MS,
then goes out as one write of status line, headers and body, so the
client never waits on a delayed ACK between a header segment and a body
segment. Replies are looked up, not computed: the benchmark loads a table
of precomputed sketch texts per (theory, question) with POST /load, and
the k-th request for one key since the last load gets the k-th reply.
usage.completion_tokens is counted in the stub's own subword unit, as a
real endpoint would report it, not in the client's whitespace unit.

GET /stats returns the connections and requests served; control requests
(/load, /stats) are not counted.
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from corpus import SERVICE_DELAY_MS, stub_key, subword_tokens  # noqa: E402

_CONTROL_PATHS = ("/load", "/stats")


def _key_from_prompt(prompt: str) -> str:
    """(theory, question) key from the sketch prompt's STATEMENTS and
    QUESTION sections. Any other layout yields a key that misses: the
    request gets a 404 and the run fails, rather than being served at a
    different cost."""
    _, _, rest = prompt.partition("STATEMENTS:\n")
    theory, _, rest = rest.partition("\n\nQUESTION:\n")
    question = rest.split("\n\n", 1)[0]
    return stub_key(theory, question)


class Stub:
    def __init__(self) -> None:
        self.replies: dict[str, list[str]] = {}
        self.served: dict[str, int] = {}
        self.connections = 0
        self.requests = 0
        self.unknown_prompts = 0

    def lookup(self, prompt: str) -> str | None:
        key = _key_from_prompt(prompt)
        replies = self.replies.get(key)
        if replies is None:
            return None
        index = self.served.get(key, 0)
        self.served[key] = index + 1
        return replies[min(index, len(replies) - 1)]

    def completion(self, body: bytes) -> tuple[int, bytes]:
        try:
            request = json.loads(body)
            prompt = request["messages"][-1]["content"]
        except (ValueError, KeyError, IndexError, TypeError):
            return 400, b'{"error": "malformed request"}'
        text = self.lookup(prompt)
        if text is None:
            self.unknown_prompts += 1
            return 404, b'{"error": "unknown prompt"}'
        tokens = subword_tokens(text)
        payload = {
            "object": "chat.completion",
            "choices": [{"index": 0, "finish_reason": "stop",
                         "message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": subword_tokens(prompt), "completion_tokens": tokens,
                      "total_tokens": subword_tokens(prompt) + tokens},
        }
        return 200, json.dumps(payload).encode()

    def control(self, path: str, body: bytes) -> tuple[int, bytes]:
        if path == "/load":
            self.replies = json.loads(body)
            self.served = {}
            return 200, b"{}"
        stats = {"connections": self.connections, "requests": self.requests,
                 "unknown_prompts": self.unknown_prompts}
        return 200, json.dumps(stats).encode()

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        counted = False
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                method, path, _ = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    if ":" in line:
                        name, value = line.split(":", 1)
                        headers[name.strip().lower()] = value.strip()
                body = await reader.readexactly(int(headers.get("content-length", "0")))
                path = path.split("?", 1)[0]
                if path in _CONTROL_PATHS:
                    status, data = self.control(path, body)
                else:
                    if not counted:
                        counted = True
                        self.connections += 1
                    self.requests += 1
                    await asyncio.sleep(SERVICE_DELAY_MS / 1000.0)
                    status, data = self.completion(body) if method == "POST" else (405, b"{}")
                closing = headers.get("connection", "").lower() == "close"
                reason = {200: "OK", 400: "Bad Request", 404: "Not Found"}.get(status, "Error")
                writer.write(
                    f"HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(data)}\r\n"
                    f"Connection: {'close' if closing else 'keep-alive'}\r\n\r\n".encode() + data
                )
                await writer.drain()
                if closing:
                    return
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        finally:
            writer.close()


async def serve() -> None:
    stub = Stub()
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    server = await asyncio.start_server(stub.handle, sock=sock, backlog=128)
    print(sock.getsockname()[1], flush=True)

    loop = asyncio.get_running_loop()
    stop = loop.create_future()
    loop.add_signal_handler(signal.SIGTERM, lambda: stop.done() or stop.set_result(None))
    stdin_reader = asyncio.StreamReader()
    await loop.connect_read_pipe(lambda: asyncio.StreamReaderProtocol(stdin_reader), sys.stdin)

    async def watch_stdin() -> None:
        await stdin_reader.read()
        if not stop.done():
            stop.set_result(None)

    watcher = asyncio.ensure_future(watch_stdin())
    try:
        await stop
    finally:
        watcher.cancel()
        server.close()


if __name__ == "__main__":
    asyncio.run(serve())

