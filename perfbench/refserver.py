"""A minimal HTTP server that replays fixed GET responses.

    python3 perfbench/refserver.py <responses.json>

``responses.json`` maps a cell key to a file holding the exact bytes
``repro-tls serve`` answered ``GET /v1/jobs/{key}`` with. The server
answers the same requests with the same bytes, over keep-alive, and
does nothing else. serve-mixed runs it beside the real server, on the
same client load, as the yardstick for the host's speed at moving such
responses: a change to the program never changes this server's rate,
while a change in the host moves both.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path


def main(argv: list[str]) -> int:
    bodies = {key: Path(path).read_bytes()
              for key, path in json.loads(Path(argv[0]).read_text()).items()}

    async def handle(reader: asyncio.StreamReader,
                     writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                head = await reader.readuntil(b"\r\n\r\n")
                key = head.split(b" ", 2)[1].rsplit(b"/", 1)[-1].decode()
                body = bodies.get(key)
                if body is None:
                    writer.write(b"HTTP/1.1 404 Not Found\r\n"
                                 b"Content-Length: 0\r\n\r\n")
                else:
                    writer.write(b"HTTP/1.1 200 OK\r\n"
                                 b"Content-Type: application/json\r\n"
                                 b"Content-Length: %d\r\n\r\n" % len(body))
                    writer.write(body)
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()

    async def serve() -> None:
        server = await asyncio.start_server(handle, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        print(f"listening on http://127.0.0.1:{port}", flush=True)
        async with server:
            await server.serve_forever()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
