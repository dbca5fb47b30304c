"""Open-loop HTTP load generator with a bounded connection pool (stdlib only).

Run as its own process so its timing does not share an interpreter lock
with the server under test::

    python3 perfbench/loadgen.py SCHEDULE.json RESULTS.json

``SCHEDULE.json`` holds ``{"url": ..., "connections": N, "requests": [...]}``
where each request has ``due`` (seconds after the start), ``method``,
``path``, an optional JSON ``body`` and an optional ``id``, sent as the
``X-Request-Id`` header (default: the request's index).  Requests go out in
schedule order on at most ``connections`` keep-alive connections: a request
is sent at its due time if a connection is free, else as soon as one frees
up, so a slow server makes later requests late instead of lowering the
offered rate.  ``RESULTS.json`` receives one record per request with
``due``, ``sent`` and ``done`` on the schedule's clock and the HTTP
``status`` (0 on a connection error).
"""

from __future__ import annotations

import http.client
import json
import sys
import threading
import time
from typing import Any, Dict, List
from urllib.parse import urlsplit

#: Seconds between launching the workers and the schedule's time zero.
LEAD_SECONDS = 0.2
TIMEOUT_SECONDS = 60.0


def run_schedule(url: str, requests: List[Dict[str, Any]], connections: int) -> List[Dict[str, Any]]:
    parts = urlsplit(url)
    records: List[Dict[str, Any]] = [dict() for _ in requests]
    next_index = [0]
    lock = threading.Lock()
    start = time.perf_counter() + LEAD_SECONDS

    def worker() -> None:
        connection = http.client.HTTPConnection(parts.hostname, parts.port, timeout=TIMEOUT_SECONDS)
        try:
            while True:
                with lock:
                    index = next_index[0]
                    next_index[0] += 1
                if index >= len(requests):
                    return
                request = requests[index]
                wait = start + request["due"] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = time.perf_counter() - start
                status = 0
                headers = {"X-Request-Id": str(request.get("id", index))}
                body = request.get("body")
                if body is not None:
                    headers["Content-Type"] = "application/json"
                try:
                    connection.request(
                        request["method"],
                        request["path"],
                        body=None if body is None else body.encode("utf-8"),
                        headers=headers,
                    )
                    response = connection.getresponse()
                    response.read()
                    status = response.status
                except (OSError, http.client.HTTPException):
                    connection.close()
                    connection = http.client.HTTPConnection(
                        parts.hostname, parts.port, timeout=TIMEOUT_SECONDS
                    )
                records[index] = {
                    "due": request["due"],
                    "sent": sent,
                    "done": time.perf_counter() - start,
                    "status": status,
                }
        finally:
            connection.close()

    threads = [threading.Thread(target=worker) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return records


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print("usage: loadgen.py SCHEDULE.json RESULTS.json", file=sys.stderr)
        return 2
    with open(argv[0], encoding="utf-8") as handle:
        schedule = json.load(handle)
    records = run_schedule(schedule["url"], schedule["requests"], int(schedule["connections"]))
    with open(argv[1], "w", encoding="utf-8") as handle:
        json.dump(records, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
