"""The diagnostics contract, checked against a live listener.

Both ``python -m repro.service --serve`` and ``python -m repro.fleet``
serve the same HTTP front-end (:mod:`repro.telemetry.http`).  This
script checks the shared contract over real sockets::

    PYTHONPATH=src python -m tests.diagnostics_contract --port 8321

* every route answers (``/healthz`` may be 503 while degraded) and an
  unknown route is a 404 listing exactly the route table;
* every JSON body is strict (no ``NaN`` token);
* a malformed ``limit``, ``level`` or ``format`` on ``/tracez``,
  ``/logz`` and ``/statsz`` is a 400 with a JSON error body;
* ``/tracez`` and ``/logz`` return at most the default 256 items, and
  none at ``?limit=0``.

Exits 0 when every check holds; otherwise prints each failure and
exits 1.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import urllib.error
import urllib.request
from typing import List, Tuple

from repro.telemetry.http import DEFAULT_LIMIT, ROUTES

MALFORMED = ("limit=abc", "limit=-1", "limit=-2", "level=bogus", "format=xml")

#: how long to wait for the listener to answer its first request.
WAIT_S = 15.0


def fetch(base: str, path: str) -> Tuple[int, bytes]:
    try:
        with urllib.request.urlopen(base + path, timeout=30) as r:
            return r.status, r.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


def strict_json(body: bytes):
    def reject(name):
        raise ValueError(f"non-strict JSON constant {name!r}")

    return json.loads(body.decode(), parse_constant=reject)


def check(base: str) -> List[str]:
    failures: List[str] = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    for route in ROUTES:
        status, body = fetch(base, route)
        allowed = (200, 503) if route == "/healthz" else (200,)
        expect(status in allowed, f"{route} -> {status}")
        if route != "/metrics":
            try:
                strict_json(body)
            except ValueError as exc:
                failures.append(f"{route}: not strict JSON ({exc})")
    status, body = fetch(base, "/nope")
    expect(status == 404, f"/nope -> {status}")
    expect(strict_json(body).get("routes") == list(ROUTES),
           f"/nope routes: {body[:200]!r}")
    for route in ("/tracez", "/logz", "/statsz"):
        for query in MALFORMED:
            path = f"{route}?{query}"
            status, body = fetch(base, path)
            expect(status == 400, f"{path} -> {status}")
            expect("error" in strict_json(body), f"{path}: no error field")
    for route, field in (("/tracez", "spans"), ("/logz", "records")):
        items = strict_json(fetch(base, route)[1])[field]
        expect(len(items) <= DEFAULT_LIMIT,
               f"{route} returned {len(items)} {field} by default")
        items = strict_json(fetch(base, f"{route}?limit=0")[1])[field]
        expect(items == [], f"{route}?limit=0 returned {len(items)} {field}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m tests.diagnostics_contract")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    args = parser.parse_args(argv)
    base = f"http://{args.host}:{args.port}"
    deadline = time.monotonic() + WAIT_S
    while True:
        try:
            fetch(base, "/healthz")
            break
        except OSError:
            if time.monotonic() >= deadline:
                print(f"no listener at {base}")
                return 1
            time.sleep(0.2)
    failures = check(base)
    for failure in failures:
        print(f"FAIL {failure}")
    print(f"diagnostics contract at {base}: "
          f"{'ok' if not failures else f'{len(failures)} failures'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
