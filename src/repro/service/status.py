"""Status endpoint: line-JSON queries over the live gateway.

One request line in, one response line out.  A request is either a JSON
object ``{"q": <query>, ...}`` or, as a convenience, the bare query word.
Every response carries ``ok`` and echoes ``q``; failures carry ``error``.
The full schema -- every query and every status field -- is documented in
``docs/service.md`` and pinned by the doc tests.

Queries
-------
``ping``
    Liveness probe.
``status``
    The live service document: session registry, ingest counters, the
    memory-budget state, watermark/lag, and the online verifier's
    ``repro.stats/v1``-style snapshot (mid-run violation count included).
``violations``
    The violations detected so far (``offset``/``limit`` windowing) --
    the service surfaces bugs mid-run, not at end-of-history.
``metrics``
    The full metrics registry snapshot (counters/gauges/histograms).
``drain``
    Graceful shutdown: flush everything, finish the verifier, respond
    with the final report fingerprint and summary.
``report``
    The final report of a drained service (an error before drain).
"""

from __future__ import annotations

import json
from typing import Dict, List

KNOWN_QUERIES = ["ping", "status", "violations", "metrics", "drain", "report"]

#: Default/maximum violations returned per ``violations`` query.
VIOLATIONS_LIMIT = 100


def _sanitize(value):
    """JSON-safe floats (the watermark can sit at +/-inf)."""
    if isinstance(value, float) and (
        value != value or value in (float("inf"), float("-inf"))
    ):
        return None
    return value


def status_document(gateway) -> Dict[str, object]:
    """The ``status`` response body (schema: ``docs/service.md``)."""
    cfg = gateway.config
    snapshot = gateway.online.snapshot()
    return {
        "service": {
            "draining": gateway.draining,
            "drained": gateway.final_report is not None,
            "sessions_active": gateway.registry.active,
            "sessions_total": gateway.registry.opened,
            "clients": gateway.registry.clients,
            "frames": gateway.frames_total,
            "traces": gateway.traces_total,
            "bytes": gateway.bytes_total,
            "heartbeats": gateway.heartbeats_total,
            "errors": gateway.errors_total,
            "evictions": gateway.evictions_total,
            "credits_granted": gateway.credits_total,
            "sessions": gateway.registry.sessions_snapshot(),
            "last_errors": list(gateway.errors[-5:]),
        },
        "budget": {
            "pending_budget": cfg.pending_budget,
            "session_credit": cfg.session_credit,
            "pending": gateway.online.pending,
            "pending_peak": gateway.pending_peak,
            "inflight_capacity": gateway.inflight_capacity(),
            "stalls": gateway.stalls_total,
        },
        "lag": {
            "watermark": _sanitize(gateway.online.watermark),
            "newest": _sanitize(gateway.max_ts_seen),
            "seconds": _sanitize(gateway.watermark_lag()),
        },
        "verifier": snapshot,
    }


def violations_document(gateway, offset: int, limit: int) -> Dict[str, object]:
    violations = gateway.online.violations_so_far
    window: List[str] = [str(v) for v in violations[offset : offset + limit]]
    return {
        "total": len(violations),
        "offset": offset,
        "violations": window,
    }


async def handle_query(gateway, line: bytes) -> Dict[str, object]:
    """Dispatch one request line; never raises (errors become ``ok:
    false`` responses)."""
    text = line.decode("utf-8", errors="replace").strip()
    try:
        request = json.loads(text) if text.startswith("{") else {"q": text}
        if not isinstance(request, dict):
            raise ValueError("request must be a JSON object or a query word")
    except ValueError as exc:
        return {"ok": False, "error": f"bad request: {exc}", "known": KNOWN_QUERIES}
    q = request.get("q")

    if q == "ping":
        return {"ok": True, "q": q, "pong": True}
    if q == "status":
        return {"ok": True, "q": q, **status_document(gateway)}
    if q == "violations":
        try:
            offset = int(request.get("offset", 0))
            limit = min(int(request.get("limit", VIOLATIONS_LIMIT)), VIOLATIONS_LIMIT)
            if offset < 0 or limit < 0:
                raise ValueError("negative window")
        except (TypeError, ValueError):
            return {
                "ok": False,
                "q": q,
                "error": "offset/limit must be non-negative integers",
            }
        return {"ok": True, "q": q, **violations_document(gateway, offset, limit)}
    if q == "metrics":
        registry = gateway.metrics
        return {
            "ok": True,
            "q": q,
            "enabled": registry.enabled,
            "metrics": (
                registry.snapshot()
                if registry.enabled
                else {"counters": {}, "gauges": {}, "histograms": {}}
            ),
        }
    if q == "drain":
        report = await gateway.drain()
        return {
            "ok": True,
            "q": q,
            "report_ok": report.ok,
            "fingerprint": gateway.fingerprint,
            "violations": len(report.violations),
            "summary": report.summary(),
        }
    if q == "report":
        report = gateway.final_report
        if report is None:
            return {
                "ok": False,
                "q": q,
                "error": "no final report yet; drain the service first",
            }
        return {
            "ok": True,
            "q": q,
            "report_ok": report.ok,
            "fingerprint": gateway.fingerprint,
            "violations": len(report.violations),
            "summary": report.summary(),
        }
    return {
        "ok": False,
        "error": f"unknown query {q!r}",
        "known": KNOWN_QUERIES,
    }
