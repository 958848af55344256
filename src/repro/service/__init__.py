"""Online verification service: asyncio ingest gateway + status endpoint.

The package composes the existing pieces -- the ``repro.traces/v1b``
codec, the two-level pipeline's watermark protocol (:class:`~repro.core.
online.OnlineVerifier`) and the serial verifier -- into a long-running service that thousands of clients push traces into while an
operator watches live status and mid-run violations.

Wire protocol and operations guide: ``docs/service.md``.
"""

from .gateway import IngestGateway, ServiceConfig, create_gateway
from .protocol import ServiceProtocolError

__all__ = [
    "IngestGateway",
    "ServiceConfig",
    "ServiceProtocolError",
    "create_gateway",
]
