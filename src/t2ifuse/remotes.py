"""HTTP adapters for remote generation, embedding, and chat endpoints.

All adapters speak minimal JSON contracts:

- image backend: POST {positive, negative, steps, guidance, width, height,
  seed} -> raw image bytes in the response body.
- embedding provider: POST {kind: "text"|"image", content, model_id} ->
  {"pooled": [...], "tokens": [[...], ...]}, ``model_id`` being the
  provider id.
- chat client: POST {system, user, model_id, temperature} -> {"text": "..."},
  ``model_id`` being the client id and ``temperature`` always 0.0.

Credentials come from per-adapter environment variables (never from config
files). Transport failures, 5xx and 429 responses raise
:class:`t2ifuse.generation.TransientBackendError`, carrying the delay a
``Retry-After`` header asks for; any other 4xx is permanent. Every retry goes
through :func:`t2ifuse.generation.retry_transient`, which caps that delay at
``RETRY_AFTER_MAX_S``: ``generation.generate_all`` wraps each image backend
call in it, and the embedding provider and chat client wrap their own
requests, making ``retries`` attempts (the registry passes
``generation.retries``). The image backend and the embedding provider have
no batch method, so the shared miss runner (``generation.run_misses``)
calls them once per miss, on a pool of ``generation.concurrency`` threads.
"""

from __future__ import annotations

import base64
import datetime as _dt
import email.utils
import os
import time
from typing import Any, Callable

import numpy as np
import requests

from .generation import (
    GenerationError,
    GenerationParams,
    TRANSIENT_RETRIES,
    RetriesExhaustedError,
    TransientBackendError,
    retry_transient,
)
from .prompting import ElaborationError


def _credential_env(name: str) -> str:
    return name.upper().replace("-", "_") + "_API_KEY"


def _headers(api_key_env: str) -> dict[str, str]:
    key = os.environ.get(api_key_env)
    if not key:
        raise GenerationError(f"missing credential: set ${api_key_env}")
    return {"Content-Type": "application/json", "Authorization": f"Bearer {key}"}


def _retry_after_s(value: str | None) -> float | None:
    """The wait a ``Retry-After`` header asks for, in seconds: delta-seconds or
    an HTTP-date (RFC 9110 section 10.2.3); ``None`` if absent or malformed."""
    if value is not None and value.strip().isascii() and value.strip().isdigit():
        return float(value)
    try:
        when = email.utils.parsedate_to_datetime(value)
    except ValueError:
        return None
    if when.tzinfo is None:  # "-0000": UTC, by RFC 5322
        when = when.replace(tzinfo=_dt.timezone.utc)
    return max(when.timestamp() - time.time(), 0.0)


class _HttpAdapter:
    """Endpoint, credential, timeout and session shared by the adapters."""

    def __init__(
        self,
        adapter_id: str,
        endpoint: str,
        *,
        timeout_s: float = 60.0,
        session: Any | None = None,
    ):
        self.endpoint = endpoint
        self.api_key_env = _credential_env(adapter_id)
        self.timeout_s = timeout_s
        self.session = session if session is not None else requests.Session()

    def _post(self, payload: dict):
        url = self.endpoint
        try:
            response = self.session.post(
                url, json=payload, headers=_headers(self.api_key_env), timeout=self.timeout_s
            )
        except requests.RequestException as exc:
            raise TransientBackendError(f"transport failure calling {url}: {exc}") from exc
        if response.status_code >= 500 or response.status_code == 429:
            raise TransientBackendError(f"{url} returned {response.status_code}",
                                        _retry_after_s(response.headers.get("Retry-After")))
        if response.status_code >= 400:
            raise GenerationError(f"{url} rejected the request: {response.status_code}")
        return response


class HttpImageBackend(_HttpAdapter):
    """Generic text-to-image endpoint adapter; provider specifics live in the
    endpoint URL and credential env var. It posts once: ``generate_all``
    retries it. It has no ``generate_many``, so a run calls it once per
    miss (see the module docstring)."""

    def __init__(self, backend_id: str, endpoint: str, *, timeout_s: float = 120.0, **kwargs):
        super().__init__(backend_id, endpoint, timeout_s=timeout_s, **kwargs)
        self.backend_id = backend_id

    def generate(self, positive: str, negative: str, params: GenerationParams) -> bytes:
        payload = {
            "positive": positive,
            "negative": negative,
            "steps": params.steps,
            "guidance": params.guidance_scale,
            "width": params.width,
            "height": params.height,
            "seed": params.seed,
        }
        return self._post(payload).content


class HttpEmbeddingProvider(_HttpAdapter):
    """Remote encoder for both text and image content.

    ``dim`` is ``None`` until the first response; that response's width
    becomes the dim, and :func:`t2ifuse.embedding._validate_provider_output`
    checks every later response against it.
    """

    def __init__(
        self,
        provider_id: str,
        endpoint: str,
        *,
        retries: int = TRANSIENT_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        super().__init__(provider_id, endpoint, **kwargs)
        self.provider_id = provider_id
        self.retries = retries
        self.sleep = sleep
        self.dim: int | None = None

    def _request(self, kind: str, content: str) -> tuple[np.ndarray, np.ndarray]:
        payload = {"kind": kind, "content": content, "model_id": self.provider_id}
        body = retry_transient(lambda: self._post(payload), retries=self.retries, sleep=self.sleep).json()
        pooled = np.asarray(body["pooled"], dtype=np.float32)
        tokens = np.asarray(body.get("tokens") or [body["pooled"]], dtype=np.float32)
        if self.dim is None:
            self.dim = int(pooled.shape[0])
        return pooled, tokens

    def encode_text(self, text: str) -> tuple[np.ndarray, np.ndarray]:
        return self._request("text", text)

    def encode_image(self, data: bytes) -> tuple[np.ndarray, np.ndarray]:
        return self._request("image", base64.b64encode(data).decode("ascii"))


class HttpChatClient(_HttpAdapter):
    """Chat-completion-style rewrite endpoint, asked at temperature 0 for
    reproducibility."""

    def __init__(
        self,
        client_id: str,
        endpoint: str,
        *,
        retries: int = TRANSIENT_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        super().__init__(client_id, endpoint, **kwargs)
        self.client_id = client_id
        self.retries = retries
        self.sleep = sleep

    def complete(self, system: str, user: str) -> str:
        payload = {
            "system": system,
            "user": user,
            "model_id": self.client_id,
            "temperature": 0.0,
        }
        try:
            response = retry_transient(
                lambda: self._post(payload), retries=self.retries, sleep=self.sleep
            )
        except RetriesExhaustedError as exc:
            raise ElaborationError(str(exc.__cause__), attempts=exc.attempts) from exc
        return str(response.json()["text"])
