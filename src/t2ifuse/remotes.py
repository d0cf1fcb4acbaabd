"""HTTP adapters for remote generation, embedding, and chat endpoints.

All adapters speak minimal JSON contracts:

- image backend: POST {positive, negative, steps, guidance, width, height,
  seed} -> raw image bytes in the response body.
- embedding provider: POST {kind: "text"|"image", content, model_id} ->
  {"pooled": [...], "tokens": [[...], ...]}.
- chat client: POST {system, user, model_id, temperature} -> {"text": "..."}.

Credentials come from per-adapter environment variables (never from config
files). Transport failures and 5xx responses raise
:class:`t2ifuse.generation.TransientBackendError`, and every retry goes
through :func:`t2ifuse.generation.retry_transient`: ``generate_image`` wraps
the image backend, and the embedding provider and chat client wrap their own
requests.
"""

from __future__ import annotations

import base64
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


def _headers(api_key_env: str | None) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    if api_key_env:
        key = os.environ.get(api_key_env)
        if not key:
            raise GenerationError(f"missing credential: set ${api_key_env}")
        headers["Authorization"] = f"Bearer {key}"
    return headers


class _HttpAdapter:
    """Endpoint, credential, timeout and session shared by the adapters."""

    def __init__(
        self,
        adapter_id: str,
        endpoint: str,
        *,
        api_key_env: str | None = None,
        timeout_s: float = 60.0,
        session: Any | None = None,
    ):
        self.endpoint = endpoint
        self.api_key_env = api_key_env if api_key_env is not None else _credential_env(adapter_id)
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
        if response.status_code >= 500:
            raise TransientBackendError(f"{url} returned {response.status_code}")
        if response.status_code >= 400:
            raise GenerationError(f"{url} rejected the request: {response.status_code}")
        return response


class HttpImageBackend(_HttpAdapter):
    """Generic text-to-image endpoint adapter; provider specifics live in the
    endpoint URL and credential env var. It posts once: ``generate_image``
    retries it."""

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
        model_id: str | None = None,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        super().__init__(provider_id, endpoint, **kwargs)
        self.provider_id = provider_id
        self.model_id = model_id or provider_id
        self.sleep = sleep
        self.dim: int | None = None

    def _request(self, kind: str, content: str) -> tuple[np.ndarray, np.ndarray]:
        payload = {"kind": kind, "content": content, "model_id": self.model_id}
        body = retry_transient(lambda: self._post(payload), sleep=self.sleep).json()
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
    """Chat-completion-style rewrite endpoint; temperature defaults to 0 for
    reproducibility."""

    def __init__(
        self,
        client_id: str,
        endpoint: str,
        *,
        model_id: str | None = None,
        temperature: float = 0.0,
        retries: int = TRANSIENT_RETRIES,
        sleep: Callable[[float], None] = time.sleep,
        **kwargs,
    ):
        super().__init__(client_id, endpoint, **kwargs)
        self.client_id = client_id
        self.model_id = model_id or client_id
        self.temperature = temperature
        self.retries = retries
        self.sleep = sleep

    def complete(self, system: str, user: str) -> str:
        payload = {
            "system": system,
            "user": user,
            "model_id": self.model_id,
            "temperature": self.temperature,
        }
        try:
            response = retry_transient(
                lambda: self._post(payload), retries=self.retries, sleep=self.sleep
            )
        except RetriesExhaustedError as exc:
            raise ElaborationError(str(exc.__cause__), attempts=exc.attempts) from exc
        return str(response.json()["text"])
