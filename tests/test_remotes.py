import datetime
import email.utils
import json

import pytest
import requests

from t2ifuse.config import parse_config_data
from t2ifuse.embedding import DimensionMismatchError, embed_text
from t2ifuse.generation import RETRY_AFTER_MAX_S, GenerationError, GenerationParams, TransientBackendError
from t2ifuse.orchestrator import ProviderRegistry
from t2ifuse.prompting import ElaborationError
from t2ifuse.remotes import HttpChatClient, HttpEmbeddingProvider, HttpImageBackend, _retry_after_s


class FakeResponse:
    def __init__(self, status_code=200, content=b"", body=None, headers=None):
        self.status_code = status_code
        self.content = content
        self._body = body
        self.headers = {} if headers is None else headers

    def json(self):
        return self._body


class FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.requests = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.requests.append({"url": url, "json": json, "headers": headers})
        response = self.responses.pop(0)
        if isinstance(response, Exception):
            raise response
        return response


def _params():
    return GenerationParams("sdxl", steps=50, guidance_scale=8.0, width=1024, height=1024, seed=3)


def test_image_backend_request_contract(monkeypatch):
    monkeypatch.setenv("SDXL_API_KEY", "secret")
    session = FakeSession([FakeResponse(content=b"png-bytes")])
    backend = HttpImageBackend("sdxl", "https://t2i.example/v1", session=session)
    data = backend.generate("positive prompt", "negative prompt", _params())
    assert data == b"png-bytes"
    sent = session.requests[0]
    assert sent["json"] == {
        "positive": "positive prompt",
        "negative": "negative prompt",
        "steps": 50,
        "guidance": 8.0,
        "width": 1024,
        "height": 1024,
        "seed": 3,
    }
    assert sent["headers"]["Authorization"] == "Bearer secret"


def test_image_backend_missing_credential(monkeypatch):
    monkeypatch.delenv("SDXL_API_KEY", raising=False)
    backend = HttpImageBackend("sdxl", "https://t2i.example", session=FakeSession([]))
    with pytest.raises(GenerationError, match="SDXL_API_KEY"):
        backend.generate("p", "n", _params())


def test_image_backend_error_classification(monkeypatch):
    monkeypatch.setenv("SDXL_API_KEY", "k")
    session = FakeSession(
        [
            FakeResponse(status_code=503),
            FakeResponse(status_code=400),
            requests.ConnectionError("boom"),
        ]
    )
    backend = HttpImageBackend("sdxl", "https://t2i.example", session=session)
    with pytest.raises(TransientBackendError):
        backend.generate("p", "n", _params())
    with pytest.raises(GenerationError):
        backend.generate("p", "n", _params())
    with pytest.raises(TransientBackendError):
        backend.generate("p", "n", _params())


def test_embedding_provider_contract(monkeypatch):
    monkeypatch.setenv("SIGLIP_LIKE_API_KEY", "k")
    body = {"pooled": [1.0, 2.0], "tokens": [[1.0, 2.0], [3.0, 4.0]]}
    session = FakeSession([FakeResponse(body=body), FakeResponse(body=body)])
    provider = HttpEmbeddingProvider("siglip-like", "https://emb.example", session=session)
    assert provider.dim is None
    pooled, tokens = provider.encode_text("hello")
    assert provider.dim == 2
    assert pooled.tolist() == [1.0, 2.0]
    assert tokens.shape == (2, 2)
    assert session.requests[0]["json"]["kind"] == "text"

    provider.encode_image(b"\x00\x01")
    image_request = session.requests[1]["json"]
    assert image_request["kind"] == "image"
    assert image_request["content"] == "AAE="  # base64 payload


def test_chat_client_wire_format_and_retries(monkeypatch):
    monkeypatch.setenv("LLAMA_LIKE_API_KEY", "k")
    session = FakeSession(
        [FakeResponse(status_code=500), FakeResponse(body={"text": "a vivid scene"})]
    )
    sleeps = []
    client = HttpChatClient("llama-like", "https://chat.example", session=session, sleep=sleeps.append)
    assert client.complete("sys prompt", "user text") == "a vivid scene"
    assert sleeps == [0.5]
    sent = session.requests[0]["json"]
    assert sent == {
        "system": "sys prompt",
        "user": "user text",
        "model_id": "llama-like",
        "temperature": 0.0,
    }

    failing = FakeSession([FakeResponse(status_code=500)] * 3)
    client = HttpChatClient(
        "llama-like", "https://chat.example", session=failing, retries=3, sleep=sleeps.append
    )
    with pytest.raises(ElaborationError) as err:
        client.complete("s", "u")
    assert err.value.attempts == 3
    assert str(err.value) == "https://chat.example returned 500"
    assert sleeps == [0.5, 0.5, 1.0]


def test_embedding_provider_retries_a_503(monkeypatch):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")
    body = {"pooled": [1.0, 2.0, 3.0]}
    session = FakeSession([FakeResponse(status_code=503), FakeResponse(body=body)])
    sleeps = []
    provider = HttpEmbeddingProvider("siglip", "https://emb.example", session=session, sleep=sleeps.append)
    pooled, tokens = provider.encode_text("hello")
    assert pooled.tolist() == [1.0, 2.0, 3.0]
    assert tokens.shape == (1, 3)  # pooled-only responses give one token row
    assert len(session.requests) == 2
    assert sleeps == [0.5]

    failing = FakeSession([FakeResponse(status_code=503)] * 3)
    provider = HttpEmbeddingProvider("siglip", "https://emb.example", session=failing, sleep=sleeps.append)
    with pytest.raises(GenerationError, match="after 3 attempts"):
        provider.encode_text("hello")


def test_remote_encoder_from_config_learns_its_dim(monkeypatch, tmp_path, emb_cache):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")
    config = parse_config_data({
        "experiment_id": "remote",
        "dataset": {"path": "data.csv"},
        "output_dir": str(tmp_path / "run"),
        "offline": False,
        "providers": {"text": "siglip", "text_endpoint": "https://emb.example"},
    })
    provider = ProviderRegistry().resolve_text_provider(config)
    assert isinstance(provider, HttpEmbeddingProvider) and provider.dim is None

    provider.session = FakeSession([
        FakeResponse(body={"pooled": [1.0, 0.0, 2.0], "tokens": [[1.0, 0.0, 2.0]] * 2}),
        FakeResponse(body={"pooled": [1.0, 0.0]}),
    ])
    pooled, tokens = embed_text("first text", provider, emb_cache)
    assert provider.dim == 3 and pooled.shape == (3,) and tokens.shape == (2, 3)
    with pytest.raises(DimensionMismatchError, match="declared dim 3 but returned 2"):
        embed_text("second text", provider, emb_cache)


def test_registry_adapters_make_the_configured_number_of_attempts(monkeypatch, tmp_path):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")
    monkeypatch.setenv("LLAMA_API_KEY", "k")
    config = parse_config_data({
        "experiment_id": "remote",
        "dataset": {"path": "data.csv"},
        "output_dir": str(tmp_path / "run"),
        "offline": False,
        "generation": {"retries": 2},
        "providers": {"text": "siglip", "text_endpoint": "https://emb.example",
                      "image": "siglip", "image_endpoint": "https://emb.example",
                      "elaborator": "llama", "chat_endpoint": "https://chat.example"},
    })
    registry = ProviderRegistry()
    text, image = registry.resolve_text_provider(config), registry.resolve_image_provider(config)
    chat = registry.resolve_chat_client(config)
    for adapter in (text, image, chat):
        adapter.session = FakeSession([FakeResponse(status_code=500)] * 3)
        adapter.sleep = lambda seconds: None
    with pytest.raises(GenerationError, match="after 2 attempts"):
        text.encode_text("hello")
    with pytest.raises(GenerationError, match="after 2 attempts"):
        image.encode_image(b"\x00")
    with pytest.raises(ElaborationError) as err:
        chat.complete("s", "u")
    assert err.value.attempts == 2
    assert [len(adapter.session.requests) for adapter in (text, image, chat)] == [2, 2, 2]


def test_one_registry_keeps_an_adapter_for_each_endpoint_and_attempt_count(monkeypatch, tmp_path):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")
    registry = ProviderRegistry()
    adapters = []
    for endpoint, retries in (("https://a.example", 2), ("https://b.example", 5)):
        config = parse_config_data({
            "experiment_id": "remote",
            "dataset": {"path": "data.csv"},
            "output_dir": str(tmp_path / "run"),
            "offline": False,
            "generation": {"retries": retries},
            "providers": {"text": "siglip", "text_endpoint": endpoint},
        })
        adapter = registry.resolve_text_provider(config)
        assert registry.resolve_text_provider(config) is adapter  # kept
        adapter.session = FakeSession([FakeResponse(status_code=500)] * 5)
        adapter.sleep = lambda seconds: None
        adapters.append(adapter)
    for adapter, endpoint, retries in zip(adapters, ("https://a.example", "https://b.example"), (2, 5)):
        with pytest.raises(GenerationError, match=f"after {retries} attempts"):
            adapter.encode_text("hello")
        assert len(adapter.session.requests) == retries
        assert {r["url"] for r in adapter.session.requests} == {endpoint}


def _rate_limited_provider(monkeypatch, responses):
    monkeypatch.setenv("SIGLIP_API_KEY", "k")
    session = FakeSession(responses)
    sleeps = []
    provider = HttpEmbeddingProvider("siglip", "https://emb.example", session=session, sleep=sleeps.append)
    return provider, session, sleeps


def test_a_429_with_retry_after_waits_that_long_then_succeeds(monkeypatch):
    provider, session, sleeps = _rate_limited_provider(monkeypatch, [
        FakeResponse(status_code=429, headers={"Retry-After": "1"}),
        FakeResponse(body={"pooled": [1.0, 2.0]}),
    ])
    pooled, _ = provider.encode_text("hello")
    assert pooled.tolist() == [1.0, 2.0]
    assert len(session.requests) == 2
    assert sleeps == [1.0]  # the server's delay, longer than the first backoff of 0.5 s


def test_a_429_without_retry_after_backs_off(monkeypatch):
    provider, session, sleeps = _rate_limited_provider(monkeypatch, [
        FakeResponse(status_code=429),
        FakeResponse(status_code=429, headers={"Retry-After": "soon"}),  # malformed: ignored
        FakeResponse(body={"pooled": [1.0, 2.0]}),
    ])
    provider.encode_text("hello")
    assert len(session.requests) == 3
    assert sleeps == [0.5, 1.0]


def test_a_huge_retry_after_is_capped(monkeypatch):
    provider, session, sleeps = _rate_limited_provider(monkeypatch, [
        FakeResponse(status_code=503, headers={"Retry-After": "9" * 400}),  # parses to inf
        FakeResponse(status_code=429, headers={"Retry-After": "Fri, 31 Dec 9999 23:59:59 GMT"}),
        FakeResponse(body={"pooled": [1.0, 2.0]}),
    ])
    provider.encode_text("hello")
    assert len(session.requests) == 3
    assert sleeps == [RETRY_AFTER_MAX_S, RETRY_AFTER_MAX_S]


def test_any_other_4xx_fails_on_the_first_post(monkeypatch):
    provider, session, sleeps = _rate_limited_provider(monkeypatch, [FakeResponse(status_code=404)])
    with pytest.raises(GenerationError, match="rejected the request: 404") as err:
        provider.encode_text("hello")
    assert not isinstance(err.value, TransientBackendError)
    assert len(session.requests) == 1 and sleeps == []


def test_retry_after_reads_delta_seconds_and_http_dates():
    now = datetime.datetime.now(datetime.timezone.utc)
    assert _retry_after_s("120") == 120.0
    assert _retry_after_s(" 0 ") == 0.0
    assert 25 <= _retry_after_s(email.utils.format_datetime(now + datetime.timedelta(seconds=30), usegmt=True)) <= 30
    assert _retry_after_s(email.utils.format_datetime(now - datetime.timedelta(hours=1), usegmt=True)) == 0.0
    assert _retry_after_s("Sun, 06 Nov 1994 08:49:37 GMT") == 0.0  # the RFC's example date, long past
    for malformed in (None, "", "-5", "1.5", "soon", "\u00b2"):
        assert _retry_after_s(malformed) is None


def test_retry_after_reads_an_http_date_in_minus_0000_as_utc():
    later = datetime.datetime.now(datetime.timezone.utc) + datetime.timedelta(seconds=30)
    value = email.utils.format_datetime(later.replace(tzinfo=None))  # a naive time is written "-0000"
    assert value.endswith(" -0000")
    assert 25 <= _retry_after_s(value) <= 30
