"""Which instance serves each provider name a config gives.

:class:`ProviderRegistry` resolves image backends, text and image encoders,
chat clients and retrieval corpora by one rule; ``remotes``, and with it
``requests``, is imported only when a name resolves to a remote adapter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .config import ExperimentConfig
from .corpus import row_text, rows_from_jsonl
from .embedding import HashProjectionProvider
from .generation import StubImageBackend
from .prompting import STRIP_CHARS, StubChatClient
from .storage import sha256_hex


class OrchestrationError(RuntimeError):
    pass


class OfflineViolationError(OrchestrationError):
    pass


class KeywordOverlapRetriever:
    """Top-1 retrieval over a local corpus by content-word overlap.

    Stands in for live encyclopedia lookups: documents are a record-per-line
    file with ``text`` (and optional ``id``/``title``) fields, read as
    :func:`corpus.load_dataset` reads ``record_lines``: a line that is not an
    object, or whose ``text`` is missing or blank, is a ``DatasetError``
    naming its row. The best match is the document sharing the most query
    words, ties going to file order.
    Each document's word set is built once, when the corpus is loaded, its
    words stripped of the punctuation ``extract_keywords`` strips from a query.
    """

    def __init__(self, corpus_path: str | Path):
        path = Path(corpus_path)
        self.documents = [row_text(path, row_no, row) for row_no, row in rows_from_jsonl(path)]
        if not self.documents:
            raise OrchestrationError(f"empty retrieval corpus: {corpus_path}")
        self._words = [frozenset(w.strip(STRIP_CHARS).lower() for w in doc.split()) for doc in self.documents]

    def retrieve(self, keywords: Sequence[str]) -> str | None:
        terms = {w.lower() for phrase in keywords for w in phrase.split()}
        best_score = 0
        best_doc = None
        for doc, words in zip(self.documents, self._words):
            score = len(terms & words)
            if score > best_score:
                best_score = score
                best_doc = doc
        return best_doc


def _hash_fixture(name: str):
    return HashProjectionProvider(name, int(name[5:])) if name.startswith("hash-") else None


# kind -> (registry table, fixture the name selects, remote adapter in
# ``remotes``, offline default or None)
_PROVIDER_KINDS = {
    "backend": ("backends", lambda name: StubImageBackend() if name == "stub" else None,
                "HttpImageBackend", StubImageBackend),
    "text provider": ("text_providers", _hash_fixture, "HttpEmbeddingProvider", None),
    "image provider": ("image_providers", _hash_fixture, "HttpEmbeddingProvider", None),
    "chat client": ("chat_clients", lambda name: StubChatClient() if name == "stub-chat" else None,
                    "HttpChatClient", lambda name: StubChatClient(client_id=name)),
}


@dataclass
class ProviderRegistry:
    """Named provider instances, resolved by one rule for every kind.

    A name resolves, in this order, to:

    1. the instance registered under it;
    2. the fixture the name selects: ``hash-<dim>`` for encoders, ``stub``
       for the image backend, ``stub-chat`` for the chat client;
    3. the remote adapter, when the config names an endpoint for that kind
       (an offline run raises :class:`OfflineViolationError` instead); the
       encoder and chat adapters make ``generation.retries`` attempts per
       request, as ``generate_all`` does per image;
    4. the offline default, when no endpoint is configured: the stub backend
       or stub chat client under that name; an encoder has none, so an
       unknown encoder is an error.

    Built instances are kept, so their call counters survive resume tests
    that hand the same registry to several runs. Each is kept under the
    arguments it was built from: a fixture or an offline default under its
    name, a remote adapter under its name, endpoint and adapter arguments.
    """

    backends: dict = field(default_factory=dict)
    text_providers: dict = field(default_factory=dict)
    image_providers: dict = field(default_factory=dict)
    chat_clients: dict = field(default_factory=dict)
    retrievers: dict = field(default_factory=dict)
    _defaults: set = field(default_factory=set, init=False, repr=False)  # (table, name) of each default built

    def _resolve(self, kind: str, name: str, endpoint: str | None, offline: bool, **adapter_kwargs):
        table_name, fixture, adapter, default = _PROVIDER_KINDS[kind]
        table = getattr(self, table_name)
        if name in table and not (endpoint and (table_name, name) in self._defaults):
            return table[name]
        instance = fixture(name)
        if instance is None and endpoint:
            if offline:
                raise OfflineViolationError(f"offline run cannot call remote {kind} {name!r}")
            key = (name, endpoint, *sorted(adapter_kwargs.items()))
            if key not in table:
                from . import remotes  # imports requests; only remote runs pay for it

                table[key] = getattr(remotes, adapter)(name, endpoint, **adapter_kwargs)
            return table[key]
        if instance is None:
            if default is None:
                raise OrchestrationError(
                    f"unknown {kind} {name!r} (register it, use hash-<dim>, or configure an endpoint)"
                )
            instance = default(name)
            self._defaults.add((table_name, name))
        table[name] = instance
        return instance

    def resolve_backend(self, config: ExperimentConfig):
        gen = config.generation
        if gen.backend is None:
            raise OrchestrationError("no generation backend configured")
        return self._resolve("backend", gen.backend, gen.endpoint, config.offline)

    def resolve_text_provider(self, config: ExperimentConfig):
        p = config.providers
        return self._resolve("text provider", p.text, p.text_endpoint, config.offline,
                             retries=config.generation.retries)

    def resolve_image_provider(self, config: ExperimentConfig):
        p = config.providers
        return self._resolve("image provider", p.image, p.image_endpoint, config.offline,
                             retries=config.generation.retries)

    def resolve_chat_client(self, config: ExperimentConfig):
        p = config.providers
        if p.elaborator is None:
            raise OrchestrationError("no elaborator configured")
        return self._resolve("chat client", p.elaborator, p.chat_endpoint, config.offline,
                             retries=config.generation.retries)

    def resolve_retriever(self, config: ExperimentConfig):
        """The retriever over the corpus file as it is now: one is kept per
        path and content sha256, so an edited corpus is read again."""
        path = config.providers.retrieval_corpus
        if path is None:
            raise OrchestrationError("no retrieval corpus configured")
        key = (path, sha256_hex(Path(path).read_bytes()))
        if key not in self.retrievers:
            self.retrievers[key] = KeywordOverlapRetriever(path)
        return self.retrievers[key]
