"""Text-to-image prompt construction and LLM-based text elaboration.

Four strategies of increasing sophistication turn a source text into a
positive prompt:

- ``direct``: the (truncated) source text itself.
- ``keyword``: content-word phrases extracted from the text, inserted into
  ``KEYWORD_TEMPLATE``.
- ``stylized``: the same phrases plus the task's style tags from
  ``DEFAULT_STYLE_LEXICON``, inserted into ``STYLIZED_TEMPLATE``.
- ``elaborated``: a chat-model rewrite of the text into a visual scene
  description.

All strategies attach the same universal negative prompt, ``NEGATIVE_PROMPT``.
:func:`compose_input` gives a sample's input text under each method: the
text itself, or the text with an LLM scene description or a retrieved
document appended.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Protocol

from .corpus import TextSample, truncate_text
from .storage import CacheError, from_fields, stable_key

logger = logging.getLogger(__name__)

STRATEGIES = ("direct", "keyword", "stylized", "elaborated")

# Universal negative prompt attached to every generation request.
NEGATIVE_PROMPT = (
    "text, watermark, low quality, cartoon, blurry, ugly, disfigured, "
    "deformed, jpeg artifacts"
)

# System prompt for rewriting text into a T2I image prompt.
IMAGE_PROMPT_SYSTEM = (
    "You are an expert visual artist and photographer. Your task is to read "
    "the provided text and imagine a single, high-fidelity image that "
    "captures the core essence, entities, and atmosphere of the text. "
    "Describe this image in a detailed, comma-separated list of visual "
    "attributes, focusing on:\n"
    "1. Subject (Who/What is in the center?)\n"
    "2. Action/State (What is happening?)\n"
    "3. Setting/Background (Where is it?)\n"
    "4. Lighting/Style (e.g., 'cinematic lighting', 'photorealistic', 'dark "
    "and moody').\n"
    "Do NOT output any conversational text. Output ONLY the visual "
    "description prompt."
)

# System prompt for the textual-expansion baseline: a natural-language scene
# description appended to the input instead of an image prompt.
VISUAL_DESCRIPTION_SYSTEM = (
    "You are an expert descriptive writer. Read the following text and "
    "provide a detailed, vivid visual description of the scene, objects, or "
    "atmosphere implied by the text. Your description should clarify any "
    "visual ambiguities and set the scene. Output ONLY the descriptive "
    "paragraph. Do not explain your reasoning."
)

ELABORATION_MODES = {
    "image_prompt": IMAGE_PROMPT_SYSTEM,
    "visual_description": VISUAL_DESCRIPTION_SYSTEM,
}

# Words carrying no visual content: never a keyword.
_STOPWORDS = frozenset(
    """
    a about above after again against all am an and any are aren't as at be
    because been before being below between both but by can't cannot could
    couldn't did didn't do does doesn't doing don't down during each few for
    from further had hadn't has hasn't have haven't having he he'd he'll he's
    her here here's hers herself him himself his how how's i i'd i'll i'm
    i've if in into is isn't it it's its itself let's me more most mustn't my
    myself no nor not of off on once only or other ought our ours ourselves
    out over own same shan't she she'd she'll she's should shouldn't so some
    such than that that's the their theirs them themselves then there there's
    these they they'd they'll they're they've this those through to too under
    until up very was wasn't we we'd we'll we're we've were weren't what
    what's when when's where where's which while who who's whom why why's
    with won't would wouldn't you you'd you'll you're you've your yours
    yourself yourselves
    """.split()
)

# The punctuation stripped from each token of a keyword query.
STRIP_CHARS = "\"'“”‘’()[]{}<>.,;:!?*…-_/\\"
_RUN_BREAKERS = ".!?,;:"


class PromptError(ValueError):
    pass


class NoVisualContentError(PromptError):
    """The text reduced to zero keywords; callers fall back to direct prompting."""


class ElaborationError(RuntimeError):
    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class ChatClient(Protocol):
    client_id: str

    def complete(self, system: str, user: str) -> str: ...


@dataclass(frozen=True)
class StyleLexicon:
    """Task id -> stylistic tags injected by the stylized strategy."""

    tags_by_task: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for task, tags in self.tags_by_task.items():
            if not tags or any(not t for t in tags):
                raise PromptError(f"task {task!r} needs non-empty style tags")

    def tags_for(self, task_id: str) -> tuple[str, ...]:
        if task_id not in self.tags_by_task:
            raise PromptError(f"no style tags for task {task_id!r}")
        return self.tags_by_task[task_id]


DEFAULT_STYLE_LEXICON = StyleLexicon(
    {
        "sentiment": ("vibrant", "warmly lit", "positive"),
        "news": ("journalistic", "professional photography", "clean aesthetic"),
    }
)


KEYWORD_TEMPLATE = "A photorealistic, high-quality image of {keywords}."
STYLIZED_TEMPLATE = "A {style_tags}, photorealistic, high-quality image of {keywords}."


@dataclass(frozen=True)
class PromptSpec:
    sample_id: str
    strategy: str
    positive: str
    negative: str = NEGATIVE_PROMPT
    keywords: tuple[str, ...] = ()
    style_tags: tuple[str, ...] = ()
    elaborator_id: str | None = None

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise PromptError(f"unknown strategy {self.strategy!r}")
        if not self.positive.strip():
            raise PromptError("positive prompt must be non-empty")
        for kw in self.keywords:
            if kw not in self.positive:
                raise PromptError(f"keyword {kw!r} missing from positive prompt")
        for tag in self.style_tags:
            if tag not in self.positive:
                raise PromptError(f"style tag {tag!r} missing from positive prompt")

    def to_dict(self) -> dict:
        # dataclasses.asdict without its deep copies, which take 18x as long per spec
        return {**vars(self), "keywords": list(self.keywords), "style_tags": list(self.style_tags)}

    @classmethod
    def from_dict(cls, data: dict) -> "PromptSpec":
        """Read by :func:`storage.from_fields`; ``negative`` has a default but
        every written spec holds one, so a row without it raises ``KeyError``."""
        return from_fields(cls, data, negative=data["negative"], keywords=tuple(data.get("keywords", ())),
                           style_tags=tuple(data.get("style_tags", ())))


def extract_keywords(text: str, max_keywords: int = 8) -> list[str]:
    """Extract content-word phrases in original text order.

    Whitespace tokens are stripped of surrounding punctuation; a token is
    "content" when it contains a letter and is not a stopword. Maximal runs
    of consecutive content tokens become space-joined phrases; a token whose
    raw form ends in sentence punctuation closes its run. Duplicate phrases
    keep the first occurrence; at most ``max_keywords`` phrases are returned.
    """
    if max_keywords < 1:
        raise ValueError("max_keywords must be >= 1")
    if not text.strip():
        raise PromptError("cannot extract keywords from empty text")
    raw_tokens = text.split()
    cores = [t.strip(STRIP_CHARS) for t in raw_tokens]
    is_content = [
        bool(core) and any(ch.isalpha() for ch in core) and core.lower() not in _STOPWORDS
        for core in cores
    ]

    phrases: list[str] = []
    run: list[str] = []
    for raw, core, content in zip(raw_tokens, cores, is_content):
        if content:
            run.append(core)
        elif run:
            phrases.append(" ".join(run))
            run = []
        if run and raw[-1] in _RUN_BREAKERS:
            phrases.append(" ".join(run))
            run = []
    if run:
        phrases.append(" ".join(run))

    seen: set[str] = set()
    keywords = []
    for phrase in phrases:
        if phrase not in seen:
            seen.add(phrase)
            keywords.append(phrase)
        if len(keywords) == max_keywords:
            break
    if not keywords:
        raise NoVisualContentError("text has no visual content words")
    return keywords


def elaborate_text(text: str, mode: str, client: ChatClient) -> str:
    """Rewrite ``text`` through a chat client under the mode's system prompt.

    The client's rewrite is returned verbatim apart from whitespace trimming.
    A whitespace-only rewrite is an error so callers can fall back to the
    original text.
    """
    if mode not in ELABORATION_MODES:
        raise PromptError(f"unknown elaboration mode {mode!r}")
    if not text.strip():
        raise PromptError("cannot elaborate empty text")
    system = ELABORATION_MODES[mode]
    logger.info("elaborate_text: client=%s mode=%s chars=%d", client.client_id, mode, len(text))
    rewrite = client.complete(system, text)
    logger.info("elaborate_text: client=%s responded chars=%d", client.client_id, len(rewrite))
    rewrite = rewrite.strip()
    if not rewrite:
        raise ElaborationError(f"client {client.client_id!r} returned an empty rewrite")
    return rewrite


def build_prompt(
    sample: TextSample,
    strategy: str,
    task_id: str | None = None,
    elaborator: ChatClient | None = None,
    *,
    max_tokens: int = 256,
) -> PromptSpec:
    """Construct the positive/negative prompt pair for one sample.

    When keyword extraction finds no visual content, ``keyword``/``stylized``
    fall back to the direct prompt; the fallback is visible as an empty
    keyword tuple on a non-direct strategy.
    """
    if strategy not in STRATEGIES:
        raise PromptError(f"unknown strategy {strategy!r}")
    truncated = truncate_text(sample.text, max_tokens)

    if strategy == "direct":
        return PromptSpec(sample.id, "direct", truncated)

    if strategy in ("keyword", "stylized"):
        style_tags: tuple[str, ...] = ()
        if strategy == "stylized":
            if task_id is None:
                raise PromptError("stylized strategy needs a task_id")
            style_tags = DEFAULT_STYLE_LEXICON.tags_for(task_id)
        try:
            keywords = tuple(extract_keywords(sample.text))
        except NoVisualContentError:
            return PromptSpec(sample.id, strategy, truncated)
        keyword_clause = ", ".join(keywords)
        if strategy == "keyword":
            positive = KEYWORD_TEMPLATE.format(keywords=keyword_clause)
        else:
            positive = STYLIZED_TEMPLATE.format(
                keywords=keyword_clause, style_tags=", ".join(style_tags)
            )
        return PromptSpec(sample.id, strategy, positive, keywords=keywords, style_tags=style_tags)

    # elaborated
    if elaborator is None:
        raise PromptError("elaborated strategy needs a chat client")
    positive = elaborate_text(truncated, "image_prompt", elaborator)
    return PromptSpec(
        sample.id, "elaborated", positive, elaborator_id=elaborator.client_id
    )


def compose_input(sample: TextSample, method: str, *, elaborator: ChatClient | None = None, retriever=None,
                  max_tokens: int = 256) -> tuple[str, str | None]:
    """The effective text of one sample under ``method``, and the fallback
    taken, if any.

    Textual expansion appends an LLM scene description; knowledge retrieval
    appends the best-matching local document (falling back to the bare text
    when nothing matches, reported as ``"retrieval_miss"``). Both append
    first and truncate to the token budget afterwards.
    """
    text = sample.text
    fallback = None
    if method == "textual_expansion":
        if elaborator is None:
            raise PromptError("textual_expansion needs an elaborator client")
        description = elaborate_text(text, "visual_description", elaborator)
        text = f"{text} {description}"
    elif method == "knowledge_retrieval":
        if retriever is None:
            raise PromptError("knowledge_retrieval needs a retriever")
        try:
            keywords = extract_keywords(sample.text)
        except NoVisualContentError:
            keywords = []
        doc = retriever.retrieve(keywords) if keywords else None
        if doc is None:
            fallback = "retrieval_miss"
        else:
            text = f"{text} {doc}"
    return truncate_text(text, max_tokens), fallback


class StubChatClient:
    """Offline chat client: one canned response plus a request log for tests."""

    def __init__(self, response: str | None = None, client_id: str = "stub-chat"):
        self.client_id = client_id
        self._response = response
        self.requests: list[tuple[str, str]] = []

    def complete(self, system: str, user: str) -> str:
        self.requests.append((system, user))
        if self._response is not None:
            return self._response
        # Deterministic default: a scene line derived from the input.
        return f"A detailed, photorealistic scene depicting: {user}"


class CachedChatClient:
    """Wrap a chat client with a content-hash response cache, making retries
    and pipeline re-runs idempotent."""

    def __init__(self, client: ChatClient, cache):
        self.client = client
        self.client_id = client.client_id
        self.cache = cache  # storage.ArtifactCache

    def complete(self, system: str, user: str) -> str:
        key = stable_key({"client": self.client_id, "system": system, "user": user})
        try:  # one meta record read: a hit's payload is found by the hash it names
            return self.cache.get(key).decode("utf-8")
        except CacheError:
            pass  # a miss, or a payload that no longer reads back intact: ask again
        response = self.client.complete(system, user)
        if response.strip():  # a blank rewrite is an error, not an answer to keep
            self.cache.put(key, response.encode("utf-8"), {"client_id": self.client_id})
        return response
