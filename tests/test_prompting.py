import pytest

from t2ifuse.corpus import TextSample, truncate_text
from t2ifuse.prompting import (
    ELABORATION_MODES,
    IMAGE_PROMPT_SYSTEM,
    NEGATIVE_PROMPT,
    VISUAL_DESCRIPTION_SYSTEM,
    CachedChatClient,
    ElaborationError,
    NoVisualContentError,
    PromptError,
    PromptSpec,
    StubChatClient,
    StyleLexicon,
    build_prompt,
    elaborate_text,
    extract_keywords,
)
from t2ifuse.storage import ArtifactCache

from tests.conftest import COFFEE_REVIEW


def test_negative_prompt_constant():
    assert NEGATIVE_PROMPT == (
        "text, watermark, low quality, cartoon, blurry, ugly, disfigured, "
        "deformed, jpeg artifacts"
    )


def test_coffee_review_keywords_cover_expected_phrases():
    keywords = extract_keywords(COFFEE_REVIEW)
    joined = " | ".join(keywords)
    assert "coffee machine" in joined
    assert "sleek black design" in joined
    assert "kitchen counter" in joined
    assert len(keywords) <= 8


def test_stopword_only_text_signals_no_visual_content():
    with pytest.raises(NoVisualContentError):
        extract_keywords("it is the of")
    with pytest.raises(PromptError):
        extract_keywords("   ")


def test_fifty_word_review_matches_hand_tagged_oracle():
    review = (
        "The ceramic mug arrived quickly and looked beautiful on my wooden shelf. "
        "Its deep blue glaze shimmered under the morning light, but the handle felt thin. "
        "After two weeks of daily use, a hairline crack appeared near the base, "
        "which was disappointing for such an expensive purchase."
    )
    # hand-applied fallback rule: strip punctuation, drop stopwords/no-letter
    # tokens, group consecutive content words, break runs at .,;:!?
    hand_tagged = [
        "ceramic mug arrived quickly",
        "looked beautiful",
        "wooden shelf",
        "deep blue glaze shimmered",
        "morning light",
        "handle felt thin",
        "two weeks",
        "daily use",
        "hairline crack appeared near",
        "base",
        "disappointing",
        "expensive purchase",
    ]
    assert extract_keywords(review, max_keywords=20) == hand_tagged
    assert extract_keywords(review, max_keywords=8) == hand_tagged[:8]


def test_keywords_in_text_order_and_whitespace_invariant():
    text = "red balloon floats above green field"
    assert extract_keywords(text) == extract_keywords(f"   {text}  \n")
    keywords = extract_keywords(text)
    positions = [text.find(k.split()[0]) for k in keywords]
    assert positions == sorted(positions)


def test_build_prompt_direct_equals_truncation(coffee_sample):
    spec = build_prompt(coffee_sample, "direct", max_tokens=10)
    assert spec.positive == truncate_text(coffee_sample.text, 10)
    assert spec.negative == NEGATIVE_PROMPT
    assert spec.keywords == ()


def test_build_prompt_keyword_contains_all_keywords(coffee_sample):
    spec = build_prompt(coffee_sample, "keyword")
    assert spec.positive.startswith("A photorealistic, high-quality image of")
    for keyword in spec.keywords:
        assert keyword in spec.positive
    assert spec.negative == NEGATIVE_PROMPT


def test_build_prompt_stylized_adds_tags(coffee_sample):
    spec = build_prompt(coffee_sample, "stylized", task_id="sentiment")
    for tag in ("vibrant", "warmly lit", "positive"):
        assert tag in spec.positive
        assert tag in spec.style_tags
    base = build_prompt(coffee_sample, "keyword")
    assert spec.keywords == base.keywords
    with pytest.raises(PromptError, match="no style tags"):
        build_prompt(coffee_sample, "stylized", task_id="astrology")
    with pytest.raises(PromptError, match="task_id"):
        build_prompt(coffee_sample, "stylized")


def test_build_prompt_fallback_to_direct_on_no_content():
    sample = TextSample(id="s", text="it is the of", label=0)
    spec = build_prompt(sample, "keyword")
    assert spec.strategy == "keyword"
    assert spec.keywords == ()
    assert spec.positive == "it is the of"
    styled = build_prompt(sample, "stylized", task_id="sentiment")
    assert styled.style_tags == ()


def test_build_prompt_elaborated_uses_artist_system_prompt(coffee_sample):
    client = StubChatClient(response="A gleaming black coffee machine, morning light.")
    spec = build_prompt(coffee_sample, "elaborated", elaborator=client)
    assert spec.positive == "A gleaming black coffee machine, morning light."
    assert spec.elaborator_id == "stub-chat"
    system, user = client.requests[0]
    assert system == IMAGE_PROMPT_SYSTEM
    assert user == coffee_sample.text
    with pytest.raises(PromptError, match="chat client"):
        build_prompt(coffee_sample, "elaborated")
    with pytest.raises(PromptError, match="unknown strategy"):
        build_prompt(coffee_sample, "P9")


def test_elaborate_text_stub_passthrough():
    client = StubChatClient(response="  A red vacuum on a wooden floor.  ")
    out = elaborate_text("red vacuum review", "visual_description", client)
    assert out == "A red vacuum on a wooden floor."
    system, user = client.requests[0]
    assert system == VISUAL_DESCRIPTION_SYSTEM


def test_elaborate_text_mode_selects_exact_system_prompts():
    client = StubChatClient(response="x")
    elaborate_text("t", "image_prompt", client)
    elaborate_text("t", "visual_description", client)
    assert client.requests[0][0] == IMAGE_PROMPT_SYSTEM
    assert client.requests[1][0] == VISUAL_DESCRIPTION_SYSTEM
    assert set(ELABORATION_MODES) == {"image_prompt", "visual_description"}
    with pytest.raises(PromptError, match="unknown elaboration mode"):
        elaborate_text("t", "summary", client)


def test_elaborate_text_empty_rewrite_errors():
    client = StubChatClient(response="   \n  ")
    with pytest.raises(ElaborationError):
        elaborate_text("anything", "image_prompt", client)


def test_prompt_spec_invariants():
    with pytest.raises(PromptError):
        PromptSpec(sample_id="s", strategy="keyword", positive="no kw here", keywords=("missing",))
    with pytest.raises(PromptError):
        PromptSpec(sample_id="s", strategy="direct", positive="   ")
    spec = PromptSpec(sample_id="s", strategy="direct", positive="fine")
    assert PromptSpec.from_dict(spec.to_dict()) == spec


def test_style_lexicon_validation():
    with pytest.raises(PromptError):
        StyleLexicon({"task": ()})
    lex = StyleLexicon({"task": ("moody",)})
    assert lex.tags_for("task") == ("moody",)


def test_cached_chat_client_is_idempotent(tmp_path):
    inner = StubChatClient(response="stable answer")
    cached = CachedChatClient(inner, ArtifactCache(tmp_path / "chat"))
    assert cached.complete("sys", "user") == "stable answer"
    assert cached.complete("sys", "user") == "stable answer"
    assert len(inner.requests) == 1
    cached.cache.close()


class _FlakyChat(StubChatClient):
    """Answers blank until ``recovered`` is set."""

    recovered = False

    def complete(self, system: str, user: str) -> str:
        reply = super().complete(system, user)
        return reply if self.recovered else "  \n "


def test_cached_chat_client_does_not_keep_a_blank_rewrite(tmp_path):
    inner = _FlakyChat(response="A steel blender on a counter.")
    cached = CachedChatClient(inner, ArtifactCache(tmp_path / "chat"))
    with pytest.raises(ElaborationError):
        elaborate_text("a loud blender", "visual_description", cached)
    inner.recovered = True
    for _ in range(2):  # the recovered client is asked once; its rewrite is kept
        assert elaborate_text("a loud blender", "visual_description", cached) == "A steel blender on a counter."
    assert len(inner.requests) == 2
    cached.cache.close()


def test_cached_chat_client_asks_again_for_a_reply_that_no_longer_reads_back(tmp_path):
    inner = StubChatClient(response="stable answer")
    cached = CachedChatClient(inner, ArtifactCache(tmp_path / "chat"))
    assert cached.complete("sys", "user") == "stable answer"
    cached.cache.sync()
    cached.cache.close()
    [segment] = (tmp_path / "chat" / "data").glob("*.seg")
    rotted = bytearray(segment.read_bytes())
    rotted[-1] ^= 0x01  # one bit of the stored reply rots
    segment.write_bytes(bytes(rotted))

    cached = CachedChatClient(inner, ArtifactCache(tmp_path / "chat"))
    for _ in range(2):  # asked once more; the fresh reply is kept
        assert cached.complete("sys", "user") == "stable answer"
    assert len(inner.requests) == 2
    cached.cache.close()


def test_determinism_of_strategies(coffee_sample):
    for strategy in ("direct", "keyword"):
        a = build_prompt(coffee_sample, strategy)
        b = build_prompt(coffee_sample, strategy)
        assert a == b
