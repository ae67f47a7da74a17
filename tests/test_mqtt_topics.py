"""Tests for MQTT topic validation, wildcard matching and the subscription trie."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.mqtt.errors import InvalidTopicError, InvalidTopicFilterError
from repro.mqtt.topics import (
    TopicTrie,
    topic_matches_filter,
    validate_topic,
    validate_topic_filter,
)

# Strategy for topic level strings without MQTT special characters.
_level = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=8,
)
_topic = st.lists(_level, min_size=1, max_size=6).map("/".join)


class TestValidateTopic:
    @pytest.mark.parametrize("topic", ["a", "a/b/c", "sdflmq/session/s1/global/update", "a//b"])
    def test_valid(self, topic):
        assert validate_topic(topic) == topic

    @pytest.mark.parametrize("topic", ["", "a/+/b", "a/#", "#", "+", "a\x00b"])
    def test_invalid(self, topic):
        with pytest.raises(InvalidTopicError):
            validate_topic(topic)

    def test_too_long(self):
        with pytest.raises(InvalidTopicError):
            validate_topic("x" * 70000)


class TestValidateTopicFilter:
    @pytest.mark.parametrize("f", ["a", "a/b", "+", "#", "a/+/c", "a/#", "+/+/#", "a//+"])
    def test_valid(self, f):
        assert validate_topic_filter(f) == f

    @pytest.mark.parametrize("f", ["", "a/#/b", "a#", "#a", "a+/b", "+a/b", "a/b+"])
    def test_invalid(self, f):
        with pytest.raises(InvalidTopicFilterError):
            validate_topic_filter(f)


class TestTopicMatching:
    @pytest.mark.parametrize(
        "topic,pattern,expected",
        [
            ("a/b/c", "a/b/c", True),
            ("a/b/c", "a/+/c", True),
            ("a/b/c", "a/#", True),
            ("a/b/c", "#", True),
            ("a/b/c", "a/b", False),
            ("a/b", "a/b/c", False),
            ("a/b/c", "a/+", False),
            ("a", "a/#", True),  # '#' also matches the parent level
            ("a/b", "+/+", True),
            ("a/b", "+", False),
            ("a/b/c/d", "a/#", True),
            ("sport/tennis/player1", "sport/tennis/player1/#", True),
            ("$SYS/broker/load", "#", False),
            ("$SYS/broker/load", "+/broker/load", False),
            ("$SYS/broker/load", "$SYS/#", True),
            ("a//b", "a/+/b", True),
            ("a//b", "a//b", True),
        ],
    )
    def test_spec_cases(self, topic, pattern, expected):
        assert topic_matches_filter(topic, pattern) is expected

    @given(_topic)
    def test_exact_match_always_true(self, topic):
        assert topic_matches_filter(topic, topic)

    @given(_topic)
    def test_hash_matches_everything_non_dollar(self, topic):
        assert topic_matches_filter(topic, "#")

    @given(_topic, _level)
    def test_plus_substitution(self, topic, extra):
        levels = topic.split("/")
        for index in range(len(levels)):
            pattern = "/".join("+" if i == index else lvl for i, lvl in enumerate(levels))
            assert topic_matches_filter(topic, pattern)


class TestTopicTrie:
    def test_insert_and_match(self):
        trie: TopicTrie[str] = TopicTrie()
        trie.insert("a/b", "s1")
        trie.insert("a/+", "s2")
        trie.insert("a/#", "s3")
        trie.insert("x/y", "s4")
        assert trie.match("a/b") == {"s1", "s2", "s3"}
        assert trie.match("a/z") == {"s2", "s3"}
        assert trie.match("x/y") == {"s4"}
        assert trie.match("q") == set()

    def test_duplicate_insert_is_idempotent(self):
        trie: TopicTrie[str] = TopicTrie()
        assert trie.insert("a/b", "v")
        assert not trie.insert("a/b", "v")
        assert trie.match("a/b") == {"v"}

    def test_remove(self):
        trie: TopicTrie[str] = TopicTrie()
        trie.insert("a/b", "v")
        assert trie.remove("a/b", "v")
        assert not trie.remove("a/b", "v")
        assert trie.match("a/b") == set()
        assert trie._root.is_empty()

    def test_remove_prunes_empty_branches(self):
        trie: TopicTrie[str] = TopicTrie()
        trie.insert("a/b/c/d", "v")
        trie.remove("a/b/c/d", "v")
        assert trie._root.is_empty()

    def test_hash_at_root_matches_single_level(self):
        trie: TopicTrie[str] = TopicTrie()
        trie.insert("#", "all")
        assert trie.match("anything") == {"all"}
        assert trie.match("a/b/c") == {"all"}

    def test_dollar_topics_hidden_from_root_wildcards(self):
        trie: TopicTrie[str] = TopicTrie()
        trie.insert("#", "all")
        trie.insert("+/x", "plus")
        trie.insert("$SYS/#", "sys")
        assert trie.match("$SYS/x") == {"sys"}

    def test_invalid_filter_rejected_on_insert(self):
        trie: TopicTrie[str] = TopicTrie()
        with pytest.raises(InvalidTopicFilterError):
            trie.insert("a/#/b", "v")

    @given(st.lists(st.tuples(_topic, st.integers(0, 5)), min_size=1, max_size=30))
    def test_trie_agrees_with_reference_matcher(self, subscriptions):
        """The trie must return exactly the values whose filter matches (literal filters)."""
        trie: TopicTrie[int] = TopicTrie()
        for topic, value in subscriptions:
            trie.insert(topic, value)
        probe = subscriptions[0][0]
        expected = {v for t, v in subscriptions if topic_matches_filter(probe, t)}
        assert trie.match(probe) == expected

    @given(st.lists(_topic, min_size=1, max_size=20, unique=True))
    def test_insert_then_remove_leaves_trie_empty(self, topics):
        trie: TopicTrie[str] = TopicTrie()
        for topic in topics:
            trie.insert(topic, "v")
        for topic in topics:
            assert trie.remove(topic, "v")
        assert trie._root.is_empty()
