"""MQTT topic validation, wildcard matching and the subscription trie.

Topic semantics follow the MQTT 3.1.1 specification:

* topics are ``/``-separated level strings,
* ``+`` matches exactly one level, ``#`` matches the remaining levels and must
  be the last character of the filter,
* wildcards are only legal in subscription *filters*, never in publish topics,
* topics beginning with ``$`` (e.g. ``$SYS``) are not matched by filters whose
  first level is a wildcard.

The :class:`TopicTrie` stores subscriptions in a prefix tree keyed by topic
levels so that matching a publish topic against *S* subscriptions costs
``O(depth)`` instead of ``O(S · depth)``; with thousands of per-client role
topics in large SDFLMQ sessions this is the routing hot path.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, FrozenSet, Generic, List, Set, Tuple, TypeVar

from repro.mqtt.errors import InvalidTopicError, InvalidTopicFilterError

__all__ = [
    "validate_topic",
    "validate_topic_filter",
    "topic_matches_filter",
    "split_topic",
    "TopicTrie",
]

T = TypeVar("T")

MAX_TOPIC_LENGTH = 65535


def split_topic(topic: str) -> List[str]:
    """Split a topic or filter into its levels."""
    return topic.split("/")


def validate_topic(topic: str) -> str:
    """Validate a concrete publish topic; returns the topic if valid.

    Raises
    ------
    InvalidTopicError
        If the topic is empty, too long, contains wildcards or NUL characters.
    """
    if not isinstance(topic, str) or topic == "":
        raise InvalidTopicError("publish topic must be a non-empty string")
    if len(topic) > MAX_TOPIC_LENGTH:
        raise InvalidTopicError(f"topic exceeds {MAX_TOPIC_LENGTH} characters")
    if "+" in topic or "#" in topic:
        raise InvalidTopicError(f"publish topic may not contain wildcards: {topic!r}")
    if "\x00" in topic:
        raise InvalidTopicError("topic may not contain NUL characters")
    return topic


def validate_topic_filter(topic_filter: str) -> str:
    """Validate a subscription filter; returns the filter if valid.

    Raises
    ------
    InvalidTopicFilterError
        If the filter is empty, has a misplaced ``#``, or a level mixing
        wildcard and literal characters (e.g. ``foo/ba+``).
    """
    if not isinstance(topic_filter, str) or topic_filter == "":
        raise InvalidTopicFilterError("topic filter must be a non-empty string")
    if len(topic_filter) > MAX_TOPIC_LENGTH:
        raise InvalidTopicFilterError(f"filter exceeds {MAX_TOPIC_LENGTH} characters")
    if "\x00" in topic_filter:
        raise InvalidTopicFilterError("filter may not contain NUL characters")
    levels = split_topic(topic_filter)
    for index, level in enumerate(levels):
        if "#" in level:
            if level != "#":
                raise InvalidTopicFilterError(
                    f"'#' must occupy an entire level in filter {topic_filter!r}"
                )
            if index != len(levels) - 1:
                raise InvalidTopicFilterError(
                    f"'#' must be the last level in filter {topic_filter!r}"
                )
        if "+" in level and level != "+":
            raise InvalidTopicFilterError(
                f"'+' must occupy an entire level in filter {topic_filter!r}"
            )
    return topic_filter


def topic_matches_filter(topic: str, topic_filter: str) -> bool:
    """Return True if a concrete ``topic`` matches the subscription ``topic_filter``.

    Implements MQTT 3.1.1 matching rules including the ``$``-prefix exemption.

    >>> topic_matches_filter("fl/session1/round/3", "fl/+/round/#")
    True
    >>> topic_matches_filter("$SYS/broker/load", "#")
    False
    """
    topic_levels = split_topic(topic)
    filter_levels = split_topic(topic_filter)

    # Topics starting with '$' are not matched by wildcards at the first level.
    if topic_levels and topic_levels[0].startswith("$"):
        if filter_levels and filter_levels[0] in ("+", "#"):
            return False

    ti = 0
    for fi, flevel in enumerate(filter_levels):
        if flevel == "#":
            return True
        if ti >= len(topic_levels):
            return False
        if flevel == "+":
            ti += 1
            continue
        if flevel != topic_levels[ti]:
            return False
        ti += 1
    if ti != len(topic_levels):
        return False
    return True


class _TrieNode(Generic[T]):
    """One level of the subscription trie."""

    __slots__ = ("children", "values")

    def __init__(self) -> None:
        self.children: Dict[str, _TrieNode[T]] = {}
        self.values: Set[T] = set()

    def is_empty(self) -> bool:
        return not self.children and not self.values


class TopicTrie(Generic[T]):
    """A prefix tree mapping topic filters to sets of opaque values.

    Values are usually ``(client_id, qos)``-like subscription handles; the trie
    itself is agnostic.  Duplicate inserts of the same (filter, value) pair are
    idempotent.

    Match results are memoized per concrete topic in an LRU cache of
    ``match_cache_size`` entries, invalidated wholesale whenever the stored
    filters change (subscribe/unsubscribe).  SDFLMQ publishes the same
    session/role topics thousands of times between subscription changes, so
    on the routing hot path the trie walk happens once per topic, not once
    per publish; ``match_cache_hits`` / ``match_cache_misses`` expose the
    effectiveness to benchmarks.
    """

    def __init__(self, match_cache_size: int = 1024) -> None:
        self._root: _TrieNode[T] = _TrieNode()
        self._match_cache: "OrderedDict[str, FrozenSet[T]]" = OrderedDict()
        self._match_cache_size = max(0, int(match_cache_size))
        self.match_cache_hits = 0
        self.match_cache_misses = 0

    def _invalidate_match_cache(self) -> None:
        if self._match_cache:
            self._match_cache.clear()

    def insert(self, topic_filter: str, value: T) -> bool:
        """Insert ``value`` under ``topic_filter``.

        Returns True if the pair was newly added, False if it already existed.
        """
        validate_topic_filter(topic_filter)
        node = self._root
        for level in split_topic(topic_filter):
            node = node.children.setdefault(level, _TrieNode())
        if value in node.values:
            return False
        node.values.add(value)
        self._invalidate_match_cache()
        return True

    def remove(self, topic_filter: str, value: T) -> bool:
        """Remove ``value`` from ``topic_filter``; returns True if removed."""
        validate_topic_filter(topic_filter)
        levels = split_topic(topic_filter)
        path: List[Tuple[_TrieNode[T], str]] = []
        node = self._root
        for level in levels:
            child = node.children.get(level)
            if child is None:
                return False
            path.append((node, level))
            node = child
        if value not in node.values:
            return False
        node.values.discard(value)
        self._invalidate_match_cache()
        # Prune now-empty branches so long-lived brokers don't leak nodes as
        # clients churn through per-session role topics.
        for parent, level in reversed(path):
            child = parent.children[level]
            if child.is_empty():
                del parent.children[level]
            else:
                break
        return True

    def match(self, topic: str) -> Set[T]:
        """Return the set of values whose filters match the concrete ``topic``.

        The returned set is a fresh copy the caller may mutate freely; the
        memoized result is kept immutable inside the cache.
        """
        validate_topic(topic)
        cached = self._match_cache.get(topic)
        if cached is not None:
            self.match_cache_hits += 1
            self._match_cache.move_to_end(topic)
            return set(cached)
        self.match_cache_misses += 1
        levels = split_topic(topic)
        results: Set[T] = set()
        first_is_dollar = bool(levels) and levels[0].startswith("$")
        self._match(self._root, levels, 0, results, first_is_dollar)
        if self._match_cache_size > 0:
            self._match_cache[topic] = frozenset(results)
            if len(self._match_cache) > self._match_cache_size:
                self._match_cache.popitem(last=False)
        return results

    def _match(
        self,
        node: _TrieNode[T],
        levels: List[str],
        index: int,
        results: Set[T],
        dollar_guard: bool,
    ) -> None:
        if index == len(levels):
            results.update(node.values)
            # "sport/#" also matches "sport" (parent of the multi-level wildcard).
            hash_child = node.children.get("#")
            if hash_child is not None:
                results.update(hash_child.values)
            return
        level = levels[index]

        literal = node.children.get(level)
        if literal is not None:
            self._match(literal, levels, index + 1, results, False)

        if not (dollar_guard and index == 0):
            plus = node.children.get("+")
            if plus is not None:
                self._match(plus, levels, index + 1, results, False)
            hash_child = node.children.get("#")
            if hash_child is not None:
                results.update(hash_child.values)
