"""Payload signature matching: an Aho-Corasick engine.

``Signature`` detection in the paper is the canonical per-session,
self-contained analysis (Figure 2) — any node observing a session can
run it. Real NIDS use multi-pattern string/regex matching; we implement
the classic Aho-Corasick automaton, which scans each payload byte once
regardless of pattern-set size.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


@dataclass(frozen=True)
class SignatureMatch:
    """One pattern hit inside a payload."""

    pattern: bytes
    end_offset: int  # index one past the last matched byte


class AhoCorasick:
    """A byte-level Aho-Corasick multi-pattern matcher.

    Build once from a pattern set, then :meth:`search` any number of
    payloads. Matching is O(len(payload) + matches).
    """

    def __init__(self, patterns: Iterable[bytes]) -> None:
        patterns = [bytes(p) for p in patterns]
        if any(len(p) == 0 for p in patterns):
            raise ValueError("empty patterns are not allowed")
        self.patterns = patterns
        # State 0 is the root. goto maps (state, byte) -> state.
        self._goto: List[Dict[int, int]] = [{}]
        self._fail: List[int] = [0]
        self._output: List[List[bytes]] = [[]]
        for pattern in patterns:
            self._insert(pattern)
        self._build_failure_links()

    def _insert(self, pattern: bytes) -> None:
        state = 0
        for byte in pattern:
            nxt = self._goto[state].get(byte)
            if nxt is None:
                nxt = len(self._goto)
                self._goto.append({})
                self._fail.append(0)
                self._output.append([])
                self._goto[state][byte] = nxt
            state = nxt
        self._output[state].append(pattern)

    def _build_failure_links(self) -> None:
        queue = deque()
        for byte, state in self._goto[0].items():
            self._fail[state] = 0
            queue.append(state)
        while queue:
            current = queue.popleft()
            for byte, nxt in self._goto[current].items():
                queue.append(nxt)
                fallback = self._fail[current]
                while fallback and byte not in self._goto[fallback]:
                    fallback = self._fail[fallback]
                self._fail[nxt] = self._goto[fallback].get(byte, 0)
                if self._fail[nxt] == nxt:
                    self._fail[nxt] = 0
                self._output[nxt] = (self._output[nxt] +
                                     self._output[self._fail[nxt]])

    def search(self, payload: bytes) -> List[SignatureMatch]:
        """All pattern occurrences in ``payload``."""
        matches: List[SignatureMatch] = []
        state = 0
        for offset, byte in enumerate(payload):
            while state and byte not in self._goto[state]:
                state = self._fail[state]
            state = self._goto[state].get(byte, 0)
            for pattern in self._output[state]:
                matches.append(SignatureMatch(pattern, offset + 1))
        return matches


# A small default rule set standing in for Snort's default signatures.
DEFAULT_SIGNATURES: Tuple[bytes, ...] = (
    b"/etc/passwd",
    b"cmd.exe",
    b"<script>alert",
    b"\x90\x90\x90\x90\x90\x90\x90\x90",  # NOP sled
    b"SELECT * FROM",
    b"../../../../",
    b"USER anonymous",
    b"\xde\xad\xbe\xef",
)


from repro.nids.engine import NIDSEngine  # noqa: E402  (after helpers)


class SignatureEngine(NIDSEngine):
    """Per-session payload signature detection.

    Args:
        patterns: signature byte strings; defaults to a small built-in
            rule set standing in for Snort's defaults.
        per_session_cost / per_byte_cost: work-unit cost model.
    """

    def __init__(self, patterns: Optional[Sequence[bytes]] = None,
                 per_session_cost: float = 100.0,
                 per_byte_cost: float = 1.0) -> None:
        super().__init__(per_session_cost, per_byte_cost)
        self.automaton = AhoCorasick(patterns if patterns is not None
                                     else DEFAULT_SIGNATURES)
        self.matches: List[Tuple[object, SignatureMatch]] = []

    def inspect(self, session_key, payload: bytes) -> List[SignatureMatch]:
        """Scan one packet payload in the context of a session.

        Returns the pattern matches found (also recorded, and counted
        into :attr:`stats`).
        """
        self._charge(session_key, len(payload))
        found = self.automaton.search(payload)
        for match in found:
            self.matches.append((session_key, match))
        self.stats.alerts += len(found)
        return found

    def reset(self) -> None:
        super().reset()
        self.matches = []
