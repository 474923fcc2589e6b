"""A stdout replacement that digests a report while it is written.

The sink keeps the SHA-256 of the bytes, their count, the number of lines,
the first few KiB of text (the report headers the checks parse) and, per
probe, a running tally over complete lines.  It never holds the whole
report, so a verb that streams its output is measured at the memory it
really needs.
"""

from __future__ import annotations

import hashlib
import io
from collections import Counter

HEAD_CHARS = 8192


class HashSink(io.TextIOBase):
    """Text stream that hashes, counts and probes what is written to it.

    probes maps a name to either a string, counting the lines that start
    with it, or a compiled pattern with one group, tallying its captured
    values.  Probes see whole lines only, so a match is never split between
    two writes.
    """

    def __init__(self, probes: dict | None = None) -> None:
        super().__init__()
        self._sha = hashlib.sha256()
        self.nbytes = 0
        self.lines = 0
        self._head: list[str] = []
        self._head_left = HEAD_CHARS
        self._probes = dict(probes or {})
        self.counts = {name: Counter() for name in self._probes}
        self._partial = ""

    def write(self, text: str) -> int:
        data = text.encode()
        self._sha.update(data)
        self.nbytes += len(data)
        self.lines += text.count("\n")
        if self._head_left > 0:
            piece = text[: self._head_left]
            self._head.append(piece)
            self._head_left -= len(piece)
        if self._probes:
            joined = self._partial + text if self._partial else text
            cut = joined.rfind("\n") + 1
            self._partial = joined[cut:]
            self._probe(joined[:cut])
        return len(text)

    def _probe(self, block: str) -> None:
        for name, probe in self._probes.items():
            if isinstance(probe, str):
                starts = block.count("\n" + probe) + block.startswith(probe)
                self.counts[name][probe] += starts
            else:
                self.counts[name].update(probe.findall(block))

    def finish(self) -> dict:
        """Flush the unterminated last line through the probes; return facts."""
        if self._partial:
            self._probe(self._partial)
            self._partial = ""
        return {
            "sha256": self._sha.hexdigest(),
            "nbytes": self.nbytes,
            "lines": self.lines,
            "head": "".join(self._head),
            "counts": self.counts,
        }
