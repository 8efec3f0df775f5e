"""Vectorized FSM front-end: batch text classification kernels.

The typed-index FSM rejects the vast majority of text nodes on their
*first* illegal character (the paper: "the majority of all text nodes
... will be rejected immediately").  During index creation that
pre-filter is the hot loop — one regex probe per text node.  This
module batches it: all candidate texts are joined into one region,
decoded to a flat ``uint32`` code-point array with ``np.frombuffer``
over the UTF-32 encoding, classified against a per-DFA 128-entry
char-class table in one gather, and reduced back to a per-text
legality verdict with a prefix sum over the illegal mask.  Only the
small legal minority then pays the scalar tokenizer.

A second region kernel serves ``contains`` lookups: the candidate
texts are joined with a ``NUL`` sentinel and the needle is located
with C-level ``str.find`` hops over the joined region instead of one
Python-level ``in`` per text.

Both kernels are exact (no false negatives/positives) and return
``None`` for inputs they do not apply to (a batch too small to pay off,
a non-ASCII alphabet, a needle carrying the sentinel), letting callers
keep their scalar loop.
"""

from __future__ import annotations

import numpy as np

__all__ = ["legality_mask", "containing_indices"]

#: Texts below this total size are cheaper to reject one by one.
_MIN_BATCH_CHARS = 256

#: Per-DFA char-class tables, keyed by the DFA object (one per plugin).
_CLASS_TABLES: dict[int, "np.ndarray"] = {}


def _class_table(dfa) -> "np.ndarray":
    """Boolean legality table over code points 0..127 for one DFA.

    ``table[code]`` is True iff the character belongs to the DFA's
    alphabet; code points >= 128 are never legal for the shipped typed
    DFAs (digits, signs, separators — all ASCII), which the kernel
    checks separately with one comparison.
    """
    table = _CLASS_TABLES.get(id(dfa))
    if table is None:
        table = np.zeros(128, dtype=bool)
        for char in dfa.char_class:
            code = ord(char)
            if code < 128:
                table[code] = True
        _CLASS_TABLES[id(dfa)] = table
    return table


def legality_mask(plugin, texts: list[str]):
    """Per-text verdict: could this text be a legal lexical fragment?

    Returns a list of bools (True = every character is in the DFA's
    alphabet, so the scalar tokenizer must run; False = at least one
    illegal character, the fragment is REJECT without tokenizing), or
    ``None`` when the batch is too small to beat the scalar pre-filter.
    """
    if not texts:
        return None
    if any(ord(char) >= 128 for char in plugin.dfa.char_class):
        return None  # non-ASCII alphabet: table shape does not apply
    lens = np.fromiter(
        (len(text) for text in texts), dtype=np.int64, count=len(texts)
    )
    total = int(lens.sum())
    if total < _MIN_BATCH_CHARS:
        return None
    codes = np.frombuffer(
        "".join(texts).encode("utf-32-le"), dtype=np.uint32
    )
    table = _class_table(plugin.dfa)
    illegal = codes >= 128
    legal_low = table[np.where(illegal, 0, codes).astype(np.int64)]
    illegal |= ~legal_low
    # Per-text any(illegal): prefix-sum the illegal mask and difference
    # it at the region boundaries.
    bounds = np.cumsum(lens)
    prefix = np.concatenate(
        ([0], np.cumsum(illegal, dtype=np.int64))
    )
    bad = prefix[bounds] - prefix[bounds - lens] > 0
    return (~bad).tolist()


def containing_indices(texts: list[str], needle: str):
    """Indices of ``texts`` whose value contains ``needle``.

    Joins the texts with a ``NUL`` sentinel and walks the matches with
    ``str.find`` (C level), mapping each match position back to its
    text with a ``searchsorted`` over the region offsets.  Returns
    ``None`` — caller falls back to the scalar loop — when the needle
    is empty (everything matches, no scan needed) or the needle itself
    contains the sentinel.
    """
    if not needle or "\x00" in needle:
        return None
    if not texts:
        return []
    region = "\x00".join(texts)
    lens = np.fromiter(
        (len(text) for text in texts), dtype=np.int64, count=len(texts)
    )
    # starts[i] = position of texts[i] inside the region.
    starts = np.concatenate(([0], np.cumsum(lens[:-1] + 1)))
    matched = []
    position = region.find(needle)
    while position != -1:
        # The sentinel cannot occur in the needle, so a match is fully
        # inside one text.
        text_index = int(
            np.searchsorted(starts, position, side="right") - 1
        )
        matched.append(text_index)
        # Resume after this text: later matches inside it are dupes.
        end = int(starts[text_index]) + int(lens[text_index])
        position = region.find(needle, end + 1)
    return matched
