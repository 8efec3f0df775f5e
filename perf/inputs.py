"""Seeded inputs: the corpora, the query pool and the update values.

The XMark corpus is fixed (the catalog's generator seeds 11-14); the
``--seed`` picks literals, the order of operations, update targets and
update values.  Class shares, per-shape counts, per-text draw counts and
the row-count ladder of the range class are fixed, so two seeds do the
same amount of work.  Every literal is taken from the corpus's own
value frequencies, so no query is answered from an empty index probe
unless its shape says so.
"""

from __future__ import annotations

import random
import re
from collections import Counter, defaultdict
from dataclasses import dataclass

from repro.workloads.catalog import DATASETS
from repro.workloads.queries import QUERY_SETS
from repro.workloads.words import WORDS
from repro.workloads.xmark import generate_xmark

__all__ = [
    "CLASSES",
    "Query",
    "Update",
    "xmark_corpus",
    "xmark_corpus_names",
    "lifecycle_corpus",
    "CorpusValues",
    "query_pool",
    "read_sequence",
    "update_plan",
    "catalog_queries",
    "catalog_class",
    "class_row_limits",
]

CLASSES = ("eq", "range", "fat")

#: Four XMark documents of ~17 k nodes each.  Every set-up, full scan
#: and range read grows with the corpus, and at 2.5 times this scale
#: the driver's 92 runs no longer fit their hour when the box has one
#: of its slow spells.
XMARK_SEEDS = (11, 12, 13, 14)
XMARK_SCALE = 2.0

#: Table 1 corpora for ``bulk_lifecycle``.  The scales differ because
#: pure-Python load speed differs ten-fold between the corpora (XMark
#: ~140 k nodes/s, EPAGeo ~12 k nodes/s); each is sized to contribute
#: 0.2-0.4 s of load so no single generator dominates a cycle.
LIFECYCLE_SCALES = {
    "XMark1": 3.2, "DBLP": 0.24, "PSD": 0.12, "Wiki": 0.032, "EPAGeo": 0.2,
}

EQ_SHAPES = ("string", "numeric", "attribute", "conjunction", "disjunction")
PER_SHAPE = 8          # eq texts per shape -> 40 eq texts
RANGE_TEXTS = 16
#: Share of a field's records each of the 16 range texts returns: an
#: even ladder from 40 % to 95 %, the same for every seed.
RANGE_LADDER = tuple(0.40 + 0.55 * i / (RANGE_TEXTS - 1)
                     for i in range(RANGE_TEXTS))
#: Class limits as (low, high) shares of the 308 records of a kind; an
#: eq text returns at most 50 rows whatever the corpus size.
EQ_MAX_ROWS = 50
CLASS_SHARES = {"range": (0.38, 0.97), "fat": (0.40, 1.0)}

# Fields the read pool queries and fields updates touch are disjoint,
# so a read's checked answer stays valid while updates run beside it.
_STRING_FIELDS = (("person", "city"), ("person", "country"),
                  ("person", "education"), ("item", "location"),
                  ("open_auction", "type"), ("open_auction", "privacy"))
_ITEM_NUMERIC = ("quantity", "price", "reserve", "shipping_cost", "tax",
                 "weight")
_RANGE_FIELDS = tuple(("item", f) for f in _ITEM_NUMERIC) + (
    ("person", "income"), ("open_auction", "initial"),
    ("open_auction", "itemref"))
UPDATE_STRING_PATHS = ("//item/name/text()", "//item/payment/text()",
                       "//person/name/text()", "//person/interest/text()")
UPDATE_NUMERIC_PATHS = ("//item/rating/text()", "//item/handling/text()",
                        "//open_auction/current/text()")

#: The corpus's four frequent attribute values and their disjunctions.
FAT_TEXTS = (
    '//item[@featured = "y"]',
    '//item[@featured = "n"]',
    '//open_auction[@status = "open"]',
    '//open_auction[@status = "closing"]',
    '//item[@featured = "y" or @featured = "n"]',
    '//item[@featured = "n" or @featured = "y"]',
    '//open_auction[@status = "open" or @status = "closing"]',
    '//open_auction[@status = "closing" or @status = "open"]',
)


@dataclass(frozen=True)
class Query:
    text: str
    cls: str            # one of CLASSES
    shape: str          # eq shape, "range" or "fat"
    document: str | None = None


@dataclass(frozen=True)
class Update:
    nid: int
    values: tuple[str, str]   # alternated pass by pass: equal work, no
    numeric: bool             # update is ever a no-op rewrite


def xmark_corpus_names() -> list[str]:
    return [f"xmark{seed}" for seed in XMARK_SEEDS]


def xmark_corpus() -> dict[str, str]:
    return {f"xmark{seed}": generate_xmark(XMARK_SCALE, seed=seed)
            for seed in XMARK_SEEDS}


def lifecycle_corpus() -> dict[str, str]:
    return {name: DATASETS[name].build(scale)
            for name, scale in LIFECYCLE_SCALES.items()}


class CorpusValues:
    """Value frequencies of the XMark corpus, per (record, field).

    Read straight off the generated markup (records never nest), so the
    literals do not depend on the engine being measured.
    """

    def __init__(self, corpus: dict[str, str]):
        self.counts: dict[tuple[str, str], Counter] = defaultdict(Counter)
        #: per (record, field): one float per record, for thresholds.
        self.numbers: dict[tuple[str, str], list[float]] = defaultdict(list)
        #: every item as {field: text}, for conjunctions.
        self.items: list[dict[str, str]] = []
        for xml in corpus.values():
            for record in ("item", "person", "open_auction"):
                pattern = rf"<{record} ([^>]*)>(.*?)</{record}>"
                for attrs, body in re.findall(pattern, xml, re.S):
                    self._record(record, attrs, body)

    def _record(self, record: str, attrs: str, body: str) -> None:
        fields: dict[str, str] = {}
        for name, value in re.findall(r'(\w+)="([^"]*)"', attrs):
            fields["@" + name] = value
        for name, value in re.findall(r"<(\w+)>([^<]*)</\1>", body):
            fields.setdefault(name, value)
        for name, value in fields.items():
            self.counts[record, name][value] += 1
            try:
                self.numbers[record, name].append(float(value))
            except ValueError:
                pass
        if record == "item":
            self.items.append(fields)

    def threshold(self, record: str, field: str, rows: int) -> float:
        """A literal with ``rows`` records of ``field`` strictly below
        it (give or take ties)."""
        ordered = sorted(self.numbers[record, field])
        return ordered[rows]


def _number(value: float) -> str:
    return repr(float(value))


def _typical(counter: Counter) -> list[str]:
    """Values whose frequency lies in the middle half of the field's
    frequencies, so every seed's literals return about as many rows."""
    ordered = sorted(counter.values())
    low, high = ordered[len(ordered) // 4], ordered[3 * len(ordered) // 4]
    return sorted(v for v, n in counter.items()
                  if low <= n <= min(high, EQ_MAX_ROWS))


def _eq_texts(values: CorpusValues, rng: random.Random,
              shape: str, count: int) -> list[str]:
    """``count`` texts of one eq shape.  Which record kind and operator
    a slot uses is fixed; the seed picks the field's literal."""
    ages = _typical(values.counts["person", "age"])
    if shape == "string":
        slots = (_STRING_FIELDS * 2)[:count]
        texts = [
            f'//{record}[{field} = "{word}"]'
            for record, field in slots
            for word in [rng.choice([
                w for w in _typical(values.counts[record, field])
                if w in WORDS])]
        ]
    elif shape == "numeric":
        half = count // 2
        texts = [f"//person[age = {age}]" for age in rng.sample(ages, half)]
        for index, item in enumerate(
                rng.sample(values.items, count - half)):
            field = _ITEM_NUMERIC[index % len(_ITEM_NUMERIC)]
            texts.append(f"//item[{field} = {_number(float(item[field]))}]")
    elif shape == "attribute":
        texts = [f'//item[@category = "{cat}"]' for cat in rng.sample(
            _typical(values.counts["item", "@category"]), count)]
    elif shape == "conjunction":
        texts = [
            f"//item[quantity = {_number(float(item['quantity']))} "
            f"and price < {_number(float(item['price']) + 10.0 ** (i % 3))}]"
            for i, item in enumerate(rng.sample(values.items, count))]
    else:  # disjunction
        picked = rng.sample(ages, 2 * count)
        texts = [f"//person[age = {a} or age = {b}]"
                 for a, b in zip(picked[:count], picked[count:])]
    if len(set(texts)) != count:  # two slots drew one literal
        return _eq_texts(values, rng, shape, count)
    return texts


#: Record kind of each rung of the range ladder (10 item, 4 auction,
#: 2 person); even rungs use ``<``, odd rungs ``>=``.
_RANGE_KINDS = ("item", "item", "open_auction", "item",
                "item", "person", "item", "open_auction") * 2


def _range_texts(values: CorpusValues, rng: random.Random) -> list[str]:
    texts = []
    for rung, (kind, share) in enumerate(zip(_RANGE_KINDS, RANGE_LADDER)):
        record, field = rng.choice(
            [key for key in _RANGE_FIELDS if key[0] == kind])
        total = len(values.numbers[record, field])
        rows = round(share * total)
        if rung % 2 == 0:
            bound = values.threshold(record, field, rows)
            texts.append(f"//{record}[{field} < {_number(bound)}]")
        else:
            bound = values.threshold(record, field, total - rows)
            texts.append(f"//{record}[{field} >= {_number(bound)}]")
    return texts


def query_pool(values: CorpusValues, seed: int) -> list[Query]:
    """The 64 distinct texts of one seed: 40 eq (8 per shape), 16 range,
    8 fat.  64 texts x 4 documents fill the plan cache (256) exactly and
    stay below the parse LRU (512)."""
    rng = random.Random(f"pool-{seed}")
    pool: list[Query] = []
    for shape in EQ_SHAPES:
        pool += [Query(text, "eq", shape)
                 for text in _eq_texts(values, rng, shape, PER_SHAPE)]
    pool += [Query(text, "range", "range")
             for text in _range_texts(values, rng)]
    pool += [Query(text, "fat", "fat") for text in FAT_TEXTS]
    if len({q.text for q in pool}) != len(pool):
        raise AssertionError("query pool holds a duplicate text")
    return pool


def read_sequence(pool: list[Query], seed: int | str,
                  draws: dict[str, int]) -> list[Query]:
    """Every pool text ``draws[its class]`` times, in one seeded order."""
    sequence = [query for query in pool for _ in range(draws[query.cls])]
    random.Random(f"order-{seed}").shuffle(sequence)
    return sequence


def update_plan(string_nids: list[int], numeric_nids: list[int],
                seed: int, count: int) -> list[Update]:
    """``count`` update targets, a quarter of them numeric leaves (so
    the double FSM index is maintained too), each with two values."""
    rng = random.Random(f"updates-{seed}")
    numeric = count // 4
    plan = []
    for nid in rng.sample(string_nids, count - numeric):
        words = [" ".join(rng.choice(WORDS) for _ in range(2))
                 for _ in range(2)]
        plan.append(Update(nid, (words[0], words[1] + " two"), False))
    for nid in rng.sample(numeric_nids, numeric):
        plan.append(Update(nid, (f"{rng.uniform(0, 1000):.2f}",
                                 f"{rng.uniform(0, 1000):.2f}"), True))
    rng.shuffle(plan)
    return plan


def class_row_limits(cls: str, records: int) -> tuple[int, int]:
    """Fewest and most rows a text of class ``cls`` may return."""
    if cls == "eq":
        return 0, EQ_MAX_ROWS
    low, high = CLASS_SHARES[cls]
    return int(low * records), int(high * records)


def catalog_queries() -> list[tuple[str, str]]:
    """(document, text) for every ``QUERY_SETS`` entry of the
    lifecycle corpora; the class label needs the row count and is
    assigned by the workload once the answer is known."""
    return [(name, text) for name in LIFECYCLE_SCALES
            for _label, text in QUERY_SETS[name]]


def catalog_class(text: str, rows: int) -> str:
    """eq/range/fat label of a catalog text: any inequality makes it a
    range; an equality is ``fat`` above the eq class's 50 rows."""
    predicate = text[text.index("["):]
    if any(op in predicate for op in ("<", ">")):
        return "range"
    return "fat" if rows > EQ_MAX_ROWS else "eq"
