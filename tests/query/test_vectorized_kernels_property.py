"""Randomized differential tests for the batch structural kernels.

Generates seeded adversarial documents — deep single-child chains,
wide flat fanouts, mixed element/attribute/text shapes with heavy tag
reuse — and checks the numpy kernels against brute force over the
naive evaluator, node for node:

* ``ancestor_walk(hits, steps)`` ≡ every context ``c`` with
  ``evaluate_path(doc, [c], steps)`` reaching a hit;
* ``structural_verify`` ≡ membership in ``evaluate_path(doc, [0], steps)``;
* full ``query()``  ≡ ``evaluate_naive``.

Tag reuse is the adversarial ingredient: the same name appearing at
many depths produces overlapping containment intervals, which is
exactly what the prefix-maximum interval stabbing must get right — and
what separates the child axis from the descendant axis, which the
workload corpora (flat records) do not.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from repro.core import IndexManager
from repro.query import evaluate_naive, executor, parse_query, query
from repro.query.ast import (
    AttributeTest,
    NameTest,
    Step,
    TextTest,
    WildcardTest,
)
from repro.query.evaluator import evaluate_path
from repro.query.kernels import ancestor_walk, structural_verify

TAGS = ("a", "b", "c", "d")
ATTRS = ("x", "y")


def _random_xml(rng: random.Random, budget: int) -> str:
    """One adversarial document: recursive, tag-poor, mixed-kind."""

    def element(depth: int, budget: int) -> tuple[str, int]:
        tag = rng.choice(TAGS)
        attrs = ""
        if rng.random() < 0.3:
            attrs = f' {rng.choice(ATTRS)}="{rng.randint(0, 9)}"'
        children = []
        budget -= 1
        # Bias the shape: long chains at low fanout rolls, wide
        # fanouts otherwise — both extremes stress the interval maths.
        fanout = rng.choice((1, 1, 1, 2, 2, 3, 8))
        for _ in range(fanout):
            if budget <= 0:
                break
            if rng.random() < 0.35:
                children.append(str(rng.randint(0, 99)))
            else:
                child, budget = element(depth + 1, budget)
                children.append(child)
        return f"<{tag}{attrs}>{''.join(children)}</{tag}>", budget

    body, _ = element(0, budget)
    return f"<root>{body}</root>"


def _random_steps(rng: random.Random) -> tuple[Step, ...]:
    steps = []
    for idx in range(rng.randint(1, 4)):
        axis = "descendant" if idx == 0 or rng.random() < 0.5 else "child"
        roll = rng.random()
        if roll < 0.6:
            test = NameTest(rng.choice(TAGS + ("root", "zzz")))
        elif roll < 0.75:
            test = WildcardTest()
        elif roll < 0.9:
            test = AttributeTest(rng.choice(ATTRS + ("*",)))
        else:
            test = TextTest()
        steps.append(Step(axis=axis, test=test))
    return tuple(steps)


def _load(rng: random.Random, budget: int = 60):
    manager = IndexManager(string=True, typed=("double",))
    manager.load("doc", _random_xml(rng, budget))
    doc = manager.store.document("doc")
    return manager, doc, doc.columns()


@pytest.mark.parametrize("seed", range(25))
def test_ancestor_walk_matches_oracle(seed):
    rng = random.Random(seed)
    manager, doc, cols = _load(rng)
    all_pres = np.arange(len(doc), dtype=np.int64)
    for _ in range(8):
        steps = _random_steps(rng)
        hits = np.sort(
            rng.sample(range(len(doc)), rng.randint(0, min(12, len(doc))))
        ).astype(np.int64) if len(doc) else all_pres[:0]
        wanted = set(hits.tolist())
        expected = [
            context
            for context in range(len(doc))
            if wanted.intersection(evaluate_path(doc, [context], steps))
        ]
        got = ancestor_walk(cols, hits, steps)
        assert got.tolist() == expected, (seed, steps)


@pytest.mark.parametrize("seed", range(25))
def test_structural_verify_matches_oracle(seed):
    rng = random.Random(1000 + seed)
    manager, doc, cols = _load(rng)
    for _ in range(8):
        steps = _random_steps(rng)
        candidates = np.sort(
            rng.sample(range(len(doc)), rng.randint(0, min(15, len(doc))))
        ).astype(np.int64)
        selected = set(evaluate_path(doc, [0], steps))
        expected = [
            pre for pre in candidates.tolist() if pre in selected
        ]
        got = structural_verify(cols, candidates, steps, None)
        assert got.tolist() == expected, (seed, steps)


#: Query templates exercising index routes over the adversarial docs.
QUERY_TEMPLATES = (
    "//{t}[{u} = {n}]",
    "//{t}[{u} > {n}]",
    "//{t}[{u} >= {n} and {u} < {m}]",
    "//{t}[@{a} = '{n}']",
    "//{t}[.//{u} = {n}]",
    "//{t}/{u}",
    "//{t}[{u} = {n} or @{a} = '{m}']",
    "//{t}[.//{u} > {n}]",
)


def _query_divergences(seed: int) -> list[str]:
    """Template queries over one random document whose executor answer
    differs from the oracle's."""
    rng = random.Random(2000 + seed)
    manager, doc, cols = _load(rng, budget=120)
    diverging = []
    for template in QUERY_TEMPLATES:
        text = template.format(
            t=rng.choice(TAGS),
            u=rng.choice(TAGS),
            a=rng.choice(ATTRS),
            n=rng.randint(0, 99),
            m=rng.randint(0, 99),
        )
        parsed = parse_query(text)
        naive = [doc.nid[pre] for pre in evaluate_naive(doc, parsed.path)]
        if query(manager, text) != naive:
            diverging.append(text)
    return diverging


@pytest.mark.parametrize("seed", range(15))
def test_full_query_equivalence_on_random_docs(seed):
    assert _query_divergences(seed) == [], seed


@pytest.mark.parametrize("wrong, right", [
    ("descendant", "child"),
    ("child", "descendant"),
])
def test_oracle_catches_a_walk_confusing_the_axes(monkeypatch, wrong, right):
    """Fails-if-the-oracle-is-blind: the workload corpora keep every
    operand one level below its context, so only these nested random
    documents tell ``child`` from ``descendant`` in the walk."""

    def buggy(cols, hits, steps):
        confused = tuple(
            replace(step, axis=wrong) if step.axis == right else step
            for step in steps
        )
        return ancestor_walk(cols, hits, confused)

    monkeypatch.setattr(executor, "ancestor_walk", buggy)
    assert any(_query_divergences(seed) for seed in range(15))
