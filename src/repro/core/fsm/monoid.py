"""Transition monoids: the paper's "normalised FSM" and its SCT.

Section 4 of the paper normalises each type FSM "in such a way that
[paths] lead to different copies of the same state ... As a result,
there are 60 different states" for doubles, and then defines a *state
combination table* (SCT) with ``state(a·b) = SCT[state(a)][state(b)]``.

The canonical mathematical object behind that construction is the
**transition monoid** of the DFA: every string ``w`` induces a function
``f_w : Q -> Q`` (where ``f_w(q)`` is the state reached from ``q`` after
reading ``w``), and ``f_{ab} = f_b ∘ f_a``.  Function composition is
associative, so the multiplication table of the monoid *is* a correct
SCT by construction — for any type, not just doubles.  This module
builds that monoid from a compiled :class:`~repro.core.fsm.machine.Dfa`.

Element 0 is the *reject* element (the all-to-dead function): "the
absence of a state signifies the reject state".  Every element records:

* ``castable`` — reading the fragment from the DFA's initial state ends
  in a final state, i.e. the fragment on its own is a lexical value;
* ``useful`` — some left context can be extended through the fragment
  towards acceptance (the paper's "potential valid lexical
  representation"); non-useful fragments are rejected early.
"""

from __future__ import annotations

from .machine import DEAD, Dfa

__all__ = ["TransitionMonoid", "REJECT"]

#: Element id of the reject (dead) element.
REJECT = 0


class TransitionMonoid:
    """The transition monoid of a DFA, with its multiplication table.

    Args:
        dfa: The compiled type DFA.
        max_elements: Safety bound on the number of monoid elements; the
            paper stores a state in one byte (60 states for doubles), so
            machines are expected to stay small.  Construction raises
            ``ValueError`` if the bound is exceeded.
    """

    def __init__(self, dfa: Dfa, max_elements: int = 255):
        self.dfa = dfa
        n = dfa.n_states
        dead_fn = tuple([DEAD] * n)
        identity_fn = tuple(range(n))
        generators = []
        for cls in range(dfa.n_classes):
            generators.append(tuple(dfa.table[q][cls] for q in range(n)))

        # Close {identity} ∪ generators under composition.  Every product
        # of generators is reached by right-multiplying by one generator,
        # so a BFS over right-multiplication covers the whole monoid.
        elements: list[tuple[int, ...]] = [dead_fn, identity_fn]
        index: dict[tuple[int, ...], int] = {dead_fn: REJECT, identity_fn: 1}
        frontier = [identity_fn]
        while frontier:
            fn = frontier.pop()
            for gen in generators:
                product = tuple(gen[fn[q]] for q in range(n))
                if product not in index:
                    if len(elements) >= max_elements:
                        raise ValueError(
                            f"transition monoid of {dfa.name!r} exceeds "
                            f"{max_elements} elements; simplify the DFA"
                        )
                    index[product] = len(elements)
                    elements.append(product)
                    frontier.append(product)

        self.elements = elements
        self.identity = 1
        self._index = index
        self.generator_ids = [index[gen] for gen in generators]

        # Multiplication table (the SCT): table[a][b] = id of b∘a, i.e.
        # the element of the concatenation "fragment a then fragment b".
        size = len(elements)
        table = []
        for a_fn in elements:
            row = [0] * size
            for b_id, b_fn in enumerate(elements):
                product = tuple(b_fn[a_fn[q]] for q in range(n))
                row[b_id] = index[product]
            table.append(row)
        self.table = table

        reachable = dfa.reachable_states()
        coreachable = dfa.coreachable_states()
        self.castable = [fn[dfa.initial] in dfa.finals for fn in elements]
        self.useful = [
            any(fn[q] != DEAD and fn[q] in coreachable for q in reachable)
            for fn in elements
        ]
        # Cache for class-run powers: (class_id, length) -> element id.
        self._run_cache: dict[tuple[int, int], int] = {}

    def __len__(self) -> int:
        return len(self.elements)

    def combine(self, left: int, right: int) -> int:
        """SCT probe: the state of the concatenation of two fragments."""
        return self.table[left][right]

    def combine_all(self, states) -> int:
        """Fold :meth:`combine` over ``states``; identity when empty."""
        result = self.identity
        table = self.table
        for state in states:
            result = table[result][state]
        return result

    def generator(self, class_id: int) -> int:
        """Element id of a single character of class ``class_id``."""
        return self.generator_ids[class_id]

    def class_run(self, class_id: int, length: int) -> int:
        """Element id of ``length`` repeated characters of one class.

        Run powers stabilise or cycle quickly (for digits, ``d·d = d^k``
        for all ``k >= 2`` in typical numeric machines), so results are
        memoised and long runs cost O(cycle) table probes.
        """
        if length <= 0:
            return self.identity
        key = (class_id, length)
        cached = self._run_cache.get(key)
        if cached is not None:
            return cached
        gen = self.generator_ids[class_id]
        # Walk powers gen^1, gen^2, ... recording the first repeat; the
        # power sequence is then eventually periodic.
        powers = [gen]
        seen_at = {gen: 0}
        current = gen
        while True:
            current = self.table[current][gen]
            if current in seen_at:
                start = seen_at[current]
                period = len(powers) - start
                break
            seen_at[current] = len(powers)
            powers.append(current)
        for i, power in enumerate(powers):
            self._run_cache[(class_id, i + 1)] = power
        if length <= len(powers):
            return powers[length - 1]
        result = powers[start + (length - 1 - start) % period]
        self._run_cache[key] = result
        return result

    def is_idempotent(self, element: int) -> bool:
        """True iff combining the element with itself is a no-op."""
        return self.table[element][element] == element

    def state_of_text(self, text: str) -> int:
        """Element id induced by ``text`` (character-by-character).

        This is the reference implementation; the tokenizer in
        :mod:`repro.core.fsm.fragment` computes the same element from
        token runs using :meth:`class_run`.
        """
        classify = self.dfa.classify
        table = self.table
        state = self.identity
        for ch in text:
            cls = classify(ch)
            if cls is None:
                return REJECT
            state = table[state][self.generator_ids[cls]]
            if state == REJECT:
                return REJECT
        return state
