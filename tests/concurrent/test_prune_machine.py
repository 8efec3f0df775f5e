"""Readers never prune; every publish does.

The state machine interleaves session pins opening and closing, text
updates, checkpoints and resizes of the time-travel window over one
database, and checks two things:

* every open pin (and every retained ``as_of`` epoch) reads the text
  its epoch saw, so no prune reclaimed a version a reader still needs;
* after every publish (a text update or a checkpoint), no overlay holds
  a version at or below ``min(oldest pin, oldest retained, published)``,
  so the publish pruned everything no reader can need.
"""

import os
import shutil
import tempfile

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.database import Database
from repro.xmldb import TEXT

VALUES = ["1", "2.5", "towel", "", "7", "x"]
XML = "<r><a>1</a><b>two</b><c>3</c><d><e>four</e><f>5</f></d></r>"


class PinPruneMachine(RuleBasedStateMachine):
    @initialize()
    def setup(self):
        self.root = tempfile.mkdtemp(prefix="pin-prune-")
        self.db = Database(os.path.join(self.root, "db"),
                           typed=("double",), checkpoint_every=0)
        self.doc = self.db.load("doc", XML)
        self.controller = self.db.manager.concurrency
        self.pres = [p for p in range(len(self.doc))
                     if self.doc.kind[p] == TEXT]
        #: open pins with the texts their epoch saw
        self.pins: list[tuple[object, list[str]]] = []
        #: published epoch -> the texts it saw
        self.history = {self._published(): self._texts()}

    def _published(self) -> int:
        return self.controller.published().epoch

    def _texts(self) -> list[str]:
        return [self.doc.text_of(p) for p in self.pres]

    def _read_in(self, view) -> list[str]:
        with view:
            return self._texts()

    def _after_publish(self):
        self.history[self._published()] = self._texts()
        bound = min([self._published(),
                     *(pin.epoch for pin, _ in self.pins),
                     *self.controller.retained_epochs()])
        stale = [(slot, epoch)
                 for slot, chain in self.doc.text_overlay.versions.items()
                 for epoch, _before in chain if epoch <= bound]
        assert stale == [], f"unpruned at bound {bound}: {stale}"

    @rule()
    def open_pin(self):
        self.pins.append((self.controller.open_pin(), self._texts()))

    @precondition(lambda self: self.pins)
    @rule(pick=st.integers(0, 10**6))
    def close_pin(self, pick):
        pin, _ = self.pins.pop(pick % len(self.pins))
        self.controller.close_pin(pin)

    @rule(at=st.integers(0, 10**6), value=st.sampled_from(VALUES))
    def update_text(self, at, value):
        pre = self.pres[at % len(self.pres)]
        self.db.update_text(self.doc.nid[pre], value)
        self._after_publish()

    @rule()
    def checkpoint(self):
        self.db.checkpoint()
        self._after_publish()

    @rule(epochs=st.integers(0, 3))
    def set_retention(self, epochs):
        self.controller.set_retention(epochs)

    @invariant()
    def pins_read_their_epoch(self):
        for pin, seen in self.pins:
            assert self._read_in(self.controller.read_view_at(pin)) == seen
        for epoch in self.controller.retained_epochs():
            view = self.controller.read_view_as_of(epoch)
            assert self._read_in(view) == self.history[epoch]

    def teardown(self):
        if hasattr(self, "db"):
            for pin, _ in self.pins:
                self.controller.close_pin(pin)
            self.db.close(checkpoint=False)
            shutil.rmtree(self.root, ignore_errors=True)


PinPruneMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=30, deadline=None
)
TestPinPrune = PinPruneMachine.TestCase
