"""The hash function's URL pathology, and why lookups stay correct.

The paper's Figure 11 finds that Wikipedia URLs defeat the hash
function: characters repeated every 27 positions XOR into the same
c-array offset and cancel, so families of distinct URLs share one hash
value (up to 9 observed).  This example reproduces the pathology and
shows the equality lookup remaining exact thanks to candidate
verification.

Run:  python examples/hash_collisions.py
"""

import random

from repro import IndexManager, hash_string
from repro.workloads import collision_family


def main():
    rng = random.Random(2025)
    family = collision_family(rng, 5)
    print("== five distinct URLs, one hash value ==")
    for url in family:
        print(f"  {hash_string(url):#010x}  {url}")
    assert len({hash_string(u) for u in family}) == 1

    print("\n== why: swap two characters 27 positions apart ==")
    a = "http://www." + "a" + "x" * 26 + "b" + "/wiki/Guide"
    b = "http://www." + "b" + "x" * 26 + "a" + "/wiki/Guide"
    print(f"  H(a) = {hash_string(a):#010x}")
    print(f"  H(b) = {hash_string(b):#010x}   (offset 5*i mod 27 collides)")

    manager = IndexManager(typed=())
    links = "".join(f"<link>{url}</link>" for url in family)
    manager.load("links", f"<feed>{links}</feed>")

    target = family[2]
    print("\n== candidate sets vs verified answers ==")
    candidates = list(manager.string_index.candidates(target))
    verified = list(manager.lookup_string(target))
    print(f"  hash candidates: {len(candidates)} nodes "
          f"(all five URLs' text+element nodes)")
    print(f"  after verification: {len(verified)} nodes (exact)")
    for nid in verified:
        doc, pre = manager.store.node(nid)
        kind = "element" if doc.kind[pre] == 1 else "text"
        print(f"    {kind}: {doc.string_value(pre)}")
    assert all(
        manager.store.node(n)[0].string_value(manager.store.node(n)[1]) == target
        for n in verified
    )


if __name__ == "__main__":
    main()
