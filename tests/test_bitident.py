"""The bit-identity harness against the tree itself, whole and broken."""

import re

import bitident
import cosattn

PACKAGE = bitident.REPO / "src" / "cosattn"


def test_the_tree_is_bit_identical_to_itself(capsys):
    # Directory mode: no git, the same package imported a second time.
    assert bitident.main([str(PACKAGE)]) == 0
    report = capsys.readouterr().out
    assert "DIFF" not in report
    compared = int(re.search(r"^0 of (\d+) arrays differ", report, re.M).group(1))
    assert compared > 1000


def test_a_dropped_carry_on_one_side_differs():
    copy = bitident.load(PACKAGE, "cosattn_bitident_copy")
    assert copy.linear is not cosattn.linear
    lengths = (32, 129)  # one chunk; past one panel
    with copy.equivalence._injected("dropped_carry"):
        broken = bitident.arrays(copy, lengths)
    found = bitident.differing(broken, bitident.arrays(cosattn, lengths))
    # Only a causal kernel walk past one chunk carries, and the decode;
    # the trainer's n = 32 walks carry nothing, so its loss curves match.
    assert all(name.startswith("decode ") or name.startswith("n=129 ")
               and " causal " in name and "softmax" not in name
               for name in found), sorted(found)
    assert {"decode rows", "decode carry", "n=129 cosine causal float64 lead=() out",
            "n=129 linear causal float32 lead=(2,) dK"} <= found.keys()
    assert all("relative difference" in found[name] for name in found)
