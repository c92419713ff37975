"""AM counting, IN matching, equivariance, full reports."""

import hashlib
import json
from pathlib import Path

import pytest

from blocktool import chartab
from blocktool.blocks import block_partition
from blocktool.cli import main
from blocktool.data import group_path
from blocktool.fileio import read_group_file
from blocktool.chartab import character_table
from blocktool.errors import NotAnAutomorphism
from blocktool.permcore import Permutation
from blocktool.verify import (
    SuppliedAutomorphism,
    am_check,
    brauer_correspondent,
    equivariance_spot_check,
    full_group_report,
    in_refinement_check,
    maximum_bipartite_matching,
    render_report_text,
)


def perm(degree, *cycles):
    return Permutation.from_cycles(degree, cycles)


def blocks_of(corpus, key, p):
    return block_partition(character_table(corpus[key]), p)


# -- AM -----------------------------------------------------------------------


def test_am_a5_principal(corpus):
    B = blocks_of(corpus, "a5", 5).principal_block()
    Bp, N = brauer_correspondent(B)
    assert N.order == 10
    assert sorted(Bp.degrees) == [1, 1, 2, 2]
    assert am_check(B) == (4, 4, True)


def test_am_defect_zero_trivial(corpus):
    B = next(b for b in blocks_of(corpus, "a5", 5) if b.defect == 0)
    assert am_check(B) == (1, 1, True)


def test_am_s3_self_normalizing(corpus):
    B = blocks_of(corpus, "s3", 3).principal_block()
    assert am_check(B) == (3, 3, True)


def test_am_all_cyclic_corpus_blocks(corpus):
    from blocktool.blocks import defect_group
    from blocktool.permcore import is_cyclic

    for key, p in (("a5", 5), ("a5", 3), ("s3", 2), ("s4", 3), ("d10", 2),
                   ("sl23", 3), ("psl27", 3), ("psl27", 7)):
        for B in blocks_of(corpus, key, p):
            if not is_cyclic(defect_group(B)):
                continue
            got = am_check(B)
            assert got[2], (key, p, B, got)


# -- matching helper ---------------------------------------------------------------


def test_maximum_matching_small():
    adj = {0: [10, 11], 1: [10], 2: [11]}
    m = maximum_bipartite_matching([0, 1, 2], adj)
    assert len(m) == 2  # vertex 1 and 2 compete with 0 for {10, 11}
    adj = {0: [10], 1: [11], 2: [12]}
    assert len(maximum_bipartite_matching([0, 1, 2], adj)) == 3


# -- IN refinement ---------------------------------------------------------------------


def test_in_refinement_a5(corpus):
    B = blocks_of(corpus, "a5", 5).principal_block()
    ok, witness = in_refinement_check(B)
    assert ok
    assert len(witness) == 4
    # c = |A5 : D10|_{5'} = 6 = 1 (mod 5); every matched pair has a sign
    assert all(w["signs"] for w in witness)


def test_in_refinement_p2_collapses_signs(corpus):
    B = blocks_of(corpus, "s3", 2).principal_block()
    ok, witness = in_refinement_check(B)
    assert ok
    for w in witness:
        assert w["signs"] == [1, -1]


def test_in_refinement_defect_zero(corpus):
    B = next(b for b in blocks_of(corpus, "a5", 5) if b.defect == 0)
    ok, witness = in_refinement_check(B)
    assert ok and witness[0]["character"] == witness[0]["local_character"]


def test_in_refinement_exceptional_constraint(corpus):
    # A5 at 5: both sides have m = 2; the matching must pair the families
    from blocktool.cyclicblocks import analyze_cyclic_block

    B = blocks_of(corpus, "a5", 5).principal_block()
    data = analyze_cyclic_block(B)
    Bp, _N = brauer_correspondent(B)
    data_local = analyze_cyclic_block(Bp)
    ok, witness = in_refinement_check(B)
    assert ok
    for w in witness:
        g_exc = w["character"] in data.exceptional
        l_exc = w["local_character"] in data_local.exceptional
        assert g_exc == l_exc


def test_in_refinement_all_cyclic_corpus_blocks(corpus):
    from blocktool.blocks import defect_group
    from blocktool.permcore import is_cyclic

    for key, p in (("a5", 5), ("a5", 3), ("s3", 2), ("s3", 3), ("s4", 3),
                   ("d10", 2), ("d10", 5), ("sl23", 3), ("psl27", 3), ("psl27", 7)):
        for B in blocks_of(corpus, key, p):
            if not is_cyclic(defect_group(B)):
                continue
            ok, _w = in_refinement_check(B)
            assert ok, (key, p, B)


# -- equivariance -----------------------------------------------------------------------


def test_inner_automorphism_fixes_characters(corpus):
    G = corpus["a5"]
    B = blocks_of(corpus, "a5", 5).principal_block()
    inner = G.generators[0]
    results = equivariance_spot_check(B, [inner])
    assert results[0]["ok"]
    auto = SuppliedAutomorphism(G, inner)
    T = character_table(G)
    assert auto.character_permutation(T) == tuple(range(T.k))


def test_transposition_swaps_exceptional_pair(corpus):
    from blocktool.cyclicblocks import analyze_cyclic_block

    G = corpus["a5"]
    B = blocks_of(corpus, "a5", 5).principal_block()
    a = perm(5, (1, 2))
    auto = SuppliedAutomorphism(G, a)
    T = character_table(G)
    sigma = auto.character_permutation(T)
    data = analyze_cyclic_block(B)
    e1, e2 = data.exceptional
    assert sigma[e1] == e2 and sigma[e2] == e1
    assert all(sigma[i] == i for i in data.nonexceptional)
    results = equivariance_spot_check(B, [a])
    assert results[0]["ok"]
    assert results[0]["checks"]["partition_preserved"]


def test_s3_inner_on_3_block(corpus):
    G = corpus["s3"]
    B = blocks_of(corpus, "s3", 3).principal_block()
    results = equivariance_spot_check(B, [perm(3, (1, 2))])
    assert results[0]["ok"]


def test_two_rational_members_fixed_at_p2(corpus):
    G = corpus["d10"]
    B = blocks_of(corpus, "d10", 2).principal_block()
    # conjugation by any element of D10 and by the C5-normalizing 4-cycle in S5
    autos = [G.generators[0], perm(5, (2, 3, 5, 4))]
    for entry in equivariance_spot_check(B, autos):
        assert entry["ok"]
        assert entry["checks"]["two_rational_fixed"]


def test_non_normalizing_permutation_rejected():
    from blocktool.permcore import PermGroup

    C5 = PermGroup(5, [perm(5, (1, 2, 3, 4, 5))])
    with pytest.raises(NotAnAutomorphism):
        SuppliedAutomorphism(C5, perm(5, (1, 2)))


# -- full reports -----------------------------------------------------------------------


def test_full_report_a5(corpus):
    report = full_group_report(corpus["a5"], 5, name="A5")
    assert report["overall"]
    assert report["block_count"] == 2
    principal = next(b for b in report["blocks"] if sorted(b["degrees"]) == [1, 3, 3, 4])
    assert principal["checks"]["am"]["ok"]
    assert principal["checks"]["in_refinement"]["ok"]
    assert principal["checks"]["baw"] == {"ibr": 2, "weights": 2, "ok": True}
    assert principal["cyclic"]["tree"]["cartan_determinant"] == 5


def test_full_report_s3(corpus):
    report = full_group_report(corpus["s3"], 3, name="S3")
    assert report["overall"]


def test_full_report_central_defect(corpus):
    report = full_group_report(corpus["c4"], 2, name="C4")
    assert report["overall"]
    b = report["blocks"][0]
    assert "central-defect" in b["flags"]
    assert b["checks"]["am"]["ok"]
    assert b["checks"]["baw"]["ok"]


def test_full_report_noncyclic_blocks_skip_baw(corpus):
    report = full_group_report(corpus["a4"], 2, name="A4")
    assert report["overall"]
    b = report["blocks"][0]
    assert "not-cyclic-defect" in b["flags"]
    assert "skipped" in b["checks"]["baw"]


def test_render_text(corpus):
    report = full_group_report(corpus["s3"], 3, name="S3")
    text = render_report_text(report)
    assert "overall: pass" in text
    assert "block 0" in text


def test_full_report_c7_central_defect():
    from blocktool.permcore import PermGroup

    C7 = PermGroup(7, [perm(7, (1, 2, 3, 4, 5, 6, 7))])
    report = full_group_report(C7, 7, name="C7")
    assert report["overall"]
    b = report["blocks"][0]
    assert "central-defect" in b["flags"]
    assert b["checks"]["am"] == {"height_zero": 7, "local_height_zero": 7, "ok": True}
    assert b["checks"]["baw"]["ok"]


def test_equivariance_skips_non_stabilizing_automorphism(corpus):
    # at p = 3 the two degree-3 characters of A5 are swapped by (1 2), so the
    # two defect-zero blocks are exchanged and the check must skip with notice
    G = corpus["a5"]
    part = blocks_of(corpus, "a5", 3)
    deg3_block = next(b for b in part if b.degrees == (3,))
    results = equivariance_spot_check(deg3_block, [perm(5, (1, 2))])
    assert results[0]["skipped"] == "does not stabilize the block"


def test_outer_automorphism_of_psl27(corpus):
    # multiplication by the non-square 3 on the projective line realizes an
    # outer automorphism: it must stabilize the principal 7-block, swap the
    # two exceptional degree-3 characters, and fix the non-exceptional ones
    from blocktool.cyclicblocks import analyze_cyclic_block

    G = corpus["psl27"]
    B = blocks_of(corpus, "psl27", 7).principal_block()
    outer = perm(8, (2, 4, 3, 7, 5, 6))
    auto = SuppliedAutomorphism(G, outer)
    T = character_table(G)
    sigma = auto.character_permutation(T)
    data = analyze_cyclic_block(B)
    e1, e2 = data.exceptional
    assert sigma[e1] == e2 and sigma[e2] == e1
    assert all(sigma[i] == i for i in data.nonexceptional)
    results = equivariance_spot_check(B, [outer])
    assert results[0]["ok"]
    assert results[0]["checks"]["partition_preserved"]
    assert results[0]["checks"]["heights_preserved"]


def test_full_report_trivial_group():
    from blocktool.permcore import PermGroup

    report = full_group_report(PermGroup(1, []), 2, name="1")
    assert report["overall"]
    assert report["block_count"] == 1
    b = report["blocks"][0]
    assert b["defect"] == 0
    assert b["checks"]["baw"] == {"ibr": 1, "weights": 1, "ok": True}


# -- one computation per subgroup ------------------------------------------------------


def test_m11_report_runs_dixon_schneider_once_per_generator_tuple(monkeypatch):
    runs = []
    original = chartab._dixon_schneider

    def recording(G, *args):
        runs.append((G.degree, tuple(g.images for g in G.generators)))
        return original(G, *args)

    monkeypatch.setattr(chartab, "_dixon_schneider", recording)
    _name, G = read_group_file(group_path("m11"))
    report = full_group_report(G, 11)
    assert report["overall"]
    assert len(runs) == len(set(runs))


EXPECTED = Path(__file__).resolve().parents[1] / "perfbench" / "expected" / "verify-m11-psl211.json"


@pytest.mark.parametrize("p", [2, 3, 5, 11])
def test_psl211_verify_bytes_match_the_benchmark_hash(capsys, p):
    want = json.loads(EXPECTED.read_text(encoding="utf-8"))["sha256_seed0"][f"verify:psl211:p{p}"]
    code = main(["verify", str(group_path("psl211")), "--prime", str(p)])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want
