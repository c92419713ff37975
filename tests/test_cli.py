"""CLI end-to-end: commands, exit codes, determinism, cache, round-trips."""

import json

import pytest

from blocktool.cli import main
from blocktool.data import group_path, manifest_path
from blocktool.fileio import (
    canonical_json,
    group_from_obj,
    group_to_obj,
    read_group_file,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- analyze ---------------------------------------------------------------------


def test_analyze_a5_at_5(capsys):
    code, out, _err = run(capsys, "analyze", str(group_path("a5")), "--prime", "5")
    assert code == 0
    report = json.loads(out)
    assert report["prime"] == 5
    shapes = sorted(sorted(b["degrees"]) for b in report["blocks"])
    assert shapes == [[1, 3, 3, 4], [5]]


def test_analyze_trivial_like_group(capsys, tmp_path):
    from blocktool.permcore import PermGroup

    path = tmp_path / "t.json"
    path.write_text(canonical_json(group_to_obj("T", PermGroup(1, []))))
    code, out, _err = run(capsys, "analyze", str(path), "--prime", "2")
    assert code == 0
    report = json.loads(out)
    assert len(report["blocks"]) == 1
    assert report["blocks"][0]["defect"] == 0


def test_analyze_text_mode(capsys):
    code, out, _err = run(capsys, "analyze", str(group_path("s3")), "--prime", "3", "--text")
    assert code == 0
    assert "block 0" in out


# -- tree -------------------------------------------------------------------------


def test_tree_command(capsys):
    code, out, _err = run(capsys, "tree", str(group_path("a5")), "--prime", "5", "--block", "0")
    assert code == 0
    tree = json.loads(out)
    assert tree["e"] == 2 and tree["multiplicity"] == 2
    assert tree["tree"]["cartan_determinant"] == 5


def test_tree_command_rejects_defect_zero_block(capsys):
    code, _out, err = run(capsys, "tree", str(group_path("a5")), "--prime", "5", "--block", "1")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


# -- verify ------------------------------------------------------------------------


def test_verify_a5(capsys):
    code, out, _err = run(capsys, "verify", str(group_path("a5")), "--prime", "5",
                          "--checks", "am,in,baw")
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert report["block_count"] == 2


def test_verify_with_autos(capsys, tmp_path):
    autos = tmp_path / "autos.json"
    autos.write_text(json.dumps([[2, 1, 3, 4, 5]]))  # transposition (1 2)
    code, out, _err = run(capsys, "verify", str(group_path("a5")), "--prime", "5",
                          "--autos", str(autos))
    assert code == 0
    report = json.loads(out)
    principal = next(b for b in report["blocks"] if len(b["characters"]) == 4)
    assert principal["equivariance"][0]["ok"]


def test_verify_unknown_check(capsys):
    code, _out, err = run(capsys, "verify", str(group_path("a5")), "--prime", "5",
                          "--checks", "am,bogus")
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


# -- lietype --------------------------------------------------------------------------


def test_lietype_command(capsys):
    code, out, _err = run(capsys, "lietype", "--series", "A", "--n", "2",
                          "--q", "2", "--p", "7")
    assert code == 0
    record = json.loads(out)
    assert record["criterion"] is True
    assert record["d"] == 3
    assert record["set"] == [2, 3]
    assert record["divides"] == [3]


def test_lietype_with_realization(capsys):
    code, out, _err = run(capsys, "lietype", "--series", "A", "--n", "2",
                          "--q", "2", "--p", "3",
                          "--realization", str(group_path("psl32_deg7")))
    assert code == 0
    record = json.loads(out)
    assert record["sylow_cyclic"] is True and record["consistent"] is True


def test_lietype_usage_error(capsys):
    code, _out, err = run(capsys, "lietype", "--series", "A", "--n", "1",
                          "--q", "2", "--p", "7")
    assert code == 2
    assert json.loads(err)["error"] == "unsupported-series"


# -- table and cache ---------------------------------------------------------------------


def test_table_command_and_cache_round_trip(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out1, _ = run(capsys, "table", str(group_path("s4")), "--cache", str(cache))
    assert code == 0
    cached_files = list(cache.glob("table-*.json"))
    assert len(cached_files) == 1
    code, out2, _ = run(capsys, "table", str(group_path("s4")), "--cache", str(cache))
    assert code == 0
    assert out1 == out2  # loading from cache is bit-identical to computing


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("BLOCKTOOL_CACHE", str(tmp_path / "envcache"))
    code, _out, _err = run(capsys, "table", str(group_path("c4")))
    assert code == 0
    assert list((tmp_path / "envcache").glob("table-*.json"))


def test_corrupt_cache_is_recomputed(capsys, tmp_path):
    cache = tmp_path / "cache"
    code, out1, _ = run(capsys, "table", str(group_path("s3")), "--cache", str(cache))
    assert code == 0
    victim = next(cache.glob("table-*.json"))
    obj = json.loads(victim.read_text())
    obj["characters"][0][0]["terms"] = [[0, 2, 1]]  # break orthogonality
    victim.write_text(json.dumps(obj))
    code, out2, _ = run(capsys, "table", str(group_path("s3")), "--cache", str(cache))
    assert code == 0
    assert out1 == out2


# -- group file round trip -----------------------------------------------------------------


def test_group_file_round_trip():
    name, G = read_group_file(group_path("a5"))
    obj = group_to_obj(name, G)
    name2, G2 = group_from_obj(json.loads(canonical_json(obj)))
    assert name2 == name
    assert G2.generators == G.generators
    assert canonical_json(group_to_obj(name2, G2)) == canonical_json(obj)


# -- corpus ----------------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    base = tmp_path_factory.mktemp("corpus")
    import shutil

    for key in ("s3", "d10"):
        shutil.copy(group_path(key), base / f"{key}.json")
    manifest = {
        "schema": 1,
        "entries": [
            {"group": "s3.json", "primes": [2, 3]},
            {"group": "d10.json", "primes": [2, 5]},
        ],
    }
    path = base / "manifest.json"
    path.write_text(canonical_json(manifest))
    return path


def test_corpus_small(capsys, small_manifest):
    code, out, _err = run(capsys, "corpus", str(small_manifest))
    assert code == 0
    report = json.loads(out)
    assert report["overall"] is True
    assert len(report["entries"]) == 4
    assert [e["prime"] for e in report["entries"]] == [2, 3, 2, 5]


def test_corpus_byte_identical_runs(capsys, small_manifest):
    code1, out1, _ = run(capsys, "corpus", str(small_manifest))
    code2, out2, _ = run(capsys, "corpus", str(small_manifest))
    assert code1 == code2 == 0
    assert out1 == out2


def test_corpus_parallel_jobs_match_serial(capsys, small_manifest):
    _c1, serial, _ = run(capsys, "corpus", str(small_manifest))
    _c2, parallel, _ = run(capsys, "corpus", str(small_manifest), "--jobs", "2")
    assert serial == parallel


def test_corpus_missing_file(capsys, tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text(canonical_json({"schema": 1, "entries": [
        {"group": "nope.json", "primes": [2]}]}))
    code, _out, err = run(capsys, "corpus", str(bad))
    assert code == 2
    assert json.loads(err)["error"] == "invalid-input"


def test_shipped_manifest_exists():
    assert manifest_path().exists()
    manifest = json.loads(manifest_path().read_text())
    assert len(manifest["entries"]) == 9


def test_verify_restricted_checks(capsys):
    code, out, _err = run(capsys, "verify", str(group_path("s3")), "--prime", "3",
                          "--checks", "am")
    assert code == 0
    report = json.loads(out)
    for b in report["blocks"]:
        assert set(b["checks"]) == {"am"}


def test_max_order_guard(capsys):
    code, _out, err = run(capsys, "analyze", str(group_path("a5")), "--prime", "5",
                          "--max-order", "10")
    assert code == 2
    assert json.loads(err)["error"] == "group-too-large"


def test_cache_round_trip_with_irrational_values(capsys, tmp_path):
    # A5 has golden-ratio entries; the cached table must reload bit-exactly
    cache = tmp_path / "cache"
    code, out1, _ = run(capsys, "table", str(group_path("a5")), "--cache", str(cache))
    assert code == 0
    code, out2, _ = run(capsys, "table", str(group_path("a5")), "--cache", str(cache))
    assert code == 0
    assert out1 == out2
    obj = json.loads(out1)
    # some entry carries a nontrivial conductor
    assert any(v["m"] > 1 for row in obj["characters"] for v in row)


def test_verify_byte_identical_runs(capsys):
    _c1, out1, _ = run(capsys, "verify", str(group_path("psl27")), "--prime", "7")
    _c2, out2, _ = run(capsys, "verify", str(group_path("psl27")), "--prime", "7")
    assert out1 == out2


def test_extra_group_files_load():
    from blocktool.fileio import read_group_file

    name, G = read_group_file(group_path("m11"))
    assert name == "M11" and G.order() == 7920
    name, G = read_group_file(group_path("psl211"))
    assert name == "PSL(2,11)" and G.order() == 660


# -- the prime at the boundary -------------------------------------------------------------


def run_subprocess(*argv, timeout=60):
    """The CLI in a fresh interpreter: a hang fails the test instead of stalling the suite."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import blocktool

    src = str(Path(blocktool.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "blocktool.cli", *argv],
                          capture_output=True, text=True, timeout=timeout, env=env)
    return proc.returncode, proc.stdout, proc.stderr


def assert_invalid_input(code, out, err):
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "invalid-input"


@pytest.mark.parametrize("prime", ["1", "0", "-5", "6", "4"])
def test_analyze_rejects_non_prime(prime):
    # 1 used to hang, 0 to crash, -5 and 6 to claim an internal inconsistency,
    # and 4 to report not-coprime
    assert_invalid_input(*run_subprocess("analyze", str(group_path("s3")), "--prime", prime))


@pytest.mark.parametrize("command", [("tree", "--block", "0"), ("verify",)])
def test_tree_and_verify_reject_non_prime(command):
    assert_invalid_input(*run_subprocess(command[0], str(group_path("s3")), "--prime", "1",
                                         *command[1:]))


def test_corpus_rejects_non_prime_manifest_entry(tmp_path):
    import shutil

    shutil.copy(group_path("s3"), tmp_path / "s3.json")
    bad = tmp_path / "manifest.json"
    bad.write_text(canonical_json({"schema": 1, "entries": [
        {"group": "s3.json", "primes": [2, 1]}]}))
    assert_invalid_input(*run_subprocess("corpus", str(bad)))


@pytest.mark.parametrize("command, prime", [
    ("analyze", "1000000000000000003"),  # r = 1 for Phi_6: the linear-factor scan used to hang
    ("verify", "1000000000000000003"),
    ("analyze", "99999999999999999989"),  # r = 2: itertools.product(range(p)) used to overflow
])
def test_huge_primes_finish(command, prime):
    code, out, err = run_subprocess(command, str(group_path("s3")), "--prime", prime)
    assert code == 0, err
    assert json.loads(out)["prime"] == int(prime)


def test_prime_beyond_the_primality_bound_is_invalid_input():
    # 2^89 - 1 is prime, but above the bound where Miller-Rabin with bases 2..41 is proven exact
    assert_invalid_input(*run_subprocess("analyze", str(group_path("s3")), "--prime",
                                         str(2 ** 89 - 1)))


# -- table cache hardening ----------------------------------------------------------------


def test_cache_with_swapped_rows_is_rejected_and_replaced(tmp_path):
    from blocktool.errors import InvalidInput
    from blocktool.fileio import cached_character_table, table_from_obj, table_to_obj

    _name, G = read_group_file(group_path("a5"))
    computed = table_to_obj(cached_character_table(G, tmp_path))
    (path,) = tmp_path.glob("table-*.json")
    swapped = json.loads(path.read_text())
    rows = swapped["characters"]
    rows[1], rows[2] = rows[2], rows[1]  # the two degree-3 characters: still a valid table
    path.write_text(canonical_json(swapped))

    _name, fresh = read_group_file(group_path("a5"))
    with pytest.raises(InvalidInput, match="canonical order"):
        table_from_obj(fresh, swapped)
    _name, fresh = read_group_file(group_path("a5"))
    assert table_to_obj(cached_character_table(fresh, tmp_path)) == computed
    assert json.loads(path.read_text()) == computed
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temporary file left


def test_warm_cache_read_keeps_the_order_bound(capsys, tmp_path):
    # a warm read enumerates the classes too, so --max-order must bound it as a cold call does
    cache = str(tmp_path / "cache")
    code, _out, err = run(capsys, "table", str(group_path("a5")), "--cache", cache,
                          "--max-order", "10")
    assert code == 2 and json.loads(err)["error"] == "group-too-large"
    code, _out, _err = run(capsys, "table", str(group_path("a5")), "--cache", cache)
    assert code == 0
    code, _out, err = run(capsys, "table", str(group_path("a5")), "--cache", cache,
                          "--max-order", "10")
    assert code == 2 and json.loads(err)["error"] == "group-too-large"
    assert len(list((tmp_path / "cache").glob("table-*.json"))) == 1  # the cache file stays


def test_lietype_realization_keeps_the_order_bound(capsys):
    argv = ["lietype", "--series", "A", "--n", "2", "--q", "2", "--p", "7",
            "--realization", str(group_path("psl32_deg7"))]
    code, out, _err = run(capsys, *argv)
    assert code == 0 and json.loads(out)["sylow_order"] == 7
    code, out, err = run(capsys, *argv, "--max-order", "10")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "group-too-large"


def test_lietype_huge_prime_finishes():
    # the order of q mod p used to be found by stepping through up to p - 1 powers
    code, out, err = run_subprocess("lietype", "--series", "A", "--n", "2", "--q", "2",
                                    "--p", "1000000000000000003")
    assert code == 0, err
    record = json.loads(out)
    assert record["d"] == 1000000000000000002 and record["criterion"] is False
