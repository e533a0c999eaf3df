import hashlib
import json
import time

import pytest

from primindex import cli
from primindex.cli import main


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_index_power(capsys):
    code, out, _ = run_cli(capsys, ["index", "--word", "aaa", "--rank", "2"])
    assert code == 0
    assert "d_prim = 3" in out


def test_index_generator_all_ones(capsys):
    code, out, _ = run_cli(capsys, ["index", "--word", "a", "--rank", "2"])
    assert code == 0
    assert "d_prim = 1" in out and "d_simp = 1" in out


def test_index_json_schema(capsys):
    code, out, _ = run_cli(capsys, ["index", "--word", "abAB", "--rank", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["manifest"]["schema_version"] == 1
    assert payload["manifest"]["command"] == "index"
    assert payload["result"]["d_prim"] >= payload["result"]["d_simp"]
    assert "witnesses" in payload["result"]


def test_index_invalid_word_exit_2(capsys):
    code, _, err = run_cli(capsys, ["index", "--word", "a!b", "--rank", "2"])
    assert code == 2
    assert "invalid input" in err


def test_non_ascii_word_text_is_invalid_input(capsys):
    # a Unicode letter or digit that str.isalpha / str.isdigit would pass,
    # and a generator index of 0, are refused as invalid input, not crashed on
    for word, rank in (("İ", 2), ("aé", 2), ("x²", 30), ("x١", 30), ("X0", 30)):
        code, _, err = run_cli(capsys, ["index", "--word", word, "--rank", str(rank)])
        assert code == 2, word
        assert err.startswith("invalid input: ") and "Traceback" not in err, word
    assert "out of range" in run_cli(capsys, ["index", "--word", "X0", "--rank", "30"])[2]


def test_index_trivial_word_exit_2(capsys):
    code, _, _ = run_cli(capsys, ["index", "--word", "aA", "--rank", "2"])
    assert code == 2


def test_index_resource_guard_exit_3(capsys):
    code, _, err = run_cli(
        capsys,
        ["index", "--word", "aabbaabb", "--rank", "2", "--max-partitions", "3"],
    )
    assert code == 3
    assert "resource guard" in err


def test_json_output_reproducible(capsys):
    _, out1, _ = run_cli(capsys, ["index", "--word", "abAB", "--rank", "2", "--json"])
    _, out2, _ = run_cli(capsys, ["index", "--word", "abAB", "--rank", "2", "--json"])
    assert out1 == out2


def test_covers_json_counts(capsys):
    code, out, _ = run_cli(capsys, ["covers", "--rank", "2", "--degree", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["result"]) == 3


def test_covers_dot_export(tmp_path, capsys):
    outdir = tmp_path / "dots"
    code, _, err = run_cli(
        capsys,
        ["covers", "--rank", "2", "--degree", "1", "--dot", str(outdir)],
    )
    assert code == 0
    files = list(outdir.glob("*.dot"))
    assert len(files) == 1
    assert "digraph" in files[0].read_text()


def test_walk_deterministic(capsys):
    args = ["walk", "--rank", "2", "--n", "200", "--seed", "7"]
    _, out1, _ = run_cli(capsys, args)
    _, out2, _ = run_cli(capsys, args)
    assert out1 == out2
    assert len(out1.strip()) == 200


def test_walk_stats_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["walk", "--rank", "2", "--n", "500", "--seed", "3", "--stats", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["stats"]["length"] == 500
    assert payload["manifest"]["seeds"] == [3]
    # the whole payload, manifest included, byte for byte
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "5ec01c9de967ec18083eea62f34db245a686890f23a5715b683f690ac63b6b61"
    )


_WALK_7_WORD = (
    "BABBABBaaaaBBabbaBabbabaBaBAbAbAbbbbbAbbAABaBAAAbaabbABBBAbAAbAABaaaBBBaB"
    "AbabbAAbaBBabbbbAABAAAbbAbbbAbAAAbAbaaabbAbABAbAbAbABBabAbaabbabbbaaBaabb"
    "abAABBABABBAAAbaBBabaabbbAbAAbbAAABaBBAbbAbabbaaBABaBa"
)

_WALK_7_STATS = """\
iota length: 0
  <AA, w> = 17
  <AB, w> = 13
  <Ab, w> = 24
  <BA, w> = 13
  <BB, w> = 13
  <Ba, w> = 14
  <aB, w> = 13
  <aa, w> = 13
  <ab, w> = 15
  <bA, w> = 24
  <ba, w> = 15
  <bb, w> = 25
"""


def test_walk_stats_text_is_pinned(capsys):
    # the word on stdout and the statistics on stderr, byte for byte; only
    # the wall-time line varies
    code, out, err = run_cli(capsys, ["walk", "--rank", "2", "--n", "200", "--seed", "7", "--stats"])
    assert code == 0
    assert out == _WALK_7_WORD + "\n"
    assert "".join(
        line for line in err.splitlines(keepends=True) if not line.startswith("wall time: ")
    ) == _WALK_7_STATS


@pytest.mark.parametrize("argv", [
    ["walk", "--rank", "2", "--n", "5", "--seed", "-1"],
    ["experiment", "--rank", "2", "--n", "6", "--trials", "2", "--seed", "-5"],
])
def test_negative_seed_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert "non-negative seed" in err


def test_blocker_beta_rose(capsys):
    code, out, _ = run_cli(
        capsys, ["blocker", "--degree", "1", "--rank", "2", "--kind", "beta"]
    )
    assert code == 0
    assert "verified" in out


def test_blocker_verify_json(capsys):
    code, out, _ = run_cli(
        capsys,
        ["blocker", "--degree", "2", "--rank", "2", "--kind", "alpha",
         "--verify", "--json"],
    )
    assert code == 0
    payload = json.loads(out)
    for entry in payload["result"]:
        assert entry["verified"]
        assert all(entry["per_vertex_containment"])


def test_experiment_json(tmp_path, capsys):
    out_file = tmp_path / "exp.json"
    code, out, _ = run_cli(
        capsys,
        ["experiment", "--rank", "2", "--n", "6", "--trials", "20",
         "--dcap", "3", "--seed", "5", "--out", str(out_file)],
    )
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert sum(payload["result"]["distribution"].values()) == 20


def test_table_jobs_consistency(capsys):
    code1, out1, _ = run_cli(capsys, ["table", "--rank", "2", "--nmax", "3", "--json"])
    code2, out2, _ = run_cli(
        capsys, ["table", "--rank", "2", "--nmax", "3", "--jobs", "2", "--json"]
    )
    assert code1 == code2 == 0
    r1 = json.loads(out1)["result"]
    r2 = json.loads(out2)["result"]
    assert r1["rows"] == r2["rows"]


def test_minimize_trace_json(capsys):
    code, out, _ = run_cli(
        capsys, ["minimize", "--word", "abA", "--rank", "2", "--json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["minimal"] == "b"
    assert payload["result"]["replay_matches"]
    assert payload["result"]["trace"][0]["kind"] == "second"


def test_witness_command(capsys):
    code, out, _ = run_cli(capsys, ["witness", "--degree", "1", "--rank", "2", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["result"]["audit"]["complete"]


WITNESS_3_2_SHA256 = "96ca9d5204e0bfb88fc5fbb851cba4d5508daa96917003b2b569c8e4d32c1630"


WITNESS_2_3_SHA256 = "180cb6680dcbefaf05448a939a4ba214064ced7ec1bd39a8a3da2094a369edf0"


def _witness_sha256(capsys, degree: int, rank: int) -> str:
    argv = ["witness", "--degree", str(degree), "--rank", str(rank), "--json"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    result = json.loads(out)["result"]
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def test_witness_degree_3_rank_2_result_is_pinned(capsys):
    # z_3 over rank 2 and its audit of 17 covers, byte for byte
    assert _witness_sha256(capsys, 3, 2) == WITNESS_3_2_SHA256


def test_witness_degree_2_rank_3_result_is_pinned(capsys):
    # z_2 over rank 3 and its audit of 8 covers, byte for byte
    assert _witness_sha256(capsys, 2, 3) == WITNESS_2_3_SHA256


@pytest.mark.parametrize("argv, sha256", [
    (["covers", "--rank", "2", "--degree", "4"],
     "31e65adb0c25b95203aaa1e2d0f4696aacab9795fea6fcd6df2bf5ddc9945cb6"),
    (["covers", "--rank", "3", "--degree", "3"],
     "5d07c0fd88a36ede5e9401fc9219be90a6d94a27c54490e3013e307b38729409"),
    (["blocker", "--degree", "3", "--rank", "2", "--kind", "alpha", "--verify"],
     "c3585cfad38c7c0ed8291b2f77308a91a086031e6a30bed8fffbf3bd9869a4db"),
    (["blocker", "--degree", "3", "--rank", "2", "--kind", "beta", "--verify"],
     "4151ef99614b49aee2bf123d9ca6007126f73f76335a589fcf7ffdbe09af02f0"),
])
def test_census_results_are_pinned(capsys, argv, sha256):
    # the census numbering and edge order, byte for byte
    code, out, _ = run_cli(capsys, argv + ["--json"])
    assert code == 0
    result = json.loads(out)["result"]
    text = json.dumps(result, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(text.encode()).hexdigest() == sha256


_COVERS_2_2_TEXT = """\
3 based covers of degree 2, rank 2
cover 0: edges ((0, 0, 1), (1, 1, 1), (0, 1, 2), (1, 0, 2))
cover 1: edges ((0, 1, 1), (1, 0, 1), (0, 0, 2), (1, 1, 2))
cover 2: edges ((0, 1, 1), (1, 0, 1), (0, 1, 2), (1, 0, 2))
"""


def test_census_is_read_only_and_covers_print_plain_ints(capsys):
    # the cached census is one array: neither it nor a view of it can be
    # made writeable, and a copy's edits stay in the copy
    from primindex.graphs import cover_census, cover_graph

    census = cover_census(2, 3)
    for view in (census, census[1:], census.T, census.reshape(-1), census.view()):
        with pytest.raises(ValueError):
            view.setflags(write=True)
    before = census.tolist()
    copy = census.copy()
    copy[:] = 0
    assert cover_census(2, 3) is census and cover_census(2, 3).tolist() == before
    # cover_graph lays a row out in plain ints, so no numpy scalar repr
    # reaches the text output
    for row in census:
        g = cover_graph(2, row)
        assert all(type(t) is int for e in g.edges for t in e)
    code, out, _ = run_cli(capsys, ["covers", "--rank", "2", "--degree", "2"])
    assert code == 0 and out == _COVERS_2_2_TEXT


def test_witness_resource_guard(capsys):
    code, _, err = run_cli(
        capsys, ["witness", "--degree", "2", "--rank", "2", "--max-covers", "1"]
    )
    assert code == 3


def test_covers_cap_exits_before_building_the_census(capsys):
    # building all 3447 degree-6 covers takes about 25 s
    start = time.perf_counter()
    code, _, err = run_cli(
        capsys, ["covers", "--rank", "2", "--degree", "6", "--max-covers", "1"]
    )
    assert code == 3
    assert "3447 covers exceed --max-covers 1" in err
    assert time.perf_counter() - start < 1.0


def test_cover_caps_refuse_before_any_census_is_built(capsys, monkeypatch):
    # a small census now builds within any timer's margin, so every
    # cover_census call the two commands can make fails here instead
    from primindex import blockers

    def build(rank, degree):
        pytest.fail(f"cover_census({rank}, {degree}) was called")

    monkeypatch.setattr(cli, "cover_census", build)
    monkeypatch.setattr(blockers, "cover_census", build)
    for argv, message in [
        (["covers", "--rank", "2", "--degree", "3", "--max-covers", "12"], "13 covers exceed"),
        (["witness", "--degree", "3", "--rank", "2", "--max-covers", "16"], "exceeds cover cap 16"),
    ]:
        code, _, err = run_cli(capsys, argv)
        assert code == 3 and message in err, err


def test_covers_rank_0_exit_2(capsys):
    code, _, err = run_cli(capsys, ["covers", "--rank", "0", "--degree", "1"])
    assert code == 2
    assert "invalid input" in err


@pytest.mark.parametrize("argv", [
    ["witness", "--degree", "1", "--rank", "1"],
    ["blocker", "--degree", "2", "--rank", "1"],
])
def test_unsupported_input_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, argv)
    assert code == 2
    assert err.splitlines()[0] == "unsupported input: need dual rank >= 2"


@pytest.mark.parametrize("command", [
    ["table", "--rank", "2", "--nmax", "3"],
    ["experiment", "--rank", "2", "--n", "8", "--trials", "2"],
])
def test_out_path_without_directory_exit_2_before_computing(capsys, monkeypatch, tmp_path, command):
    def never(*args, **kwargs):
        raise AssertionError("computed before checking --out")

    monkeypatch.setattr(cli, "f_table", never)
    monkeypatch.setattr(cli, "experiment_dsimp", never)
    out = tmp_path / "missing" / "t.json"
    code, stdout, err = run_cli(capsys, command + ["--out", str(out)])
    assert code == 2
    assert stdout == ""
    assert err.splitlines()[0] == f"invalid input: cannot write {out}: no directory {out.parent}"
    assert "Traceback" not in err


def test_out_path_that_is_a_directory_exit_2_before_computing(capsys, monkeypatch, tmp_path):
    calls = []
    monkeypatch.setattr(cli, "f_table", lambda *args, **kwargs: calls.append(args))
    code, stdout, err = run_cli(capsys, ["table", "--rank", "2", "--nmax", "3", "--out", str(tmp_path)])
    assert code == 2
    assert calls == []
    assert stdout == ""
    assert err.splitlines()[0] == f"invalid input: cannot write {tmp_path}: is a directory"
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_dot_path_that_is_a_file_exit_2(capsys, tmp_path):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run_cli(capsys, ["covers", "--rank", "2", "--degree", "2", "--dot", str(taken)])
    assert code == 2
    assert err.splitlines()[0].startswith(f"invalid input: cannot write DOT files to {taken}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["index", "--word", "a", "--rank", "1"],
    ["table", "--rank", "1", "--nmax", "3"],
])
def test_rank_1_has_no_simple_index_exit_2(capsys, argv):
    # F_1 and its finite-index subgroups have no simple element: d_simp is
    # undefined there, which is unsupported input, not a cap that tripped
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.splitlines()[0] == "unsupported input: d_simp needs rank >= 2, got rank 1"


@pytest.mark.parametrize("argv", [
    ["index", "--word", "ab", "--rank", "2", "--timeout-seconds", "-1"],
    ["index", "--word", "ab", "--rank", "2", "--max-index", "0"],
    ["index", "--word", "ab", "--rank", "2", "--max-partitions", "-1"],
    ["table", "--rank", "2", "--nmax", "3", "--max-partitions", "-1"],
    ["covers", "--rank", "2", "--degree", "2", "--max-covers", "-1"],
    ["witness", "--degree", "1", "--rank", "2", "--max-covers", "0"],
    ["table", "--rank", "2", "--nmax", "3", "--jobs", "-2"],
    ["table", "--rank", "2", "--nmax", "3", "--jobs", "two"],
])
def test_caps_that_are_not_positive_exit_2(capsys, argv):
    # argparse rejects them before any work starts
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "expected a positive integer" in capsys.readouterr().err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
