import json

import pytest

from netvec.cli import main

from conftest import RECT_NETWORK, TOY_NETWORK

TOY_UPDATED = TOY_NETWORK + "RULE Q 0/1 0\n"


@pytest.fixture
def toy_file(tmp_path):
    f = tmp_path / "toy.net"
    f.write_text(TOY_UPDATED, encoding="utf-8")
    return str(f)


@pytest.fixture
def rect_file(tmp_path):
    f = tmp_path / "rect.net"
    f.write_text(RECT_NETWORK, encoding="utf-8")
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_load(toy_file, capsys):
    code, out, _ = run(capsys, "load", toy_file)
    assert code == 0
    assert "4 routers" in out and "classes: 4" in out


def test_load_json(toy_file, capsys):
    code, out, _ = run(capsys, "load", toy_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rules"] == 5 and payload["iatomic"] == 1


def test_verify(toy_file, capsys):
    code, out, _ = run(capsys, "verify", toy_file, "--src", "Y", "--dst", "R")
    assert code == 0
    assert "000/3" in out and "Y - U - R" in out


def test_verify_json_paths(toy_file, capsys):
    code, out, _ = run(capsys, "verify", toy_file, "--src", "Y", "--dst", "R",
                       "--json")
    payload = json.loads(out)
    assert payload["reachable"] == ["000/3"]
    assert payload["paths"][0]["path"] == ["Y", "U", "R"]


def test_verify_restricted_prefixes(toy_file, capsys):
    code, out, _ = run(capsys, "verify", toy_file, "--src", "Y", "--dst", "R",
                       "--prefixes", "01/2", "--json")
    assert json.loads(out)["reachable"] == []


def test_verify_assert_unreachable(toy_file, capsys):
    code, _, _ = run(capsys, "verify", toy_file, "--src", "R", "--dst", "Q",
                     "--assert")
    assert code == 1


def test_loops_none(toy_file, capsys):
    code, out, _ = run(capsys, "loops", toy_file, "--src", "Y")
    assert code == 0 and "no loop" in out


def test_loops_assert(tmp_path, capsys):
    f = tmp_path / "loop.net"
    f.write_text("WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
                 "RULE A 1/1 0\nRULE B 1/1 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "loops", str(f), "--src", "A", "--assert")
    assert code == 1 and "loop" in out


def test_blackholes(toy_file, capsys):
    code, out, _ = run(capsys, "blackholes", toy_file, "--src", "Y", "--json")
    payload = json.loads(out)
    by_router = {e["router"]: e["headers"] for e in payload["blackholes"]}
    assert by_router["U"] == ["001/3"]


def test_policy_waypoint(toy_file, capsys):
    code, out, _ = run(capsys, "policy", toy_file, "--src", "Y", "--dst", "R",
                       "--waypoint", "Q", "--assert")
    assert code == 1 and "waypoint" in out


def test_whatif(toy_file, capsys):
    code, out, _ = run(capsys, "whatif", toy_file, "--link", "U:0-R:0",
                       "--src", "Y", "--dst", "R", "--json")
    payload = json.loads(out)
    assert payload["triggered_deletions"] == 2
    assert payload["report"]["reachable"] == []


def test_whatif_bad_link_syntax(toy_file, capsys):
    code, _, err = run(capsys, "whatif", toy_file, "--link", "nope",
                       "--src", "Y", "--dst", "R")
    assert code == 2


def test_rectify(rect_file, capsys):
    code, out, _ = run(capsys, "rectify", rect_file, "--src", "Y",
                       "--dst", "R", "--intent", "01/2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["fixes"] == [{"router": "Q", "prefix": "01/2", "port": 1}]
    assert payload["achieved"] == ["01/2"]


def test_bench(toy_file, tmp_path, capsys):
    stream = tmp_path / "updates.txt"
    stream.write_text("+ Q 00/2 0\n- Q 00/2 0\n", encoding="utf-8")
    code, out, _ = run(capsys, "bench", toy_file, "--stream", str(stream))
    assert code == 0 and "2 verifications" in out


def test_bench_bad_batch_size(toy_file, tmp_path, capsys):
    stream = tmp_path / "updates.txt"
    stream.write_text("+ Q 00/2 0\n", encoding="utf-8")
    code, _, err = run(capsys, "bench", toy_file, "--stream", str(stream),
                       "--mode", "batch:abc")
    assert code == 2 and err.startswith("input error: ")


def test_gen_bad_mask_dist(capsys):
    code, _, err = run(capsys, "gen", "--nodes", "6", "--edges", "8",
                       "--mask-dist", "8:x")
    assert code == 2 and err.startswith("input error: ")


def test_gen_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "gen.net"
    code, _, _ = run(capsys, "gen", "--nodes", "6", "--edges", "8",
                     "--rules-per-node", "4", "--seed", "3",
                     "--out", str(out_file))
    assert code == 0
    code, out, _ = run(capsys, "load", str(out_file), "--json")
    payload = json.loads(out)
    assert payload["routers"] == 6 and payload["rules"] == 24


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.net"
    f.write_text("NODE A\n", encoding="utf-8")
    code, _, err = run(capsys, "load", str(f))
    assert code == 2 and "WIDTH" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "load", "/does/not/exist.net")
    assert code == 2
