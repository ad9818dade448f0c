import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netvec.cli import main

from conftest import PBR_NETWORK, RECT_NETWORK, TOY_NETWORK

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
    assert "prefixes: 5 distinct" in out and "parse " in out and "load " in out


def test_load_json(toy_file, capsys):
    code, out, _ = run(capsys, "load", toy_file, "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["rules"] == 5 and payload["iatomic"] == 1
    assert payload["prefixes"] == 5
    assert payload["parse_s"] >= 0 and payload["load_s"] >= 0
    assert payload["max_rss_mb"] > 1       # the interpreter alone holds more
    code, out, _ = run(capsys, "load", toy_file)
    assert code == 0 and "peak RSS " in out


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


def test_whatif_over_a_pbr_link(tmp_path, capsys):
    f = tmp_path / "pbr.net"
    f.write_text(PBR_NETWORK, encoding="utf-8")
    code, out, _ = run(capsys, "whatif", str(f), "--link", "A:0-B:0",
                       "--src", "A", "--dst", "D", "--json")
    assert code == 0 and json.loads(out)["triggered_deletions"] == 1


def test_whatif_bad_link_syntax(toy_file, capsys):
    code, _, err = run(capsys, "whatif", toy_file, "--link", "nope",
                       "--src", "Y", "--dst", "R")
    assert code == 2
    assert err.startswith("input error: bad --link 'nope'")


def test_load_default_routes_only(tmp_path, capsys):
    f = tmp_path / "default.net"
    f.write_text("WIDTH 3\nNODE A\nNODE B\nEDGE A 0 B 0\n"
                 "RULE A /0 0\nRULE B /0 1\n", encoding="utf-8")
    code, out, _ = run(capsys, "load", str(f))
    assert code == 0
    assert "classes: 1 (0 induced)" in out


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


@pytest.mark.parametrize("port", ["-5", "99999999999"])
def test_bench_stream_port_out_of_range(toy_file, tmp_path, capsys, port):
    stream = tmp_path / "updates.txt"
    stream.write_text(f"+ Q 00/2 0\n+ Q 00/2 {port}\n", encoding="utf-8")
    code, _, err = run(capsys, "bench", toy_file, "--stream", str(stream))
    assert code == 2 and err.startswith("input error: line 2: port")


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


def test_gen_json_summary(tmp_path, capsys):
    out_file = tmp_path / "gen.net"
    code, out, _ = run(capsys, "gen", "--nodes", "6", "--edges", "8",
                       "--rules-per-node", "4", "--seed", "3",
                       "--out", str(out_file), "--json")
    assert code == 0
    assert json.loads(out) == {"out": str(out_file), "routers": 6, "edges": 8,
                               "rules": 24}
    assert out_file.read_text(encoding="utf-8").startswith("WIDTH ")


def test_gen_json_needs_out(capsys):
    code, out, err = run(capsys, "gen", "--nodes", "6", "--edges", "8", "--json")
    assert code == 2 and out == ""
    assert err.strip() == "input error: --json needs --out"


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.net"
    f.write_text("NODE A\n", encoding="utf-8")
    code, _, err = run(capsys, "load", str(f))
    assert code == 2 and "WIDTH" in err


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "load", "/does/not/exist.net")
    assert code == 2


def test_load_directory_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "load", str(tmp_path))
    assert code == 2 and err.startswith("input error: ")


def test_load_binary_file_exit_code(tmp_path, capsys):
    f = tmp_path / "blob.bin"
    f.write_bytes(bytes(range(128, 256)))
    code, _, err = run(capsys, "load", str(f))
    assert code == 2 and err.startswith("input error: ")


def test_bench_stream_directory_exit_code(toy_file, tmp_path, capsys):
    code, _, err = run(capsys, "bench", toy_file, "--stream", str(tmp_path))
    assert code == 2 and err.startswith("input error: ")


def test_bench_bad_mode(toy_file, tmp_path, capsys):
    stream = tmp_path / "updates.txt"
    stream.write_text("+ Q 00/2 0\n", encoding="utf-8")
    for mode in ("bogus", "batchx", "per-update:3"):
        code, _, err = run(capsys, "bench", toy_file, "--stream", str(stream),
                           "--mode", mode)
        assert code == 2 and err.startswith("input error: "), mode


def test_verify_bad_limits_exit_code(toy_file, capsys):
    for flag, value in (("--max-paths", "0"), ("--max-paths", "-1"),
                        ("--max-hops", "-2")):
        code, out, err = run(capsys, "verify", toy_file, "--src", "Y",
                             "--dst", "R", flag, value)
        assert code == 2 and "InfeasibleParameters" in err and out == "", flag


def test_policy_bad_max_len_exit_code(toy_file, capsys):
    code, out, err = run(capsys, "policy", toy_file, "--src", "Y", "--dst", "R",
                         "--max-len", "-3")
    assert code == 2 and "InfeasibleParameters" in err and out == ""


# ----------------------------------------------------------------------
# exit codes over generated command lines

@pytest.fixture(scope="module")
def cli_files(tmp_path_factory):
    """Placeholder -> path for the inputs the generated argv may name."""
    d = tmp_path_factory.mktemp("cli")
    (d / "toy.net").write_text(TOY_UPDATED, encoding="utf-8")
    (d / "rect.net").write_text(RECT_NETWORK, encoding="utf-8")
    (d / "bad.net").write_text("NODE A\n", encoding="utf-8")
    (d / "blob.bin").write_bytes(bytes(range(128, 256)))
    (d / "updates.txt").write_text("+ Q 00/2 0\n- Q 00/2 0\n", encoding="utf-8")
    return {"{toy}": str(d / "toy.net"), "{rect}": str(d / "rect.net"),
            "{bad}": str(d / "bad.net"), "{bin}": str(d / "blob.bin"),
            "{stream}": str(d / "updates.txt"), "{dir}": str(d),
            "{missing}": str(d / "missing.net"), "{out}": str(d / "gen.net")}


FILES = st.sampled_from(["{toy}", "{rect}", "{bad}", "{bin}", "{stream}",
                         "{dir}", "{missing}"])
ROUTERS = st.sampled_from(["Y", "U", "Q", "R", "ghost"])
INTS = st.integers(-3, 4).map(str)
PREFIXES = st.sampled_from(["0/1", "01/2", "000/3", "1/1", "/0", "2/1",
                            "0101/4", "x"])
LINKS = st.sampled_from(["U:0-R:0", "Y:0-U:1", "nope", "U:x-R:0",
                         "ghost:0-R:0", "U:9-R:9", "U:0-R:0-Q:0"])
MODES = st.sampled_from(["per-update", "batch", "batch:1", "batch:0",
                         "batch:abc", "batchx", "per-update:3", "bogus"])
MASKS = st.sampled_from(["2:1", "2:1,3:2", "8:x", "", "40:1", "-1:1", ":"])


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


def _cmd(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [a for p in ps for a in p])


NET = FILES.map(lambda f: [f])
COMMON = st.lists(st.sampled_from(["--json", "--assert"]), unique=True)
SRC = ROUTERS.map(lambda r: ["--src", r])
DST = ROUTERS.map(lambda r: ["--dst", r])
SOUP = st.lists(st.one_of(
    st.sampled_from(["load", "verify", "loops", "blackholes", "policy",
                     "whatif", "rectify", "bench", "gen", "--src", "--dst",
                     "--json", "--assert", "--max-paths", "--max-hops",
                     "--prefixes", "--max-len", "--waypoint", "--link",
                     "--intent", "--stream", "--mode", "--nodes", "--edges"]),
    FILES, ROUTERS, INTS, PREFIXES), max_size=8)

ARGV = st.one_of(
    _cmd("load", NET, COMMON),
    _cmd("verify", NET, COMMON, SRC, DST, _opt("--max-paths", INTS),
         _opt("--max-hops", INTS),
         st.lists(PREFIXES, max_size=2).map(lambda ps: ["--prefixes", *ps] if ps else [])),
    _cmd("loops", NET, COMMON, SRC),
    _cmd("blackholes", NET, COMMON, SRC),
    _cmd("policy", NET, COMMON, SRC, DST, _opt("--max-len", INTS),
         _opt("--waypoint", ROUTERS)),
    _cmd("whatif", NET, COMMON, LINKS.map(lambda x: ["--link", x]), SRC, DST),
    _cmd("rectify", NET, COMMON, SRC, DST,
         st.lists(PREFIXES, min_size=1, max_size=2).map(lambda ps: ["--intent", *ps])),
    _cmd("bench", NET, COMMON, FILES.map(lambda f: ["--stream", f]),
         _opt("--mode", MODES)),
    _cmd("gen", st.integers(-1, 8).map(lambda n: ["--nodes", str(n)]),
         st.integers(-1, 12).map(lambda n: ["--edges", str(n)]),
         _opt("--rules-per-node", INTS),
         _opt("--width", st.sampled_from(["-1", "0", "1", "2", "3", "8"])),
         _opt("--mask-dist", MASKS), _opt("--out", st.just("{out}")),
         COMMON.map(lambda c: [f for f in c if f == "--json"])),
    SOUP,
)


@settings(max_examples=200, deadline=None)
@given(argv=ARGV)
@example(argv=["load", "{dir}"])
@example(argv=["load", "{bin}"])
@example(argv=["bench", "{toy}", "--stream", "{dir}"])
@example(argv=["bench", "{toy}", "--stream", "{bin}"])
@example(argv=["verify", "{toy}", "--src", "Y", "--dst", "R", "--max-paths", "0"])
@example(argv=["policy", "{toy}", "--src", "Y", "--dst", "R", "--max-len", "-3"])
def test_exit_codes_over_generated_argv(cli_files, argv):
    argv = [cli_files.get(a, a) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse usage errors and --help
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
    if code == 1:
        assert "--assert" in argv, argv
