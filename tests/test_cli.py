import json

import pytest

from colorrange.cli import main, parse_workload, save_workload


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_generate_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(capsys, "generate", "--seed", "1", "--n", "8", "--u", "32",
               "--c", "3", "--out", str(p1))[0] == 0
    assert run(capsys, "generate", "--seed", "1", "--n", "8", "--u", "32",
               "--c", "3", "--out", str(p2))[0] == 0
    assert p1.read_text() == p2.read_text()
    lines = [l for l in p1.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 8
    values = [int(l.split(",")[0]) for l in lines]
    assert len(set(values)) == 8 and all(1 <= v <= 32 for v in values)


def test_generate_n_equals_u(tmp_path, capsys):
    p = tmp_path / "full.csv"
    run(capsys, "generate", "--seed", "3", "--n", "16", "--u", "16",
        "--c", "2", "--out", str(p))
    lines = [l for l in p.read_text().splitlines() if not l.startswith("#")]
    assert sorted(int(l.split(",")[0]) for l in lines) == list(range(1, 17))


def test_generate_single_color(tmp_path, capsys):
    # with C=1 every query answers {} or {0}
    p = tmp_path / "one.csv"
    run(capsys, "generate", "--seed", "5", "--n", "20", "--u", "100",
        "--c", "1", "--out", str(p))
    from colorrange.core import Range, load_dataset, normalize_input, \
        oracle_report
    pts, remap = normalize_input(load_dataset(p))
    assert len(remap) == 1
    assert oracle_report(pts, Range(1, 100)) == {0}
    assert oracle_report(pts, Range(101, 200)) == set()


def test_generate_rejects_bad_params(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["generate", "--n", "10", "--u", "5", "--c", "2",
              "--out", str(tmp_path / "x.csv")])
    with pytest.raises(SystemExit, match="N >= 0"):
        main(["generate", "--n", "-1", "--u", "5", "--c", "2",
              "--out", str(tmp_path / "x.csv")])


def test_verify_pass_all_kinds(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "7", "--n", "300", "--u", "4000",
        "--c", "9", "--skew", "zipf", "--out", str(data))
    for kind in ("static", "dynamic", "slow", "em"):
        code, out = run(capsys, "verify", "--dataset", str(data), "--index",
                        kind, "--queries", "400", "--seed", "5")
        assert code == 0 and "PASS" in out, (kind, out)


def test_verify_corrupt_fails_with_reproducer(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "7", "--n", "200", "--u", "2000",
        "--c", "5", "--out", str(data))
    rep = tmp_path / "rep.wl"
    code, out = run(capsys, "verify", "--dataset", str(data), "--index",
                    "static", "--queries", "300", "--seed", "2", "--corrupt",
                    "--out", str(rep))
    assert code == 1
    assert "FAIL" in out and "minimized reproducer" in out
    assert rep.exists()
    ops = parse_workload(rep)
    assert ops and ops[-1][0] == "Q"


def test_verify_dynamic_mixed_workload(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "11", "--n", "120", "--u", "900",
        "--c", "6", "--out", str(data))
    wl = tmp_path / "w.wl"
    ops = [("I", 901, "fresh"), ("Q", 1, 950), ("D", 901), ("Q", 1, 950),
           ("I", 902, "c0"), ("Q", 890, 950)]
    save_workload(wl, ops)
    for kind in ("dynamic", "slow"):
        code, out = run(capsys, "verify", "--dataset", str(data),
                        "--index", kind, "--workload", str(wl))
        assert code == 0, out
    # K ops only on the slow index
    save_workload(wl, [("K", 1, 900, 3)])
    code, out = run(capsys, "verify", "--dataset", str(data), "--index",
                    "slow", "--workload", str(wl))
    assert code == 0, out


def test_build_and_dump_roundtrip(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "19", "--n", "400", "--u", "5000",
        "--c", "12", "--out", str(data))
    idx_file = tmp_path / "idx.crr"
    code, out = run(capsys, "build", "--dataset", str(data), "--index", "em",
                    "--block-size", "8", "--out", str(idx_file))
    assert code == 0
    assert idx_file.exists()
    code, out = run(capsys, "dump", "--index-file", str(idx_file))
    assert code == 0
    doc = json.loads(out.strip().splitlines()[-1])
    assert doc["roundtrip_identical"] is True
    assert doc["n"] == 400 and doc["B"] == 8
    assert doc["version"] == 4 and doc["locate_levels"] == 2  # 50 value blocks
    # 17 leaves of 24 points: aligned blocks of 48, 96 and 192 points, each
    # holding the first point of each of its (at most 12) colors
    assert doc["first_levels"] == 3 and doc["first_entries_per_point"] == 198 / 400
    data = bytearray(idx_file.read_bytes())
    data[len(data) // 2] ^= 1
    idx_file.write_bytes(bytes(data))
    assert main(["dump", "--index-file", str(idx_file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("dump: ") and err.count("\n") == 1


def test_static_rejects_inserts(tmp_path, capsys):
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "23", "--n", "30", "--u", "300",
        "--c", "3", "--out", str(data))
    wl = tmp_path / "w.wl"
    save_workload(wl, [("I", 301, "x")])
    with pytest.raises(SystemExit):
        main(["verify", "--dataset", str(data), "--index", "static",
              "--workload", str(wl)])


def test_build_and_verify_reject_bad_arguments(tmp_path, capsys):
    # a message, not a ValueError traceback from EmIndex.build, and not a
    # pass over no queries
    data = tmp_path / "d.csv"
    run(capsys, "generate", "--seed", "3", "--n", "50", "--u", "500",
        "--c", "4", "--out", str(data))
    for cmd in ("build", "verify"):
        for size in ("0", "1", str(2**32)):
            with pytest.raises(SystemExit, match="block-size"):
                main([cmd, "--dataset", str(data), "--index", "em",
                      "--block-size", size])
    with pytest.raises(SystemExit, match="queries >= 0"):
        main(["verify", "--dataset", str(data), "--queries", "-3"])
    code, out = run(capsys, "verify", "--dataset", str(data), "--index", "em",
                    "--block-size", "2", "--queries", "20")
    assert code == 0 and "PASS (20 ops" in out
