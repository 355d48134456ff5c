import filecmp
import json

import pytest

from collatz_sieve.cli import (
    load_checkpoint,
    main,
    save_checkpoint,
)


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_search_writes_expected_csv(tmp_path):
    out = tmp_path / "results.csv"
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 6, "--out", out, "--checkpoint", cp) == 0
    assert out.read_bytes() == (
        b"b,c,stop_index,join_b,join_c,join_index\r\n"
        b"2,0,2,,,\r\n"
        b"4,3,4,,,\r\n"
        b"6,1,1,4,1,3\r\n"
    )


def test_search_prints_summary(tmp_path, capsys):
    assert run_cli("search", "--max-modulus", 6) == 0
    text = capsys.readouterr().out
    assert "final density 5/6 = 83.33333%" in text
    assert "lcm of stored moduli: 12" in text


def test_report_tables(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 32, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", cp) == 0
    text = capsys.readouterr().out
    assert "2^4     4.16667%" in text
    assert "2^5     3.47222%" in text
    assert "between 2^4 and 2^5  2.08333%" in text
    assert "16  13  7" in text  # the drop row for 16k-13


def test_report_laws(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 96, "--skip-covered", "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", cp, "--laws") == 0
    text = capsys.readouterr().out
    assert "successful moduli: 7 (7 of the form 2^t*3^s)" in text
    assert "64k-49       32k-25  24   yes" in text


def test_report_csv_format(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 6, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", cp, "--format", "csv") == 0
    text = capsys.readouterr().out
    assert "2,0,2,,," in text
    assert "6,1,1,4,1,3" in text


def test_checkpoint_round_trip_is_byte_identical(tmp_path):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 48, "--checkpoint", cp)
    reloaded = load_checkpoint(str(cp))
    copy = tmp_path / "copy.json"
    save_checkpoint(str(copy), reloaded)
    assert filecmp.cmp(cp, copy, shallow=False)


def test_resume_is_byte_identical(tmp_path):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    run_cli("search", "--max-modulus", 64, "--out", a_csv, "--checkpoint", a_cp)
    run_cli("search", "--max-modulus", 32, "--out", b_csv, "--checkpoint", b_cp)
    assert run_cli("search", "--max-modulus", 64, "--out", b_csv,
                   "--checkpoint", b_cp, "--resume") == 0
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    assert filecmp.cmp(a_cp, b_cp, shallow=False)


def test_resume_with_filter_and_skip_covered(tmp_path):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    flags = ["--filter-3smooth", "on", "--skip-covered"]
    run_cli("search", "--max-modulus", 192, "--out", a_csv, "--checkpoint", a_cp, *flags)
    run_cli("search", "--max-modulus", 64, "--out", b_csv, "--checkpoint", b_cp, *flags)
    assert run_cli("search", "--max-modulus", 192, "--out", b_csv,
                   "--checkpoint", b_cp, "--resume", *flags) == 0
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    assert filecmp.cmp(a_cp, b_cp, shallow=False)


def test_resume_rejects_config_mismatch(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 16, "--checkpoint", cp)
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp,
                   "--resume", "--skip-covered") == 2


def _set_examined(doc):
    doc["examined"] = 999999


def _bump_skipped(doc):
    doc["skipped"] += 1


def _set_trail_entry(doc):
    doc["checkpoints"][1][1] = "1/3"


def _append_record(doc):
    doc["success_records"].append([10, 9, 2, None, None, None])


@pytest.mark.parametrize("flags, tamper, what", [
    ([], _set_examined, "examined count"),
    (["--skip-covered"], _bump_skipped, "skipped count"),
    ([], _set_trail_entry, "density trail"),
    # modulus 10 is not 2^t*3^s, so this run never examines 10k-9
    (["--filter-3smooth", "on"], _append_record, "record patterns"),
], ids=["examined", "skipped", "density-trail", "record"])
def test_resume_rejects_what_the_replay_contradicts(tmp_path, capsys, flags, tamper, what):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp, *flags) == 0
    doc = json.loads(cp.read_text())
    tamper(doc)
    cp.write_text(json.dumps(doc))
    assert run_cli("search", "--max-modulus", 48, "--checkpoint", cp,
                   "--resume", *flags) == 2
    assert f"the replay's {what} does not match" in capsys.readouterr().err


def test_resume_requires_checkpoint_flag(capsys):
    assert run_cli("search", "--max-modulus", 16, "--resume") == 2


def test_search_rejects_odd_max_modulus(capsys):
    assert run_cli("search", "--max-modulus", 7) == 2
    assert "invalid configuration" in capsys.readouterr().err
    for cap in (0, -5):
        assert run_cli("search", "--max-modulus", 8, "--step-cap", cap) == 2
        assert "invalid configuration" in capsys.readouterr().err


def test_missing_and_corrupt_checkpoints(tmp_path):
    assert run_cli("report", "--checkpoint", tmp_path / "nope.json") == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run_cli("report", "--checkpoint", bad) == 2


def test_report_on_empty_checkpoint(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({
        "format_version": 1, "config": {}, "frontier_modulus": 0,
        "examined": 0, "skipped": 0, "success_records": [],
        "ledger_classes": [], "density": "0/1", "checkpoints": [],
        "registry_digest": "",
    }))
    assert run_cli("report", "--checkpoint", empty) == 0
    text = capsys.readouterr().out
    assert "factor  pct complete change" in text


def test_verify_known_join(capsys):
    assert run_cli("verify", 18, 5, "--k", 1000) == 0
    assert "verified" in capsys.readouterr().out


def test_verify_known_drop(capsys):
    assert run_cli("verify", 16, 13, "--k", 1000) == 0
    out = capsys.readouterr().out
    assert "drops below its anchor at element 7" in out


def test_verify_uncertifiable_class(capsys):
    assert run_cli("verify", 6, 5, "--k", 10) == 1
    assert "no certificate exists" in capsys.readouterr().out


def test_verify_uses_checkpoint_records(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 18, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("verify", 18, 5, "--k", 100, "--checkpoint", cp) == 0


def test_verify_rejects_invalid_class(capsys):
    assert run_cli("verify", 7, 3, "--k", 10) == 2
    assert run_cli("verify", 8, 4, "--k", 10) == 2


def test_stoptimes_single_n(capsys):
    assert run_cli("stoptimes", "--n", 27) == 0
    text = capsys.readouterr().out
    assert "27  96            46          15            58              2^58" in text


def test_stoptimes_n4_joins_at_its_own_anchor(capsys):
    # 4 appears in 3's trajectory, so its sequence is known from element 1 on
    assert run_cli("stoptimes", "--n", 4) == 0
    text = capsys.readouterr().out
    assert text.splitlines()[1].split() == ["4", "1", "4", "3", "0", "2^0"]


def test_stoptimes_range(capsys):
    assert run_cli("stoptimes", "--range", 10000) == 0
    assert "n=703 joins at element 133" in capsys.readouterr().out


def test_stoptimes_memory_guard(capsys):
    assert run_cli("stoptimes", "--range", 10000, "--max-visited", 10) == 3


def test_stoptimes_needs_work(capsys):
    assert run_cli("stoptimes") == 2
    assert run_cli("stoptimes", "--n", 27, "--step-cap", 0) == 2


def test_coverage_summary(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 6, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("coverage", "--checkpoint", cp, "--classes") == 0
    text = capsys.readouterr().out
    assert "density 5/6 = 83.33333%" in text
    assert "lcm of stored moduli: 12" in text
    assert "11 mod 12" in text
