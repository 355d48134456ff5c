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
    assert "lcm of certified pattern moduli: 12" in text


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
    # decoding each journal line and appending it again gives the same bytes
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 48, "--checkpoint", cp)
    header = cp.read_bytes().splitlines(keepends=True)[0]
    entries = load_checkpoint(str(cp)).entries
    assert [e.modulus for e in entries] == list(range(2, 49, 2))  # one line per modulus
    copy = tmp_path / "copy.json"
    copy.write_bytes(header)
    for entry in entries:
        save_checkpoint(str(copy), entry)
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


def _edit_journal(path, edit):
    """Decode the lines after the header, apply edit(lines), write them back."""
    header, *lines = path.read_text().splitlines()
    lines = [json.loads(line) for line in lines]
    edit(lines)
    path.write_text("\n".join([header, *map(json.dumps, lines)]) + "\n")


def _set_examined(lines):
    lines[-1]["examined"] = 999999


def _bump_skipped(lines):
    lines[-1]["skipped"] += 1


def _set_trail_entry(lines):
    # 3/4 at modulus 4 becomes 4/5: still between its neighbours 1/2 and
    # 5/6, so only the replay can tell it is wrong
    lines[1]["density"] = "4/5"


def _append_record(lines):
    lines[-1]["records"].append([10, 9, 2, None, None, None])


def _zero_digest(lines):
    lines[-1]["registry_digest"] = "0" * 64


def _set_frontier_far(lines):
    # a replay to this modulus would not end; the 16 lines bound it at 32
    lines[-1]["modulus"] = 10**12


@pytest.mark.parametrize("flags, tamper, what", [
    ([], _set_examined, "examined count"),
    (["--skip-covered"], _bump_skipped, "skipped count"),
    ([], _set_trail_entry, "density trail"),
    # modulus 10 is not 2^t*3^s, so this run never examines 10k-9
    (["--filter-3smooth", "on"], _append_record, "record patterns"),
    ([], _zero_digest, "registry digest"),
    ([], _set_frontier_far, "density trail"),
], ids=["examined", "skipped", "density-trail", "record", "digest", "far-frontier"])
def test_resume_rejects_what_the_replay_contradicts(tmp_path, capsys, flags, tamper, what):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp, *flags) == 0
    _edit_journal(cp, tamper)
    assert run_cli("search", "--max-modulus", 48, "--checkpoint", cp,
                   "--resume", *flags) == 2
    assert f"the replay's {what} does not match" in capsys.readouterr().err


BOGUS_CERTIFICATES = pytest.mark.parametrize("row, bogus", [
    ([6, 1, 1, 4, 1, 3], [6, 1, 2, 4, 1, 3]),  # 6k-1 does not meet 4k-1 there
    ([4, 3, 4, None, None, None], [4, 3, 1, None, None, None]),  # the anchor itself
], ids=["join", "drop"])


def _replace_row(row, bogus):
    def edit(lines):
        line = next(line for line in lines if row in line["records"])
        line["records"][line["records"].index(row)] = bogus
    return edit


@BOGUS_CERTIFICATES
def test_resume_rejects_a_bogus_certificate(tmp_path, capsys, row, bogus):
    out, cp = tmp_path / "run.csv", tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--out", out, "--checkpoint", cp) == 0
    _edit_journal(cp, _replace_row(row, bogus))
    assert run_cli("search", "--max-modulus", 48, "--out", out, "--checkpoint", cp,
                   "--resume") == 2
    assert f"certificate of {row[0]}k-{row[1]} does not hold" in capsys.readouterr().err


@BOGUS_CERTIFICATES
def test_report_and_coverage_reject_a_bogus_certificate(tmp_path, capsys, row, bogus):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, _replace_row(row, bogus))
    capsys.readouterr()
    for command in (["report", "--format", "csv"], ["coverage", "--classes"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert f"certificate of {row[0]}k-{row[1]} does not hold" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("index, value", [(1, "1/3"), (-1, "1/1"), (0, "-1/2")],
                         ids=["decreasing", "not-the-final-density", "negative"])
def test_report_rejects_an_impossible_density_trail(tmp_path, capsys, index, value):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, lambda lines: lines[index].update(density=value))
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", cp) == 2
    captured = capsys.readouterr()
    assert "the replay's density trail does not match" in captured.err
    assert "-17.33333%" not in captured.out


def _set_density_1_over_0(lines):
    lines[3]["density"] = "1/0"


def _quote_a_modulus(lines):
    lines[1]["records"][0][0] = "4"


def _make_a_stop_index_true(lines):
    lines[2]["records"][0][2] = True  # 6k-1 joins at element 1, so true would read as 1


@pytest.mark.parametrize("tamper", [_set_density_1_over_0, _quote_a_modulus,
                                    _make_a_stop_index_true],
                         ids=["zero-denominator", "string-modulus", "boolean-stop-index"])
def test_malformed_numbers_are_checkpoint_errors(tmp_path, capsys, tamper):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, tamper)
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "is malformed" in captured.err
        assert captured.out == ""


def test_torn_last_line_is_ignored_and_truncated_on_resume(tmp_path, capsys):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    run_cli("search", "--max-modulus", 64, "--out", a_csv, "--checkpoint", a_cp)
    run_cli("search", "--max-modulus", 32, "--out", b_csv, "--checkpoint", b_cp)
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", b_cp) == 0
    report_to_32 = capsys.readouterr().out
    # a kill -9 halfway through writing the line of modulus 34
    line_34 = a_cp.read_bytes().splitlines(keepends=True)[17]
    assert json.loads(line_34)["modulus"] == 34
    with open(b_cp, "ab") as fh:
        fh.write(line_34[:len(line_34) // 2])
    assert run_cli("report", "--checkpoint", b_cp) == 0
    assert capsys.readouterr().out == report_to_32
    assert run_cli("search", "--max-modulus", 64, "--out", b_csv,
                   "--checkpoint", b_cp, "--resume") == 0
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    assert filecmp.cmp(a_cp, b_cp, shallow=False)


def _version_1_document(path):
    path.write_text(json.dumps({
        "format_version": 1, "config": {}, "frontier_modulus": 0,
        "examined": 0, "skipped": 0, "success_records": [],
        "ledger_classes": [], "density": "0/1", "checkpoints": [],
        "registry_digest": "",
    }, indent=2, sort_keys=True) + "\n")


def _garble_a_complete_line(path):
    lines = path.read_bytes().splitlines(keepends=True)
    lines[5] = b'{"density": "5/6", "modulus": 10,\n'
    path.write_bytes(b"".join(lines))


@pytest.mark.parametrize("damage, message", [
    (_version_1_document, "has format_version 1"),
    (_garble_a_complete_line, "line 6 of checkpoint"),
], ids=["version-1", "garbled-line"])
def test_unreadable_journals_are_rejected(tmp_path, capsys, damage, message):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    damage(cp)
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        assert message in capsys.readouterr().err


def _set_numeric_step_cap(path, value):
    header, rest = path.read_text().split("\n", 1)
    doc = json.loads(header)
    doc["config"]["numeric_step_cap"] = value
    path.write_text(json.dumps(doc) + "\n" + rest)


def test_replay_settles_the_first_member_of_drop_records(tmp_path, capsys):
    # A search to 64 with numeric_step_cap 1 certifies 17 drops, not 153: few
    # first members b - c fall below themselves in one step, so the drops of
    # the others are not certificates under that header.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp) == 0
    _set_numeric_step_cap(cp, 1)
    capsys.readouterr()
    for command in (["report"], ["coverage"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "certificate of 8k-3 does not hold" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("value", [0, -5])
def test_numeric_step_cap_below_one_cannot_be_replayed(tmp_path, capsys, value):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 16, "--checkpoint", cp) == 0
    _set_numeric_step_cap(cp, value)
    capsys.readouterr()
    for command in (["report"], ["coverage"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        assert "cannot be replayed: numeric_step_cap must be >= 1" in capsys.readouterr().err


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
    # a journal that holds its header alone: a run killed before modulus 2
    empty = tmp_path / "empty.json"
    run_cli("search", "--max-modulus", 4, "--checkpoint", empty)
    empty.write_bytes(empty.read_bytes().splitlines(keepends=True)[0])
    capsys.readouterr()
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
    assert "lcm of certified pattern moduli: 12" in text
    assert "11 mod 12" in text


def test_pattern_moduli_lcm_can_exceed_the_stored_one(tmp_path, capsys):
    # 8k-7 and 8k-3 certify, but 1 and 5 mod 8 lie inside the covered 1 mod 4,
    # so nothing mod 8 is stored
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 8, "--checkpoint", cp) == 0
    assert run_cli("coverage", "--checkpoint", cp) == 0
    search_text, coverage_text = capsys.readouterr().out.split("frontier modulus")
    for text in (search_text, coverage_text):
        assert "lcm of stored moduli: 12\n" in text
        assert "lcm of certified pattern moduli: 24\n" in text
