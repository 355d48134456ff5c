import filecmp
import hashlib
import json

import pytest

from collatz_sieve import cli, oracle, search
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
    # the lines read after the header, appended again, give the same bytes
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 48, "--checkpoint", cp)
    header = cp.read_bytes().splitlines(keepends=True)[0]
    journal = load_checkpoint(str(cp))
    moduli = [json.loads(line)["modulus"] for line in journal.lines]
    assert moduli == list(range(2, 49, 2))  # one line per modulus
    assert journal.config.max_modulus == 48
    copy = tmp_path / "copy.json"
    copy.write_bytes(header)
    for line in journal.lines:
        save_checkpoint(str(copy), line + b"\n")
    assert filecmp.cmp(cp, copy, shallow=False)


@pytest.mark.parametrize("flags, digest", [
    (["--max-modulus", 64],
     "bf94bdce87d65a0dc796808692e8049ca63162d80d24264ada98b495c18dd03e"),
    (["--filter-3smooth", "on", "--skip-covered", "--max-modulus", 512],
     "bff6c9ffe75284560e59b05262514d1e734dec0b9f765806ce54d7c21a0e802c"),
], ids=["unfiltered-64", "3smooth-skip-covered-512"])
def test_journal_bytes_are_pinned(tmp_path, flags, digest):
    # A reader takes a line only in the bytes the search writes, so a change
    # of the encoding would make every earlier journal unreadable.
    cp = tmp_path / "run.json"
    assert run_cli("search", *flags, "--checkpoint", cp) == 0
    assert hashlib.sha256(cp.read_bytes()).hexdigest() == digest


def test_resume_is_byte_identical(tmp_path):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    run_cli("search", "--max-modulus", 64, "--out", a_csv, "--checkpoint", a_cp)
    run_cli("search", "--max-modulus", 32, "--out", b_csv, "--checkpoint", b_cp)
    assert run_cli("search", "--max-modulus", 64, "--out", b_csv,
                   "--checkpoint", b_cp, "--resume") == 0
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    assert filecmp.cmp(a_cp, b_cp, shallow=False)


def test_a_search_stopped_early_leaves_an_empty_csv_and_resumes_whole(tmp_path, monkeypatch):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    run_cli("search", "--max-modulus", 64, "--out", a_csv, "--checkpoint", a_cp)
    save = cli.save_checkpoint

    def save_until_40(path, line):
        if json.loads(line)["modulus"] == 40:
            raise OSError("no space left on device")
        save(path, line)

    monkeypatch.setattr(cli, "save_checkpoint", save_until_40)
    assert run_cli("search", "--max-modulus", 64, "--out", b_csv, "--checkpoint", b_cp) == 2
    monkeypatch.undo()
    assert b_csv.read_bytes() == b""  # the records of 2..38 are in the journal alone
    assert load_checkpoint(str(b_cp)).config.max_modulus == 38
    assert run_cli("search", "--max-modulus", 64, "--out", b_csv,
                   "--checkpoint", b_cp, "--resume") == 0
    assert filecmp.cmp(a_csv, b_csv, shallow=False)
    assert filecmp.cmp(a_cp, b_cp, shallow=False)


@pytest.mark.parametrize("flags, moduli", [
    ([], [128]),
    (["--skip-covered"], [64, 192]),
], ids=["unfiltered-128", "skip-covered-192-resumed"])
def test_results_csv_is_the_report_records_table(tmp_path, capsys, flags, moduli):
    out, cp = tmp_path / "run.csv", tmp_path / "run.json"
    for i, modulus in enumerate(moduli):
        resume = ["--resume"] if i else []
        assert run_cli("search", "--max-modulus", modulus, "--out", out, "--checkpoint", cp,
                       *flags, *resume) == 0
    capsys.readouterr()
    assert run_cli("report", "--checkpoint", cp, "--format", "csv") == 0
    tables = capsys.readouterr().out.split("\n\n")
    assert len(tables) == 3
    assert tables[-1].encode() == out.read_bytes()


def test_resume_with_filter_and_skip_covered(tmp_path):
    a_csv, a_cp = tmp_path / "a.csv", tmp_path / "a.json"
    b_csv, b_cp = tmp_path / "b.csv", tmp_path / "b.json"
    for flags in (["--filter-3smooth", "on", "--skip-covered"], ["--join-targets-3smooth"],
                  ["--skip-covered", "--join-targets-3smooth"]):
        run_cli("search", "--max-modulus", 192, "--out", a_csv, "--checkpoint", a_cp, *flags)
        run_cli("search", "--max-modulus", 64, "--out", b_csv, "--checkpoint", b_cp, *flags)
        assert run_cli("search", "--max-modulus", 192, "--out", b_csv,
                       "--checkpoint", b_cp, "--resume", *flags) == 0, flags
        assert filecmp.cmp(a_csv, b_csv, shallow=False), flags
        assert filecmp.cmp(a_cp, b_cp, shallow=False), flags
        assert run_cli("report", "--checkpoint", b_cp) == 0, flags


def test_resume_rejects_config_mismatch(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 16, "--checkpoint", cp)
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp,
                   "--resume", "--skip-covered") == 2


def _compact(doc):
    """A journal line in the journal's own encoding."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _edit_journal(path, edit):
    """Decode the lines after the header, apply edit(lines), write them back."""
    header, *lines = path.read_text().splitlines()
    lines = [json.loads(line) for line in lines]
    edit(lines)
    path.write_text("\n".join([header, *map(_compact, lines)]) + "\n")


@pytest.mark.parametrize("flags", [[], ["--filter-3smooth", "on", "--skip-covered"]],
                         ids=["unfiltered", "3smooth-skip-covered"])
def test_an_edit_that_changes_nothing_is_read(tmp_path, capsys, flags):
    # The control of the tamper tests: their rewrite alone is not rejected.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp, *flags) == 0
    kept = cp.read_bytes()
    _edit_journal(cp, lambda lines: None)
    assert cp.read_bytes() == kept
    for command in (["report"], ["coverage"], ["verify", 4, 3, "--k", 10],
                    ["search", "--max-modulus", 48, "--resume", *flags]):
        assert run_cli(*command, "--checkpoint", cp) == 0, command


@pytest.mark.parametrize("rewrite", [
    lambda line: json.dumps(json.loads(line)),
    lambda line: _compact(json.loads(line) | {"x": 1}),
    lambda line: json.dumps(dict(reversed(json.loads(line).items())), separators=(",", ":")),
    lambda line: line + "\r",
], ids=["spaces", "extra-key", "key-order", "crlf"])
def test_a_reserialised_journal_is_rejected(tmp_path, capsys, rewrite):
    # Equal fields in other bytes: a reader takes only the search's own line.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    header, *lines = cp.read_text().splitlines()
    lines[4] = rewrite(lines[4])
    cp.write_text("\n".join([header, *lines]) + "\n")
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert f"line 6 of checkpoint {cp} is malformed" in captured.err
        assert captured.out == ""


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


def test_replay_rejects_a_sound_certificate_the_search_does_not_write(tmp_path, capsys):
    # Element 5 of 8k-3, 3k-1, is below the anchor too, but the search writes
    # the first drop, 6k-2 at element 4.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, _replace_row([8, 3, 4, None, None, None], [8, 3, 5, None, None, None]))
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "certificate of 8k-3 does not hold" in captured.err
        assert captured.out == ""


def test_replay_rejects_a_journal_that_leaves_out_a_record(tmp_path, capsys):
    # 8k-7 lies inside the covered 1 mod 4, so leaving its record out changes
    # no density; the replay derives it all the same.
    out, cp = tmp_path / "run.csv", tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, lambda lines: lines[3]["records"].remove([8, 7, 4, None, None, None]))
    capsys.readouterr()
    for command in (["report"], ["coverage"],
                    ["search", "--max-modulus", 48, "--resume", "--out", out]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "the replay's record patterns does not match" in captured.err
        assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("flags", [[], ["--skip-covered"],
                                   ["--filter-3smooth", "on", "--skip-covered"]],
                         ids=["unfiltered", "skip-covered", "3smooth-skip-covered"])
def test_leaving_out_any_one_record_is_rejected(tmp_path, capsys, flags):
    cp, tampered = tmp_path / "run.json", tmp_path / "tampered.json"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp, *flags) == 0
    header, *lines = cp.read_text().splitlines()
    positions = [(i, j) for i, line in enumerate(lines)
                 for j in range(len(json.loads(line)["records"]))]
    capsys.readouterr()
    for i, j in positions:
        line = json.loads(lines[i])
        del line["records"][j]
        tampered.write_text("\n".join([header, *lines[:i], _compact(line), *lines[i + 1:]])
                            + "\n")
        for command in (["report"], ["coverage"],
                        ["search", "--max-modulus", 80, "--resume", *flags]):
            assert run_cli(*command, "--checkpoint", tampered) == 2, (i, j, command)
            assert capsys.readouterr().out == ""


def test_a_line_past_the_last_modulus_is_rejected(tmp_path, capsys):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, lambda lines: lines.append(lines[-1]))
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "the replay's density trail does not match" in captured.err
        assert captured.out == ""


def test_an_unwritable_journal_leaves_the_out_file_as_it_was(tmp_path):
    out = tmp_path / "keep.csv"
    assert run_cli("search", "--max-modulus", 16, "--out", out) == 0
    kept = out.read_bytes()
    assert run_cli("search", "--max-modulus", 16, "--out", out,
                   "--checkpoint", tmp_path / "missing" / "j.jsonl") == 2
    assert out.read_bytes() == kept


def test_an_unwritable_out_leaves_the_journal_as_it_was(tmp_path):
    cp = tmp_path / "keep.json"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp) == 0
    kept = cp.read_bytes()
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp,
                   "--out", tmp_path / "missing" / "x.csv") == 2
    assert cp.read_bytes() == kept


def test_resume_with_an_unwritable_out_fails_before_the_replay(tmp_path, monkeypatch):
    cp = tmp_path / "keep.json"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp) == 0
    with open(cp, "ab") as fh:
        fh.write(b'{"modulus":66,"rec')  # a torn last line, which a resume cuts
    kept = cp.read_bytes()
    monkeypatch.setattr(cli, "rebuild_state", lambda *args: pytest.fail("replayed"))
    assert run_cli("search", "--max-modulus", 80, "--checkpoint", cp, "--resume",
                   "--out", tmp_path / "missing" / "x.csv") == 2
    assert cp.read_bytes() == kept


def test_an_unwritable_journal_leaves_no_new_out_file(tmp_path):
    assert run_cli("search", "--max-modulus", 16, "--out", tmp_path / "new.csv",
                   "--checkpoint", tmp_path / "missing" / "j.jsonl") == 2
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("resume", [[], ["--resume"]], ids=["new", "resume"])
@pytest.mark.parametrize("name", ["same-path", "symlink", "hard-link"])
def test_an_out_file_that_is_the_journal_is_rejected(tmp_path, capsys, name, resume):
    cp, whole = tmp_path / "j.jsonl", tmp_path / "whole.jsonl"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    kept = cp.read_bytes()
    out = cp if name == "same-path" else tmp_path / "out.csv"
    if name == "symlink":
        out.symlink_to(cp)
    elif name == "hard-link":
        out.hardlink_to(cp)
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp, *resume,
                   "--out", out) == 2
    assert "--out and --checkpoint name the same file" in capsys.readouterr().err
    assert cp.read_bytes() == kept
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp, "--resume") == 0
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", whole) == 0
    assert filecmp.cmp(cp, whole, shallow=False)


def test_an_out_file_that_is_a_new_journal_is_rejected_and_removed(tmp_path, capsys):
    same = tmp_path / "x.jsonl"
    assert run_cli("search", "--max-modulus", 16, "--out", same, "--checkpoint", same) == 2
    assert "--out and --checkpoint name the same file" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_a_resume_that_cannot_write_its_journal_fails_before_the_replay(tmp_path, capsys,
                                                                        monkeypatch):
    cp, out = tmp_path / "keep.json", tmp_path / "new.csv"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp) == 0
    kept = cp.read_bytes()

    def refuse_to_write(path, mode="r", *args, **kwargs):
        # Tests may run as root, whom a read-only mode bit does not stop.
        if path == str(cp) and set(mode) & set("wax+"):
            raise PermissionError(13, "Permission denied", path)
        return open(path, mode, *args, **kwargs)

    monkeypatch.setattr(cli, "open", refuse_to_write, raising=False)
    monkeypatch.setattr(cli, "rebuild_state", lambda *args: pytest.fail("replayed"))
    assert run_cli("search", "--max-modulus", 80, "--checkpoint", cp, "--resume",
                   "--out", out) == 2
    assert "Permission denied" in capsys.readouterr().err
    assert cp.read_bytes() == kept
    assert not out.exists()


def test_a_resume_of_a_missing_journal_leaves_no_file(tmp_path, capsys):
    cp = tmp_path / "nope.jsonl"
    assert run_cli("search", "--max-modulus", 16, "--checkpoint", cp, "--resume",
                   "--out", tmp_path / "new.csv") == 2
    assert f"checkpoint error: checkpoint {cp} does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


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


@pytest.mark.parametrize("tamper, message", [
    (_set_density_1_over_0, "the replay's density trail does not match"),
    (_quote_a_modulus, "the replay's record patterns does not match"),
    (_make_a_stop_index_true, "the stored certificate of 6k-1 does not hold"),
], ids=["zero-denominator", "string-modulus", "boolean-stop-index"])
def test_malformed_numbers_are_checkpoint_errors(tmp_path, capsys, tamper, message):
    # A line is compared, not decoded: the message names the field that
    # differs from the search's, with fields compared by their encoding.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _edit_journal(cp, tamper)
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert message in captured.err
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
    for command in (["report"], ["coverage"], ["search", "--max-modulus", 48, "--resume"],
                    ["verify", 4, 3, "--k", 10]):
        assert run_cli(*command, "--checkpoint", cp) == 2, command
        assert message in capsys.readouterr().err


def _set_config(key, value):
    """A header rewrite that sets one configuration value, in the journal's
    own encoding."""
    def rewrite(header):
        doc = json.loads(header)
        doc["config"][key] = value
        return _compact(doc)
    return rewrite


def _rewrite_header(path, rewrite):
    header, rest = path.read_text().split("\n", 1)
    path.write_text(rewrite(header) + "\n" + rest)


def test_replay_settles_the_first_member_of_drop_records(tmp_path, capsys, monkeypatch):
    # With the numeric check of member 5 failing, the drop of 8k-3 is no
    # certificate, so a replay must not accept the stored one.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 64, "--checkpoint", cp) == 0
    settles = oracle.drops_below_self_or_reaches_one
    monkeypatch.setattr(oracle, "drops_below_self_or_reaches_one",
                        lambda n, *cap: n != 5 and settles(n, *cap))
    capsys.readouterr()
    for command in (["report"], ["coverage"]):
        assert run_cli(*command, "--checkpoint", cp) == 2
        captured = capsys.readouterr()
        assert "certificate of 8k-3 does not hold" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("rewrite", [
    _set_config("step_cap", 5), _set_config("step_cap", 0), _set_config("step_cap", -5),
    _set_config("numeric_step_cap", 1), _set_config("numeric_step_cap", 0),
    _set_config("numeric_step_cap", -5),
    lambda header: json.dumps(json.loads(header)),
    lambda header: json.dumps(dict(reversed(json.loads(header).items())), separators=(",", ":")),
    lambda header: header + "\r",
    _set_config("k_verify", True), _set_config("skip_covered", 1), _set_config("k_verify", "0"),
], ids=["5", "0", "-5", "numeric-1", "numeric-0", "numeric--5",
        "spaces", "key-order", "crlf", "k_verify-true", "flag-1", "k_verify-string"])
def test_a_step_cap_in_the_header_is_malformed(tmp_path, capsys, rewrite):
    # Neither cap is a setting; a journal header names them null and 10^6.  A
    # header is read only as the bytes the search writes, like every line.
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _rewrite_header(cp, rewrite)
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["verify", 4, 3, "--k", 10],
                    ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2, command
        captured = capsys.readouterr()
        assert "malformed configuration header" in captured.err
        assert captured.out == ""


def test_a_setting_the_search_rejects_cannot_be_replayed(tmp_path, capsys):
    cp = tmp_path / "run.json"
    assert run_cli("search", "--max-modulus", 32, "--checkpoint", cp) == 0
    _rewrite_header(cp, _set_config("k_verify", -1))
    capsys.readouterr()
    for command in (["report"], ["coverage"], ["verify", 4, 3, "--k", 10],
                    ["search", "--max-modulus", 48, "--resume"]):
        assert run_cli(*command, "--checkpoint", cp) == 2, command
        captured = capsys.readouterr()
        assert "cannot be replayed: k_verify must be >= 0, got -1" in captured.err
        assert captured.out == ""


def test_resume_requires_checkpoint_flag(capsys):
    assert run_cli("search", "--max-modulus", 16, "--resume") == 2


def test_search_rejects_odd_max_modulus(capsys):
    assert run_cli("search", "--max-modulus", 7) == 2
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


def test_verify_the_seed(capsys):
    # 2k halves to k: the seed is derived like any other class.
    assert run_cli("verify", 2, 0, "--k", 10) == 0
    assert capsys.readouterr().out == (
        "verified: 2k-0 drops below its anchor at element 2, checked k=1..10\n")


def test_verify_uncertifiable_class(capsys):
    assert run_cli("verify", 6, 5, "--k", 10) == 1
    assert "no certificate exists" in capsys.readouterr().out


def test_verify_uses_checkpoint_records(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 18, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("verify", 18, 5, "--k", 100, "--checkpoint", cp) == 0
    # 8k-3 drops at element 4 and, weaker but sound, at 5: the journal's row is
    # what verify checks, not a record it derives.
    def edit(lines):
        records = next(line for line in lines if line["modulus"] == 8)["records"]
        records[records.index([8, 3, 4, None, None, None])][2] = 5
    _edit_journal(cp, edit)
    capsys.readouterr()
    assert run_cli("verify", 8, 3, "--k", 100, "--checkpoint", cp) == 0
    assert capsys.readouterr().out == (
        "verified: 8k-3 drops below its anchor at element 5, checked k=1..100\n")


def test_verify_a_class_the_checkpoint_lacks(tmp_path, capsys):
    # 20 is no 2^t*3^s, so the 3-smooth journal has no 20k-19; verify derives nothing.
    cp = tmp_path / "run.json"
    flags = ["--filter-3smooth", "on", "--skip-covered"]
    assert run_cli("search", "--max-modulus", 64, *flags, "--checkpoint", cp) == 0
    capsys.readouterr()
    assert run_cli("verify", 20, 19, "--k", 100, "--checkpoint", cp) == 1
    assert capsys.readouterr().out == (
        f"no certificate exists for 20k-19 in checkpoint {cp}\n")


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


@pytest.mark.parametrize("flags, coeff, cap", [
    (["--max-modulus", 64], 8, 6),
    (["--max-modulus", 300, "--skip-covered"], 64, 12),
], ids=["unfiltered", "skip-covered"])
def test_search_step_cap_breach(capsys, monkeypatch, flags, coeff, cap):
    # The cap, the proved bound plus slack, is never reached; a smaller one is.
    monkeypatch.setattr(search, "default_step_cap", lambda modulus: cap)
    assert run_cli("search", *flags) == 3
    assert (f"cap breached: trajectory of AffineForm(coeff={coeff}, offset=-1) "
            f"exceeded {cap} elements") in capsys.readouterr().err


def test_stoptimes_needs_work(capsys):
    assert run_cli("stoptimes") == 2


def test_stoptimes_step_cap_breach(capsys, monkeypatch):
    # The cap is 10^6 steps, not a setting; 27 joins at element 96.
    monkeypatch.setattr(oracle, "DEFAULT_STEP_CAP", 50)
    assert run_cli("stoptimes", "--n", 27) == 3
    assert "step cap breached: trajectory of 27 exceeded 50 steps" in capsys.readouterr().err


def test_coverage_summary(tmp_path, capsys):
    cp = tmp_path / "run.json"
    run_cli("search", "--max-modulus", 6, "--checkpoint", cp)
    capsys.readouterr()
    assert run_cli("coverage", "--checkpoint", cp, "--classes") == 0
    text = capsys.readouterr().out
    assert "density 5/6 = 83.33333%" in text
    assert "lcm of stored moduli: 12" in text
    assert "lcm of certified pattern moduli: 12" in text
    # the diagram's canonical classes: x mod 3 first, then the bits of x
    assert text.endswith("disjoint residue classes: 5\n"
                         "density 5/6 = 83.33333%\n"
                         "lcm of stored moduli: 12\n"
                         "lcm of certified pattern moduli: 12\n"
                         "  2 mod 3\n  0 mod 6\n  4 mod 6\n  1 mod 12\n  9 mod 12\n")


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
