import io
import json
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ingleton.catalogue import SUBSETS, run_entry
from ingleton.cli import main
from ingleton.records import (
    class_record,
    quadruple_record,
    read_records,
    summary_record,
    verify_record,
    write_records,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
SHIPPED_EXAMPLE = REPO_ROOT / "data" / "psl27_example.jsonl"
GOLDEN_RECORDS = Path(__file__).resolve().parent / "data" / "golden_s5_a4a4.jsonl"


def run_cli(*argv):
    return main(list(argv))


def test_record_roundtrip(s5_classes):
    rec = class_record(s5_classes[0])
    assert verify_record(rec) == []
    # through JSON text
    buf = io.StringIO()
    write_records([rec], buf)
    buf.seek(0)
    parsed = read_records(buf)
    assert len(parsed) == 1
    assert verify_record(parsed[0]) == []


def test_tampered_record_detected(s5_classes):
    rec = class_record(s5_classes[0])
    bad = json.loads(json.dumps(rec))
    bad["terms"]["h13"] += 1
    assert any("term h13" in m for m in verify_record(bad))
    bad2 = json.loads(json.dumps(rec))
    bad2["ratio"] = {"num": 1, "den": 1}
    assert verify_record(bad2)
    bad3 = json.loads(json.dumps(rec))
    bad3["class_size"] = 7
    assert any("class_size" in m for m in verify_record(bad3))


def test_quadruple_record_of_example():
    from ingleton.constructions import example_3xpsl27

    rec = quadruple_record(example_3xpsl27())
    assert rec["group_order"] == 504
    assert rec["ratio"] == {"num": 9, "den": 8}
    assert verify_record(rec) == []


def test_wreath2_record_verifies():
    # wreath2 params lead with a constructor name, which must survive the JSON round trip
    from ingleton.constructions import construct_named
    from ingleton.engine import Quadruple, evaluate
    from ingleton.groups import build_group
    from ingleton.subgroups import all_subgroups
    from oracles import orbit_of

    G = build_group(construct_named("wreath2", ("sym", 3)))
    subs = all_subgroups(G)
    Q = Quadruple(subs[-2], subs[-3], subs[len(subs) // 2], subs[len(subs) // 3])
    report = evaluate(Q, with_irreducible=True, with_indomitable=True)
    rec = json.loads(json.dumps(quadruple_record(Q, report, len(orbit_of(G, Q.bits_tuple())))))
    assert rec["group"]["params"] == ["sym", 3]
    assert verify_record(rec) == []


def search_records_text(*searches):
    """The records of complete searches as the CLI writes them, without elapsed_seconds."""
    buf = io.StringIO()
    for G, classes in searches:
        summary = summary_record(G, classes, True, 0.0)
        del summary["elapsed_seconds"]
        write_records([class_record(c) for c in classes] + [summary], buf)
    return buf.getvalue()


def test_golden_search_records(s5_group, s5_classes, a4a4_group, a4a4_classes):
    # records of the default S5 and A4xA4 searches, pinned byte for byte
    text = search_records_text((s5_group, s5_classes), (a4a4_group, a4a4_classes))
    assert text == GOLDEN_RECORDS.read_text(encoding="utf-8")


@pytest.mark.parametrize(
    "name, golden",
    [
        ("alt:6", "golden_a6.jsonl"),
        ("gl2:5", "golden_gl25.jsonl"),
        ("psl2:8", "golden_psl28.jsonl"),
        ("wreath2:alt:4", "golden_a4wr2.jsonl"),
    ],
    ids=["A6", "GL2(5)", "PSL2(8)", "A4wr2"],
)
def test_golden_search_records_named(name, golden):
    # the default searches of A6 (32 classes, 8 with H1 and H2 conjugate),
    # GL2(5) (15 classes), and the groups of the benchmark's lattice and
    # candidate-loop workloads, PSL(2,8) (1 class) and A4 wreath 2 (7
    # classes), pinned byte for byte
    from ingleton.constructions import parse_named
    from ingleton.groups import build_group
    from ingleton.search import search_offenders

    G = build_group(parse_named(name))
    path = Path(__file__).resolve().parent / "data" / golden
    assert search_records_text((G, search_offenders(G))) == path.read_text(encoding="utf-8")


def test_sparse_groups_verify_like_dense(monkeypatch):
    # past groups.DEFAULT_ORDER_CAP a group multiplies concrete elements; verify,
    # the class size included, must read the same either way
    from ingleton import groups
    from ingleton.records import rebuild_quadruple

    records = []
    for path in (SHIPPED_EXAMPLE, GOLDEN_RECORDS):
        with path.open(encoding="utf-8") as f:
            records += [r for r in read_records(f) if r.get("type") == "offender-class"]
    mutants = [{**r, "class_size": r["class_size"] + 1} for r in records]
    dense = [verify_record(r) for r in records + mutants]
    monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
    assert rebuild_quadruple(records[0]).group.mul_table is None
    assert [verify_record(r) for r in records + mutants] == dense
    assert dense[: len(records)] == [[]] * len(records)
    assert all(m and m[0].startswith("class_size:") for m in dense[len(records) :])


def test_cli_search_s3_empty(capsys):
    assert run_cli("search", "--perm", "(1,2),(1,2,3)") == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 1
    summary = json.loads(out[0])
    assert summary["type"] == "summary"
    assert summary["group_order"] == 6
    assert summary["classes"] == 0


def test_cli_search_s5_and_verify(tmp_path, capsys):
    out_file = tmp_path / "s5.jsonl"
    assert run_cli("search", "--named", "sym:5", "--out", str(out_file)) == 0
    lines = out_file.read_text().strip().splitlines()
    assert len(lines) == 2  # one class + summary
    assert run_cli("verify", str(out_file)) == 0
    capsys.readouterr()

    # tamper: change one term
    record = json.loads(lines[0])
    record["terms"]["h24"] = 1
    bad_file = tmp_path / "bad.jsonl"
    bad_file.write_text(json.dumps(record) + "\n")
    assert run_cli("verify", str(bad_file)) == 1


def test_cli_search_usage_errors(capsys):
    assert run_cli("search") == 2  # no group source
    assert run_cli("search", "--named", "nosuch:3") == 2
    assert run_cli("search", "--named", "sym:5", "--perm", "(1,2)") == 2
    assert run_cli("search", "--perm", "(1,2(") == 2
    assert run_cli("search", "--named", "sym:7") == 2  # order cap
    # factorized-h12 was removed: it only ever saw passing comparisons, where it never fires
    assert run_cli("search", "--named", "sym:4", "--no-filter", "factorized-h12") == 2
    capsys.readouterr()
    for text in ("", "*", "sym:4*", "*sym:4", "sym:4**sym:4", "sym", "sym:5:6", "sym:-3", "cyclic:0",
                 "psl2:6", "nosuch:3", "wreath2", "wreath2:alt", "wreath2:nosuch:3"):
        assert run_cli("search", "--named", text) == 2, text
        assert capsys.readouterr().err.startswith("error: "), text


@pytest.mark.parametrize("named", ["wreath2:alt:x", "wreath2:alt:4:y", "sym:x", "alt:4*sym:x"])
def test_cli_search_non_integer_parameter_is_a_usage_error(capsys, named):
    assert run_cli("search", "--named", named) == 2
    assert "error: non-integer parameter" in capsys.readouterr().err


def test_cli_search_unwritable_out_fails_before_searching(tmp_path, capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("the search ran before --out was opened")

    monkeypatch.setattr("ingleton.cli.search_offenders", no_search)
    assert run_cli("search", "--named", "sym:4", "--out", str(tmp_path / "no" / "x.jsonl")) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_family_unwritable_out(tmp_path, capsys):
    assert run_cli("family", "4", "--out", str(tmp_path / "no" / "x.json")) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.out == ""


def test_cli_search_nan_budget_is_a_usage_error(capsys):
    assert run_cli("search", "--named", "sym:4", "--budget", "nan") == 2
    assert "NaN" in capsys.readouterr().err


def test_cli_search_negative_budget_is_a_usage_error(capsys):
    assert run_cli("search", "--named", "sym:4", "--budget", "-1") == 2
    captured = capsys.readouterr()
    assert "negative" in captured.err and captured.out == ""


def test_cli_family_past_the_order_cap_is_a_usage_error(capsys):
    assert run_cli("family", "64") == 2
    captured = capsys.readouterr()
    assert "16515072" in captured.err and captured.out == ""


def test_cli_search_budget_exit(capsys):
    assert run_cli("search", "--named", "alt:6", "--budget", "0") == 3
    out = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(out[-1])
    assert summary["complete"] is False


def test_cli_matrix_input(capsys):
    # the two upper unitriangular generators give an elementary abelian group
    code = run_cli("search", "--matrix", "5:1,1,0,0,1,0,0,0,1;1,0,1,0,1,0,0,0,1")
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["classes"] == 0
    assert summary["group_order"] == 25


def test_cli_family(capsys):
    assert run_cli("family", "5") == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] is True
    assert report["ratio"] == {"num": 32, "den": 25}
    assert report["order"] == 500

    assert run_cli("family", "2") == 2
    capsys.readouterr()


@pytest.mark.parametrize("zeta", ["0", "5", "-1", "6"])
def test_cli_family_zeta_outside_the_field(capsys, zeta):
    assert run_cli("family", "5", f"--zeta={zeta}") == 2
    assert "error:" in capsys.readouterr().err


def test_cli_family_q3_warning(capsys):
    assert run_cli("family", "3", "--allow-small") == 0
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["offender"] is False
    assert report["small_field_warning"] is True


def test_cli_shipped_example_record(capsys):
    assert SHIPPED_EXAMPLE.exists()
    assert run_cli("verify", str(SHIPPED_EXAMPLE)) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(lambda r: {**r, "ratio": {**r["ratio"], "num": "nine"}}, id="ratio-num-not-integer"),
        pytest.param(lambda r: {**r, "ratio": 9}, id="ratio-not-object"),
        pytest.param(lambda r: {**r, "score": "high"}, id="score-not-numeric"),
        pytest.param(lambda r: {**r, "score": float("nan")}, id="score-nan"),
        pytest.param(lambda r: {**r, "score": 10**400}, id="score-too-large-for-float"),
        pytest.param(lambda r: {**r, "ratio": {**r["ratio"], "num": float("inf")}}, id="ratio-num-infinite"),
        pytest.param(lambda r: {**r, "terms": list(r["terms"].values())}, id="terms-is-list"),
        pytest.param(lambda r: {**r, "flags": ["offender"]}, id="flags-is-list"),
        pytest.param(lambda r: [r], id="line-not-object"),
    ],
)
def test_cli_verify_reports_malformed_record(mutate, tmp_path, capsys):
    record = json.loads(SHIPPED_EXAMPLE.read_text(encoding="utf-8"))
    bad_file = tmp_path / "bad.jsonl"
    bad_file.write_text(json.dumps(mutate(record)) + "\n")
    assert run_cli("verify", str(bad_file)) == 1
    err = capsys.readouterr().err
    assert err.startswith("line 1: ")
    assert "Traceback" not in err


# json.loads also reads NaN and Infinity, so the floats include them
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=8,
)
SHIPPED_RECORD = json.loads(SHIPPED_EXAMPLE.read_text(encoding="utf-8"))
FIELD_PATHS = [(key,) for key in SHIPPED_RECORD] + [
    ("subgroups", i, key) for i, entry in enumerate(SHIPPED_RECORD["subgroups"]) for key in entry
]


@settings(max_examples=40, deadline=None)
@given(path=st.sampled_from(FIELD_PATHS), value=JSON_VALUES)
def test_verify_record_never_raises_on_a_mutated_field(path, value):
    record = json.loads(json.dumps(SHIPPED_RECORD))
    target = record
    for step in path[:-1]:
        target = target[step]
    target[path[-1]] = value
    problems = verify_record(record)
    assert isinstance(problems, list)
    assert all(isinstance(p, str) for p in problems)


def test_verify_record_raises_word_powers_by_squaring(monkeypatch):
    # g0 has order 3 and 10**12 = 1 mod 3, so H1's word g0^(10**12) names the
    # same element as g0: both records give the same mismatches, and the power
    # costs at most two products per bit of the exponent, not 10**12
    from ingleton.groups import GroupTable

    products = []
    mul = GroupTable.mul
    monkeypatch.setattr(GroupTable, "mul", lambda self, a, b: products.append(1) or mul(self, a, b))
    results = []
    for word in (f"g0^{10**12}", "g0"):
        record = json.loads(json.dumps(SHIPPED_RECORD))
        record["subgroups"][0]["generators"][0] = word
        products.clear()
        results.append((verify_record(record), len(products)))
    (huge, huge_products), (plain, plain_products) = results
    assert huge == plain and huge and isinstance(huge, list)
    assert huge_products - plain_products <= 2 * (10**12).bit_length()


def test_verify_record_refuses_a_huge_degree_before_padding():
    # a degree of 30 million once padded every generator before any check;
    # now it is a mismatch that allocates next to nothing
    import tracemalloc

    record = json.loads(json.dumps(SHIPPED_RECORD))
    record["group"]["degree"] = 30_000_000
    tracemalloc.start()
    try:
        problems = verify_record(record)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(problems) == 1 and problems[0].startswith("rebuild failed: ")
    assert "degree" in problems[0]
    assert peak < 1 << 20
    assert verify_record(SHIPPED_RECORD) == []


def test_verify_record_rejects_a_non_integer_parameter():
    # alt:6.5 once verified as A6; now it is a mismatch, never a crash
    record = {**SHIPPED_RECORD, "group": {"variant": "named", "name": "alt", "params": [6.5]}}
    problems = verify_record(record)
    assert len(problems) == 1 and problems[0].startswith("rebuild failed: non-integer parameter")


def test_cli_verify_continues_past_invalid_json_line(tmp_path, capsys):
    line = SHIPPED_EXAMPLE.read_text(encoding="utf-8").strip()
    bad_file = tmp_path / "truncated.jsonl"
    bad_file.write_text(f"{line}\n{line[:40]}\n{line}\n")
    assert run_cli("verify", str(bad_file)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("line 2: not valid JSON: ")
    assert len(captured.err.splitlines()) == 1
    assert "verified 3 record(s); 1 mismatching" in captured.out


def test_cli_verify_reports_file_lines_past_blank_lines(tmp_path, capsys):
    line = SHIPPED_EXAMPLE.read_text(encoding="utf-8").strip()
    bad = json.dumps({**json.loads(line), "score": "high"})
    records_file = tmp_path / "blank.jsonl"
    records_file.write_text(f"{line}\n\n  \n{bad}\n")
    assert run_cli("verify", str(records_file)) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("line 4: score: ")
    assert "verified 2 record(s); 1 mismatching" in captured.out


def test_cli_verify_builds_each_group_spec_once(tmp_path, capsys, monkeypatch):
    # records naming one spec share its build; a build that fails is reported
    # as before and not kept, so the next record naming that spec rebuilds it
    from ingleton import records

    line = SHIPPED_EXAMPLE.read_text(encoding="utf-8").strip()
    record = json.loads(line)
    tampered = json.dumps({**record, "lhs": "1"})
    too_big = json.dumps({**record, "group": {"variant": "named", "name": "sym", "params": [7]}})
    text = f"{line}\n{line[:40]}\n{tampered}\n{too_big}\n{too_big}\n"
    expected = [
        f"line {n}: {m}"
        for n, r in enumerate(read_records(text.splitlines()), start=1)
        for m in verify_record(r)
    ]
    built = []
    build_group = records.build_group
    monkeypatch.setattr(records, "build_group", lambda spec, **kw: built.append(spec) or build_group(spec, **kw))
    records_file = tmp_path / "shared.jsonl"
    records_file.write_text(text)
    assert run_cli("verify", str(records_file)) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == expected
    assert [m.split(":")[0] for m in expected] == ["line 2", "line 3", "line 4", "line 5"]
    assert "verified 5 record(s); 4 mismatching" in captured.out
    assert len(built) == 3  # the shared spec once, the failing spec at each of its lines


def test_cli_verify_missing_file(capsys):
    assert run_cli("verify", "/nonexistent/records.jsonl") == 2
    capsys.readouterr()


def test_cli_verify_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b"\xff\xfe" + SHIPPED_EXAMPLE.read_bytes())
    assert run_cli("verify", str(path)) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_cli_search_a5_empty(capsys):
    assert run_cli("search", "--named", "alt:5") == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["classes"] == 0 and summary["group_order"] == 60


def test_cli_catalogue_fast(capsys):
    assert run_cli("catalogue", "fast") == 0
    out = capsys.readouterr().out
    assert "all entries passed" in out
    assert "PASS S5" in out


BOREL192 = "family-q4 (order-192 Borel)"


@pytest.mark.parametrize(
    "name,changes,budget,first",
    [
        pytest.param(BOREL192, {"expected_ratios": (Fraction(1),)}, None, "ratios: expected {1}, got {9/8}",
                     id="family-ratio"),
        pytest.param("S5", {"expected_scores": (0.5,)}, None, "scores: expected {0.50000}, got {0.01348}",
                     id="search-score"),
        pytest.param("S5", {"expected_order": 121}, None, "order: expected 121, got 120", id="order"),
        pytest.param("S5", {"kind": "negative", "expected_offender": False}, None,
                     "offender: expected False, got True", id="negative-s5"),
        pytest.param("S5", {}, 0, "budget: ", id="budget-0"),
    ],
)
def test_catalogue_row_mismatch_fails(name, changes, budget, first):
    row = next(e for e in SUBSETS["extended"] if e.name == name)
    result = run_entry(replace(row, **changes), budget=budget)
    assert not result.passed
    assert result.failures[0].startswith(first)


def test_cli_catalogue_unknown_subset(capsys):
    assert run_cli("catalogue", "everything") == 2
    capsys.readouterr()


def test_cli_catalogue_nan_budget_is_a_usage_error(capsys):
    # as with search, a NaN budget stops the run before any entry, not one FAIL per entry
    assert run_cli("catalogue", "standard", "--budget", "nan") == 2
    captured = capsys.readouterr()
    assert "NaN" in captured.err
    assert captured.out == ""


@pytest.mark.slow
def test_cli_catalogue_standard(capsys):
    assert run_cli("catalogue", "standard") == 0
    out = capsys.readouterr().out
    assert "all entries passed" in out
    assert "PASS A6" in out and "PASS A4wr2" in out


def test_cli_entrypoint_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "ingleton", "search", "--named", "cyclic:12"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout.strip())["classes"] == 0


def test_cli_search_into_closed_pipe_exits_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "ingleton", "search", "--named", "sym:5"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=REPO_ROOT,
    )
    proc.stdout.close()  # the reader is gone before the first record
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait() == 1
    assert "Traceback" not in err


def test_search_records_byte_identical_across_runs(tmp_path):
    files = []
    for i in range(2):
        f = tmp_path / f"run{i}.jsonl"
        assert run_cli("search", "--named", "sym:5", "--out", str(f)) == 0
        files.append(f)
    a = [l for l in files[0].read_text().splitlines() if '"summary"' not in l]
    b = [l for l in files[1].read_text().splitlines() if '"summary"' not in l]
    assert a == b and a
