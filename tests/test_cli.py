"""Command-line interface: subcommands, exit codes, report output."""

import csv
import io
import json
import time
import tracemalloc

import pytest

from sumfree import cli
from sumfree.arith import PRIME_TEST_BOUND
from sumfree.cli import main
from sumfree.dilation import ExtractionCertificate
from sumfree.errors import CertificationError, InputError, ResourceLimitError, SumfreeError
from sumfree.mps import PHI_GRID_CAP
from sumfree.sets import load_set
from sumfree.sieve import SIEVE_CUTOFF_CAP


@pytest.fixture()
def set_file(tmp_path):
    p = tmp_path / "a.txt"
    p.write_text("".join(f"{n}\n" for n in (1, 3, 9, 27)))
    return str(p)


def test_analyze(set_file, capsys):
    assert main(["analyze", "--input", set_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stages"]["structure"]["geometric"] is True


def test_extract(set_file, capsys):
    assert main(["extract", "--input", set_file, "--k", "2", "--l", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    cert = out["stages"]["extraction"]["certificate"]
    assert cert["count"] >= 2
    assert cert["k"] == 2 and cert["l"] == 1


def test_verify(set_file, capsys):
    code = main(["verify", "--input", set_file, "--q", "5", "--cutoff", "200"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    stage = out["stages"]["verify"]
    assert stage["all_equal"]
    assert all(r["equal"] for r in stage["identities"])


def test_verify_decides_a_large_p_quickly(set_file, capsys):
    # a 17-digit prime P: trial division would take seconds
    start = time.perf_counter()
    assert main(["verify", "--input", set_file, "--p", "10000000000000061"]) == 0
    assert time.perf_counter() - start < 1
    assert json.loads(capsys.readouterr().out)["config"]["p"] == 10000000000000061


def test_oracle(set_file, capsys):
    assert main(["oracle", "--input", set_file, "--k", "2", "--l", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["stages"]["oracle"]["gap"] >= 0


def test_report_surplus(capsys):
    code = main(["report", "--kind", "surplus_vs_N", "--sizes", "10,20"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("N,")
    assert len(lines) == 3


def test_every_k_l_extracts(set_file, capsys):
    # each arc has measure 1/(k+l), so |A_x| has mean N/(k+l): no surplus is negative
    with open(set_file, "rb") as fh:
        A = load_set(fh.read(), "lines")
    for argv, stage, key in (
        (["extract", "--k", "3", "--l", "5"], "extraction", "certificate"),
        (["oracle", "--k", "3", "--l", "1"], "oracle", "extractor"),
        (["oracle", "--k", "1", "--l", "2"], "oracle", "extractor"),
    ):
        assert main([*argv, "--input", set_file]) == 0
        data = json.loads(capsys.readouterr().out)["stages"][stage][key]
        cert = ExtractionCertificate.from_json(data)
        assert cert.reverify(A) and cert.surplus >= 0, argv
    argv = ["report", "--kind", "surplus_vs_N", "--k", "3", "--l", "1", "--sizes", "10,20"]
    assert main(argv) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2 and all(float(row["surplus"]) >= 0 for row in rows)


def test_missing_file_exits_2(tmp_path):
    assert main(["analyze", "--input", str(tmp_path / "nope.txt")]) == 2


def test_parse_error_exits_2(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("0\n")
    assert main(["analyze", "--input", str(p)]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["lp", "--sizes", "a"],
        ["lp", "--sizes", "16,0"],
        ["phi", "--size", "0"],
        ["phi", "--size", "x"],
        ["verify", "--cutoff", "0"],
        ["verify", "--cutoff", str(SIEVE_CUTOFF_CAP + 1)],
        ["verify", "--q", "4"],
        ["verify", "--p", "100"],
        ["phi", "--base", "2"],
        ["phi", "--grid", "1000"],
        ["phi", "--grid", str(1 << PHI_GRID_CAP.bit_length())],  # the next power of two
        ["verify", "--p", str(PRIME_TEST_BOUND)],
    ],
)
def test_bad_number_exits_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@pytest.mark.parametrize(
    "argv, code",
    [
        (["extract", "--input", "{set}", "--k", "0", "--l", "1"], 2),
        (["extract", "--input", "{set}", "--k", "2", "--l", "2"], 2),
        (["oracle", "--input", "{set}", "--k", "2", "--l", "2"], 2),
        (["phi", "--grid", "4", "--size", "100"], 2),
        (["report", "--kind", "phi_profile", "--size", "100", "--grid", "64"], 2),
        (["lp", "--sizes", "1,2"], 2),
        (["lp", "--sizes", "1,1,1"], 2),
        (["analyze", "--input", "{set}", "--threshold-exp", "nan"], 2),
        (["analyze", "--input", "{set}", "--threshold-exp", "inf"], 2),
        (["analyze", "--input", "{set}", "--threshold-exp", "1e308"], 2),
        (["phi", "--weights", "random", "--seed", "-1"], 2),
        (["lp", "--seed", "-1"], 2),
        (["analyze", "--input", "{dir}"], 2),
        (["analyze", "--input", "{binary}"], 2),
        (["analyze", "--input", "{set}", "--out", "{dir}"], 2),
        (["extract", "--input", "{large}"], 3),
        (["oracle", "--input", "{thirty}"], 3),
        (["analyze", "--input", "{set}", "--threshold-exp", "1"], 0),
        # within the --grid cap, but 11 blocks on 2^24 points exceed the budget
        (["phi", "--grid", str(1 << 24), "--base", "4", "--size", "2000000"], 3),
        # the chain would run 200,000 steps, past CHAIN_STEP_CAP
        (["lp", "--sizes", "16,32,200000"], 3),
    ],
)
def test_exit_code(argv, code, set_file, tmp_path):
    (tmp_path / "binary").write_bytes(b"\xff\xfe1\n")
    (tmp_path / "large").write_text("3\n1000000000000\n")
    (tmp_path / "thirty").write_text("".join(f"{n}\n" for n in range(1, 31)))
    (tmp_path / "dir").mkdir()
    paths = {"set": set_file, **{k: str(tmp_path / k) for k in ("dir", "binary", "large", "thirty")}}
    assert _exit_code([a.format(**paths) for a in argv]) == code


@pytest.mark.parametrize(
    "argv",
    [
        ["phi", "--size", "2000000", "--grid", "4"],
        ["report", "--kind", "phi_profile", "--size", "2000000", "--grid", "4"],
        # a 2^34-point grid would ask for hundreds of GiB
        ["phi", "--grid", str(2**34)],
        # 2*size fits these grids, but the last block's Q_k needs about 8*size
        ["phi", "--size", "32000", "--grid", "131072"],
        ["phi", "--size", "16000", "--grid", "65536"],
    ],
    ids=["phi", "phi_profile", "phi_grid_2_34", "phi_block_32000", "phi_block_16000"],
)
def test_oversized_phi_size_exits_2_before_allocating(argv):
    tracemalloc.start()
    try:
        code = _exit_code(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert peak < 1 << 20


def test_stdin_input(monkeypatch):
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"1\n3\n")))
    assert main(["analyze", "--input", "-"]) == 0
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(b"\xff\n")))
    assert main(["analyze", "--input", "-"]) == 2


@pytest.mark.parametrize(
    "error, code",
    [(SumfreeError, 1), (CertificationError, 1), (InputError, 2), (ResourceLimitError, 3), (OSError, 2)],
)
def test_exit_code_follows_error_class(monkeypatch, set_file, error, code):
    def run(config):
        raise error("boom")

    monkeypatch.setattr(cli, "run", run)
    assert main(["analyze", "--input", set_file]) == code


def test_internal_bug_keeps_its_traceback(monkeypatch, set_file):
    def run(config):
        raise TypeError("a bug")

    monkeypatch.setattr(cli, "run", run)
    with pytest.raises(TypeError, match="a bug"):
        main(["analyze", "--input", set_file])


def test_failed_verify_names_each_failing_identity(monkeypatch, set_file, capsys):
    real = cli.verify_identity

    def verify_identity(iid, A, ctx, X):
        row = real(iid, A, ctx, X)
        return dict(row, equal=False, defect="-1/6i", witness=-7) if iid == "lambda1" else row

    monkeypatch.setattr(cli, "verify_identity", verify_identity)
    assert main(["verify", "--input", set_file, "--q", "5", "--cutoff", "200"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: identity verification failed: lambda1 (defect -1/6i at -7)\n"


def test_flags_belong_to_their_subcommand(set_file, capsys):
    # --cutoff is read by verify only, and no report kind reads --q
    for argv in (
        ["extract", "--input", set_file, "--cutoff", "200"],
        ["report", "--kind", "l1_growth", "--q", "7"],
    ):
        assert _exit_code(argv) == 2
    with pytest.raises(SystemExit):
        main(["lp", "--help"])
    help_text = capsys.readouterr().out
    assert "--sizes" in help_text and "--seed" in help_text
    assert "--input" not in help_text and "--cutoff" not in help_text



_CHECKED = {
    "phi": ["phi", "--size", "120", "--base", "4", "--grid", "4096", "--weights", "random", "--seed", "3"],
    "lp": ["lp", "--sizes", "4,6,8"],
}


@pytest.fixture(scope="module")
def checked_reports(tmp_path_factory):
    """The phi and lp golden configurations, written by the CLI."""
    paths = {}
    for name, argv in _CHECKED.items():
        paths[name] = str(tmp_path_factory.mktemp("reports") / f"{name}.json")
        assert main([*argv, "--out", paths[name]]) == 0
    return paths


@pytest.mark.parametrize("name", sorted(_CHECKED))
def test_check_reproduces_report(name, checked_reports, capsys):
    assert main(["check", checked_reports[name]]) == 0
    stage = json.loads(capsys.readouterr().out)["stages"]["check"]
    assert stage == {"command": name, "equal": True, "mismatches": []}


def _scale(factor, *path):
    def mutate(report):
        *inner, last = path
        node = report["stages"]
        for key in inner:
            node = node[key]
        node[last] *= factor
    return mutate


_PHI = ("phi", "certificate")


@pytest.mark.parametrize(
    "name, mutate, code",
    [
        ("phi", _scale(1 + 1e-9, *_PHI, "sup_bound"), 1),
        ("phi", _scale(1 + 1e-9, *_PHI, "per_block", 2, "coeff_l2"), 1),
        ("phi", _scale(1 + 1e-9, *_PHI, "pairing", 0), 1),
        ("lp", _scale(1 + 1e-9, "lp", "rows", 1, "l1"), 1),
        # inside the 1e-12 tolerance that absorbs other numpy builds
        ("phi", _scale(1 + 1e-14, *_PHI, "sup_bound"), 0),
    ],
    ids=["sup_bound", "coeff_l2", "pairing", "lp_l1", "sup_bound_within_tolerance"],
)
def test_check_exit_code_on_mutated_report(name, mutate, code, checked_reports, tmp_path, capsys):
    with open(checked_reports[name]) as fh:
        report = json.load(fh)
    mutate(report)
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(report))
    assert main(["check", str(path)]) == code
    if code:
        assert "does not reproduce" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value",
    [("seed", -1), ("size", 1.5), ("base", "4"), ("weights", "bogus")],
)
def test_check_refuses_a_tampered_config(field, value, checked_reports, tmp_path, capsys):
    # each would reach numpy, or the random-weight branch, unrefused
    with open(checked_reports["phi"]) as fh:
        report = json.load(fh)
    report["config"][field] = value
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    assert main(["check", str(path)]) == 2
    assert f"--{field}" in capsys.readouterr().err


def test_check_refuses_report_of_an_input_file(set_file, tmp_path, capsys):
    path = str(tmp_path / "extract.json")
    assert main(["extract", "--input", set_file, "--out", path]) == 0
    assert main(["check", path]) == 2
    assert "embedded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, input_path, error",
    [
        ("check", None, "'check'"),  # check would re-run itself on a null input
        ("check", "lp.json", "'check'"),
        ("report", None, "--kind"),
        ("bogus", None, "'bogus'"),
    ],
)
def test_check_refuses_a_command_it_cannot_rerun(
    command, input_path, error, checked_reports, tmp_path, capsys
):
    path = str(tmp_path / "check.json")
    assert main(["check", checked_reports["lp"], "--out", path]) == 0
    with open(path) as fh:
        report = json.load(fh)
    report["config"].update(command=command, input=input_path)
    with open(path, "w") as fh:
        json.dump(report, fh)
    assert main(["check", path]) == 2
    assert error in capsys.readouterr().err


def test_check_refuses_what_is_not_a_report(tmp_path):
    (tmp_path / "text.json").write_text("not json")
    (tmp_path / "list.json").write_text("[1, 2]")
    assert main(["check", str(tmp_path / "text.json")]) == 2
    assert main(["check", str(tmp_path / "list.json")]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2


def test_extract_refuses_a_huge_arc_family_quickly(set_file, capsys):
    # 500,000 arcs would take minutes; the count is priced before any is built
    start = time.perf_counter()
    assert main(["extract", "--input", set_file, "--k", "1000001", "--l", "1"]) == 3
    assert time.perf_counter() - start < 1
    assert "past the cap" in capsys.readouterr().err
    assert main(["extract", "--input", set_file, "--k", "21", "--l", "1"]) == 0


def test_route_names_the_engine_that_ran(tmp_path):
    # {1, 3} is geometric to structure(), yet its 2 steps of 3 cells cost more
    # than its sum of 4, so the buckets run, as they do on {66, 198}, which
    # runs as {11, 33}; the 28-element chains take the Markov engine, end to
    # end in well under 50 ms
    chains = [s * 3**j for s in (1, 2) for j in range(14)]
    for elems, kl, route in (([1, 3], (2, 1), "balanced-arcs"), (chains, (2, 4), "lacunary"),
                             (chains, (2, 1), "lacunary"), ([66, 198], (2, 1), "balanced-arcs")):
        path = tmp_path / "a.txt"
        path.write_text("".join(f"{n}\n" for n in elems))
        config = cli.RunConfig(command="extract", input=str(path), k=kl[0], l=kl[1])
        times = []
        for _ in range(3):
            start = time.perf_counter()
            stages = cli.run(config)["stages"]
            times.append(time.perf_counter() - start)
        assert stages["structure"]["geometric"] is True
        assert stages["extraction"]["route"] == route
        if elems is chains:
            assert min(times) < 0.05
