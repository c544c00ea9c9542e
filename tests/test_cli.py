"""Command-line behaviour: outputs and the exit-code table (0 ok, 1
failed check or violation, 2 violation over a reduced ring, 64 usage,
65 parse, 70 internal error) over a small corpus of input files."""

import os
import subprocess
import sys
import time

import pytest

from chaintrace import cli
from chaintrace.complexes import ChainMap
from chaintrace.linalg import Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import SearchOutcome, build_counterexample
from chaintrace.ses import EndoTriple, check_triple
from chaintrace.textio import complex_file, ses_file

Z3E = RingSpec(3, True)


@pytest.fixture
def corpus(tmp_path):
    """A directory of input files covering the interesting shapes."""
    ses, triple, _ = build_counterexample(Z3E)
    write = lambda name, text: (tmp_path / name).write_text(text)

    write("triple.txt", ses_file(ses, triple=triple))
    write("ses.txt", ses_file(ses))

    zero = EndoTriple(ChainMap.zero(ses.sub, ses.sub),
                      ChainMap.zero(ses.middle, ses.middle),
                      ChainMap.zero(ses.quotient, ses.quotient))
    write("zero-triple.txt", ses_file(ses, triple=zero))

    L = ses.middle
    e = Z3E.epsilon()
    p = ChainMap.build(L, L, {0: Matrix.from_rows(Z3E, [[e]]),
                              1: Matrix.from_rows(Z3E, [[e]])})
    write("endos.txt", complex_file(L, "L", {
        "p": p, "z": ChainMap.zero(L, L), "v": triple.on_middle}))

    write("bad-complex.txt",
          "ring Z/4\ncomplex K\n  degrees 0..2\n  ranks 1 1 1\n"
          "  d 0 [[1]]\n  d 1 [[1]]\n")
    write("broken.txt", "ring Z/4\ncomplex K\n  ranks 1\n")
    write("not-exact.txt", "\n".join([
        "ring Z/4",
        "complex K\n  degrees 0..0\n  ranks 1",
        "complex L\n  degrees 0..0\n  ranks 1",
        "complex M\n  degrees 0..0\n  ranks 1",
        "map j 0 [[0]]",
        "map q 0 [[1]]",
    ]) + "\n")
    return tmp_path


def run(corpus, *argv):
    return cli.run([str(corpus / a) if a.endswith(".txt") else a
                    for a in argv])


EXIT_TABLE = [
    (("validate", "triple.txt"), 0),
    (("validate", "endos.txt"), 0),
    (("validate", "bad-complex.txt"), 1),
    (("validate", "broken.txt"), 65),
    (("validate", "no-such-file.txt"), 64),
    (("ses-check", "ses.txt"), 0),
    (("ses-check", "not-exact.txt"), 1),
    (("ses-check", "endos.txt"), 1),       # no sequence in the file
    (("trace", "triple.txt", "--endo", "v"), 0),
    (("trace", "triple.txt", "--endo", "nope"), 64),
    (("homotopy", "endos.txt", "--from", "p", "--to", "z"), 0),
    (("homotopy", "endos.txt", "--from", "v", "--to", "z"), 1),
    (("additivity", "triple.txt"), 1),     # the violation is real
    (("additivity", "zero-triple.txt"), 0),
    (("additivity", "ses.txt"), 1),        # endos missing
    (("counterexample", "--ring", "Z/3[e]"), 0),
    (("counterexample", "--ring", "Z/5"), 1),
    (("counterexample", "--ring", "Z/one"), 65),
    (("search", "--ring", "Z/2", "--mode", "exhaustive"), 0),
    (("search", "--ring", "Z/5", "--trials", "200"), 0),
    (("search", "--ring", "Z/4", "--trials", "2500"), 1),
    (("search", "--ring", "Z/4", "--mode", "exhaustive",
      "--ceiling", "50"), 64),
    (("search", "--ring", "Z/4", "--trials", "-3"), 64),
    (("search", "--ring", "Z/6", "--mode", "exhaustive", "--max-window", "1",
      "--max-rank", "2"), 0),
    (("bridge", "--ring", "Z/7", "--matrix", "[[1,2],[3,4]]"), 0),
    (("bridge", "--ring", "Z/3[e]", "--matrix", "[[1]]"), 64),
    (("bridge", "--ring", "Z/7", "--matrix", "[[1,2]]"), 64),
    (("bridge", "--ring", "Z/7", "--matrix", "[[x]]"), 65),
    (("wibble",), 64),
    ((), 64),
]


def test_exit_code_table(corpus, capsys):
    for argv, expected in EXIT_TABLE:
        code = run(corpus, *argv)
        capsys.readouterr()          # keep the log clean between cases
        assert code == expected, argv


def test_trace_output(corpus, capsys):
    assert run(corpus, "trace", "triple.txt", "--endo", "u") == 0
    assert capsys.readouterr().out == "0\n"
    assert run(corpus, "trace", "triple.txt", "--endo", "v") == 0
    assert capsys.readouterr().out == "2*e\n"


def test_counterexample_report(capsys):
    assert cli.run(["counterexample", "--ring", "Z/3[e]"]) == 0
    out = capsys.readouterr().out
    assert "defect = 2*e" in out
    assert "Tr(u) = 0" in out and "Tr(w) = 0" in out
    assert "Tr(v) = 2*e" in out
    assert "right square: strict" in out
    assert "left square: homotopy" in out
    assert "connecting square: strict" in out
    assert "independently certified: yes" in out

    assert cli.run(["counterexample", "--ring", "Z/4"]) == 0
    assert "defect = 2" in capsys.readouterr().out

    assert cli.run(["counterexample", "--ring", "Z/2[e]"]) == 0
    assert "defect = e" in capsys.readouterr().out


def test_additivity_report(corpus, capsys):
    assert run(corpus, "additivity", "triple.txt") == 1
    out = capsys.readouterr().out
    for needle in ("left square: homotopy", "right square: strict",
                   "connecting square: strict", "defect = 2*e",
                   "violation: yes"):
        assert needle in out


def test_homotopy_prints_witness(corpus, capsys):
    assert run(corpus, "homotopy", "endos.txt", "--from", "p",
               "--to", "z") == 0
    out = capsys.readouterr().out
    assert "homotopic: yes" in out and "h 1 [[1]]" in out
    assert run(corpus, "homotopy", "endos.txt", "--from", "v",
               "--to", "z") == 1
    assert capsys.readouterr().out == "none\n"


def test_search_report_and_log(tmp_path, capsys):
    log = tmp_path / "trail.tsv"
    code = cli.run(["search", "--ring", "Z/4", "--trials", "2500",
                    "--seed", "0", "--log", str(log)])
    out = capsys.readouterr().out
    assert code == 1
    assert "violations: 13" in out
    assert "instances examined: 849" in out
    assert "certified: yes" in out
    lines = log.read_text().splitlines()
    assert len(lines) == 2500
    index, squares, defect = lines[0].split("\t")
    assert index == "0" and len(squares.split("+")) == 3


def test_search_log_to_unwritable_path_is_usage_error(tmp_path, capsys):
    log = tmp_path / "missing" / "x.log"
    code = cli.run(["search", "--ring", "Z/2", "--trials", "1",
                    "--log", str(log)])
    captured = capsys.readouterr()
    assert code == 64
    assert captured.out == ""
    assert f"usage error: cannot write {log}" in captured.err
    assert not log.exists()
    # a full device opens fine and fails only when the lines are flushed;
    # the case is skipped where there is no such device
    if os.path.exists("/dev/full"):
        code = cli.run(["search", "--ring", "Z/2", "--trials", "3",
                        "--log", "/dev/full"])
        captured = capsys.readouterr()
        assert code == 64
        assert captured.out == ""
        assert "usage error: cannot write /dev/full" in captured.err


def test_refused_search_leaves_an_old_log_as_it_was(tmp_path, capsys):
    # the logged Z/4 sweep is refused from its counts, before any line
    log = tmp_path / "old.tsv"
    log.write_text("0\tstrict+strict+strict\t0\n")
    code = cli.run(["search", "--ring", "Z/4", "--mode", "exhaustive",
                    "--log", str(log)])
    captured = capsys.readouterr()
    assert code == 64
    assert "needs more than 10000000 objects" in captured.err
    assert log.read_text() == "0\tstrict+strict+strict\t0\n"
    # an admitted run that logs no line still leaves an empty log
    assert cli.run(["search", "--ring", "Z/4", "--trials", "0",
                    "--log", str(log)]) == 0
    assert log.read_text() == ""


def test_search_clean_report(capsys):
    assert cli.run(["search", "--ring", "Z/2", "--mode", "exhaustive"]) == 0
    out = capsys.readouterr().out
    assert "instances examined: 637" in out
    assert "violations: 0" in out
    assert "no violations at these bounds" in out


def test_search_reduced_ring_violation_exits_two(monkeypatch, capsys):
    # unreachable through a real sweep (that is the point of the theory),
    # so force the branch: a genuine violating instance re-labelled as
    # having been found over its own ring would certify, but a reduced
    # ring cannot produce one -- fake the search result to check the exit.
    ses, triple, _ = build_counterexample(RingSpec(4))
    outcome = SearchOutcome(1, (ses, triple, check_triple(ses, triple)), 7)
    monkeypatch.setattr(cli, "search_violation", lambda cfg, log=None: outcome)
    monkeypatch.setattr(RingSpec, "is_reduced", lambda self: True)
    code = cli.run(["search", "--ring", "Z/4", "--trials", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "should be impossible" in out


def test_module_entry_point(corpus):
    # the child imports the package from src/, installed or not
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "chaintrace", "counterexample",
         "--ring", "Z/3[e]"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "defect = 2*e" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "chaintrace", "trace",
         str(corpus / "triple.txt"), "--endo", "u"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout == "0\n"


def test_usage_errors_go_to_stderr(corpus, capsys):
    assert run(corpus, "trace", "triple.txt", "--endo", "nope") == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "no endo named 'nope'" in captured.err


def test_internal_error_exits_70_without_traceback(corpus, monkeypatch,
                                                   capsys):
    def broken(args):
        raise RuntimeError("solver bug")
    monkeypatch.setattr(cli, "_cmd_trace", broken)
    assert run(corpus, "trace", "triple.txt", "--endo", "u") == 70
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: RuntimeError: solver bug\n"


def test_huge_exhaustive_search_is_refused_quickly():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "chaintrace", "search",
         "--ring", "Z/1000003[e]", "--mode", "exhaustive"],
        capture_output=True, text=True, env=env, timeout=15)
    assert proc.returncode == 64
    assert "usage error: more than 10000000 complexes" in proc.stderr


def test_huge_modulus_is_decided_quickly_or_refused():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    for modulus, expected in ((10 ** 18 + 3, 1), (2 ** 64, 65)):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-m", "chaintrace", "counterexample",
             "--ring", f"Z/{modulus}"],
            capture_output=True, text=True, env=env, timeout=15)
        assert proc.returncode == expected, proc.stderr
        assert time.monotonic() - start < 5
        assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("window, rank", [(2, 60), (2, 200), (3, 12),
                                          (1, 5000)])
def test_oversized_exhaustive_bounds_are_refused(window, rank):
    # refused from counts: the complexes by a lower bound before any is
    # listed, the sequences by the ordered pairs of complexes
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run(
        [sys.executable, "-m", "chaintrace", "search", "--ring", "Z/2",
         "--mode", "exhaustive", "--max-window", str(window),
         "--max-rank", str(rank)],
        capture_output=True, text=True, env=env, timeout=20)
    assert proc.returncode == 64, proc.stderr
    assert proc.stderr.startswith("usage error: ")


def test_non_utf8_file_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"ring Z/4\n\xff\xfe\n")
    assert cli.run(["validate", str(path)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: line 2:")
    assert "internal error" not in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["search", "--help"]])
def test_help_returns_zero(argv, capsys):
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.startswith("usage: chaintrace")


# -- the failure reports, each on a small file -----------------------------

# K = M = (R --2--> R) over Z/4 in degrees 0, 1, and L = K (+) M
SPLIT = """ring Z/4
complex K
  degrees 0..1
  ranks 1 1
  d 0 [[2]]
complex L
  degrees 0..1
  ranks 2 2
  d 0 [[2,0],[0,2]]
complex M
  degrees 0..1
  ranks 1 1
  d 0 [[2]]
map j 0 [[1],[0]]
map j 1 [[1],[0]]
map q 0 [[0,1]]
map q 1 [[0,1]]
"""

REPORT_FILES = {
    # f^0 = 1 and f^1 = 0 do not commute with d = 2
    "endo.txt": """ring Z/4
complex K
  degrees 0..1
  ranks 1 1
  d 0 [[2]]
endo f 0 [[1]]
endo z 0 [[0]]
""",
    "not-exact.txt": """ring Z/4
complex K
  degrees 0..0
  ranks 1
complex L
  degrees 0..0
  ranks 1
complex M
  degrees 0..0
  ranks 1
map j 0 [[0]]
map q 0 [[1]]
endo u 0 [[1]]
endo v 0 [[1]]
endo w 0 [[1]]
""",
    # u is not a chain map
    "bad-u.txt": SPLIT + "endo u 0 [[1]]\nendo v 0 [[0,0],[0,0]]\n"
                         "endo w 0 [[0]]\n",
    # u = 1 and v = 0: v j - j u = -j is not null-homotopic, as id_K is not
    "left-fails.txt": SPLIT + "endo u 0 [[1]]\nendo u 1 [[1]]\n"
                              "endo v 0 [[0,0],[0,0]]\nendo w 0 [[0]]\n",
}

FAILURE_REPORTS = [
    pytest.param(("validate", "not-exact.txt"), 1,
                 "sequence K -> L -> M: NOT EXACT: ranks at degree 0 do "
                 "not add up", id="validate-not-exact"),
    pytest.param(("validate", "endo.txt"), 1,
                 "endo f: NOT A CHAIN MAP: d f != f d at degree 0",
                 id="validate-not-a-chain-map"),
    pytest.param(("trace", "endo.txt", "--endo", "f"), 1,
                 "endo f is not a chain map: d f != f d at degree 0",
                 id="trace-not-a-chain-map"),
    pytest.param(("homotopy", "bad-u.txt", "--from", "u", "--to", "v"), 1,
                 "endos u and v act on different complexes",
                 id="homotopy-different-complexes"),
    pytest.param(("homotopy", "endo.txt", "--from", "z", "--to", "f"), 1,
                 "endo f is not a chain map: d f != f d at degree 0",
                 id="homotopy-not-a-chain-map"),
    pytest.param(("additivity", "not-exact.txt"), 1,
                 "sequence is not exact: ranks at degree 0 do not add up",
                 id="additivity-not-exact"),
    pytest.param(("additivity", "bad-u.txt"), 1,
                 "invalid endomorphism triple: endo on sub is not a chain "
                 "map: d f != f d at degree 0",
                 id="additivity-invalid-triple"),
    pytest.param(("additivity", "left-fails.txt"), 0,
                 "violation: no (a square fails to commute up to homotopy, "
                 "so additivity is not expected)",
                 id="additivity-square-fails"),
]


@pytest.mark.parametrize("argv, code, line", FAILURE_REPORTS)
def test_failure_reports(tmp_path, capsys, argv, code, line):
    for name, text in REPORT_FILES.items():
        (tmp_path / name).write_text(text)
    assert run(tmp_path, *argv) == code
    captured = capsys.readouterr()
    assert line in captured.out.splitlines()
    assert captured.err == ""
