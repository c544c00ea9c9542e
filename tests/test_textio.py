"""The text format: scalar/matrix/ring parsing, whole documents, and the
round-trip guarantee (format then parse gives back the same values)."""

import random

import pytest

from chaintrace.complexes import ChainMap, PerfectComplex
from chaintrace.generate import (
    random_chain_endo,
    random_extension,
    random_strict_triple,
)
from chaintrace.linalg import Matrix
from chaintrace.rings import RingSpec
from chaintrace.search import build_counterexample
from chaintrace.ses import EndoTriple, validate_ses
from chaintrace.textio import (
    Document,
    ParseError,
    complex_file,
    format_complex,
    format_matrix,
    parse_document,
    parse_element,
    parse_matrix,
    parse_ring,
    ses_file,
)

Z4 = RingSpec(4)
Z3E = RingSpec(3, True)


def test_parse_ring():
    assert parse_ring("Z/4") == Z4
    assert parse_ring(" Z/3[e] ") == Z3E
    assert parse_ring("Z / 12 [e]") == RingSpec(12, True)
    for bad in ("Z4", "Z/0", "Z/1", "Z/4[x]", "Q", "Z/4[e]e"):
        with pytest.raises(ParseError):
            parse_ring(bad)


def test_parse_ring_refuses_moduli_from_2_to_the_64():
    assert parse_ring(f"Z/{2 ** 64 - 1}") == RingSpec(2 ** 64 - 1)
    assert parse_ring("Z/007[e]") == RingSpec(7, True)
    for bad in (f"Z/{2 ** 64}", f"Z/{2 ** 64}[e]", "Z/" + "9" * 5000):
        with pytest.raises(ParseError, match="below 2\\^64"):
            parse_ring(bad)


def test_parse_element_forms():
    cases = [("0", (0, 0)), ("2", (2, 0)), ("-1", (2, 0)),
             ("e", (0, 1)), ("-e", (0, 2)), ("2*e", (0, 2)),
             ("1+e", (1, 1)), ("1+2*e", (1, 2)), ("4-5*e", (1, 1)),
             (" 1 + 2 * e ", (1, 2))]
    for text, (a, b) in cases:
        assert parse_element(Z3E, text) == Z3E.element(a, b), text
    assert parse_element(Z4, "-3") == Z4.element(1)
    for bad in ("", "x", "1+", "e*2", "2**e", "1+2"):
        with pytest.raises(ParseError):
            parse_element(Z3E, bad)
    with pytest.raises(ParseError):
        parse_element(Z4, "e")          # no e-part in Z/4


def test_element_text_is_canonical():
    # formatting uses str(); every element round-trips through its text
    for ring in (Z4, Z3E):
        for x in ring.elements():
            assert parse_element(ring, str(x)) == x


def test_parse_and_format_matrix():
    m = parse_matrix(Z3E, "[[1,2],[0,e]]")
    assert (m.rows, m.cols) == (2, 2)
    assert m.entry(1, 1) == Z3E.epsilon()
    assert format_matrix(m) == "[[1,2],[0,e]]"
    assert parse_matrix(Z4, "[]") == Matrix.zero(Z4, 0, 0)
    assert parse_matrix(Z4, "[[],[]]") == Matrix.zero(Z4, 2, 0)
    assert parse_matrix(Z4, " [ [ 1 , 2 ] ] ") == Matrix.from_rows(Z4, [[1, 2]])
    # an empty first row must not hide the entries of later ones
    for bad in ("[[1],[2,3]]", "[[],[1]]", "[[1],[]]", "[1,2]", "[[1]",
                "[[1]][2]]", "[[1];[2]]", "[[1,2],]", "[[1],[2],]", "[[],]"):
        with pytest.raises(ParseError):
            parse_matrix(Z4, bad)


def test_format_matrix_is_the_matrix_text():
    texts = {(0, 0): "[]", (0, 3): "[]", (2, 0): "[[],[]]",
             (2, 2): "[[0,1],[2,3]]"}
    for (rows, cols), text in texts.items():
        m = Matrix(Z4, rows, cols,
                   tuple(Z4.element(i) for i in range(rows * cols)))
        assert format_matrix(m) == str(m) == text


def test_trimmed_empty_differential_parses():
    doc = parse_document("ring Z/4\ncomplex K\n  degrees 0..1\n"
                         "  ranks 0 1\n  d 0 [[]]\n")
    assert doc.complexes["K"] == PerfectComplex.single(Z4, 1, 1)


def test_matrix_round_trip_random():
    rng = random.Random(7)
    for ring in (Z4, Z3E, RingSpec(7)):
        for _ in range(20):
            rows, cols = rng.randrange(4), rng.randrange(4)
            m = Matrix.from_rows(ring, [[ring.from_index(
                rng.randrange(ring.cardinality)) for _ in range(cols)]
                for _ in range(rows)])
            if rows and cols:
                assert parse_matrix(ring, format_matrix(m)) == m


def test_single_complex_document():
    k = PerfectComplex.build(Z3E, 0, [1, 1],
                             {0: Matrix.from_rows(Z3E, [[Z3E.epsilon()]])})
    text = complex_file(k, "L")
    doc = parse_document(text)
    assert doc.ring == Z3E
    assert doc.complexes == {"L": k}
    assert doc.ses() is None and doc.triple() is None


def test_comments_and_whitespace_are_ignored():
    text = """
    # a complex with one differential
    ring Z/4

    complex K   # the name
      degrees 0..1
      ranks 1 1
      d 0 [[2]]  # the only map
    """
    doc = parse_document(text)
    (k,) = doc.complexes.values()
    assert k.diff(0) == Matrix.from_rows(Z4, [[2]])


def test_tabs_separate_directives_like_spaces():
    ses, triple, _ = build_counterexample(Z3E)
    text = ses_file(ses, triple=triple)
    assert "\t" not in text
    assert parse_document(text.replace(" ", "\t")) == parse_document(text)


def test_ses_document_round_trip():
    ses, triple, _ = build_counterexample(Z3E)
    doc = parse_document(ses_file(ses, triple=triple))
    assert doc.ses() == ses
    assert doc.triple() == triple
    assert validate_ses(doc.ses())
    # without the triple the endo table is empty
    doc2 = parse_document(ses_file(ses))
    assert doc2.ses() == ses and doc2.triple() is None and not doc2.endos


def test_round_trip_random_extensions_and_triples():
    rng = random.Random(31)
    for ring in (Z4, Z3E, RingSpec(6)):
        for _ in range(10):
            ses = random_extension(rng, ring, max_window=3, max_rank=2)
            triple = random_strict_triple(rng, ses)
            doc = parse_document(ses_file(ses, triple=triple))
            assert doc.ses() == ses
            assert doc.triple() == triple


def test_round_trip_single_complex_with_endos():
    rng = random.Random(5)
    from chaintrace.generate import random_complex

    for _ in range(10):
        k = random_complex(rng, Z4, max_window=3, max_rank=2)
        f = random_chain_endo(rng, k)
        doc = parse_document(complex_file(k, "C", {"f": f, "zero":
                                                   ChainMap.zero(k, k)}))
        assert doc.complexes["C"] == k
        assert doc.endos["f"] == f
        assert doc.endos["zero"].is_zero()


def test_errors_carry_line_numbers():
    cases = [
        ("complex K\n  degrees 0..0\n  ranks 1", 1, "ring"),
        ("complex K", 1, "never got"),
        ("ring Z/4\nring Z/2", 2, "second `ring`"),
        ("ring Z/4\ncomplex K\n  ranks 1", 3, "degrees"),
        ("ring Z/4\ncomplex K\n  degrees 1..0", 3, "empty"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1", 4, "2 ranks"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1 1\n  d 1 [[1]]",
         5, "no differential at degree 1"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1 1\n  d 0 [[1,1]]",
         5, "1x1"),
        ("ring Z/4\ncomplex K\n  degrees 0..0\n  ranks 1\n"
         "endo u 0 [[1]]\nendo u 0 [[2]]", 6, "already has a component"),
        ("ring Z/4\nendo u 0 [[1]]", 2, "cannot tell which complex"),
        ("ring Z/4\nmap j 0 [[1]]", 2, "exactly three"),
        ("ring Z/4\nd 0 [[1]]", 2, "inside a `complex` block"),
        ("ring Z/4\nmumble", 2, "unknown directive"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1 1\n  d 0 1", 5,
         "matrix must look like [[...],[...]], got '1'"),
        ("ring Z/4\ncomplex two words", 2,
         "`complex` needs a one-word name"),
        ("ring Z/4\ncomplex K\n  degrees 0..0\n  ranks 1\ncomplex K", 5,
         "complex 'K' declared twice"),
        ("ring Z/4\ncomplex K\n  degrees 0..0\n  degrees 0..0", 4,
         "second `degrees` line in this block"),
        ("ring Z/4\ncomplex K\n  degrees 0..0\n  ranks x", 4,
         "ranks must be integers, got 'x'"),
        ("ring Z/4\ncomplex K\n  degrees 0..0\n  ranks -1", 4,
         "ranks must be non-negative"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1 1\n  d 0", 5,
         "expected `d <degree> [[...]]`"),
        ("ring Z/4\ncomplex K\n  degrees 0..1\n  ranks 1 1\n  d 0 [[1]]\n"
         "  d 0 [[2]]", 6, "differential at degree 0 given twice"),
        ("ring Z/4\nmap k 0 [[1]]", 2, "map name must be one of j/q, got 'k'"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(ParseError) as err:
            parse_document(text)
        assert err.value.line == line, text
        assert fragment in str(err.value), text


def test_missing_partner_map_is_an_error():
    ses, _, _ = build_counterexample(Z4)
    text = "\n".join(line for line in ses_file(ses).splitlines()
                     if not line.startswith("map q"))
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "'q' is missing" in str(err.value)


def test_endo_names_in_three_complex_files():
    ses, _, _ = build_counterexample(Z4)
    text = ses_file(ses) + "endo f 0 [[1]]\n"
    with pytest.raises(ParseError) as err:
        parse_document(text)
    assert "u, v or w" in str(err.value)


def test_missing_ring_is_a_file_level_error():
    with pytest.raises(ParseError) as err:
        parse_document("# nothing but comments\n")
    assert err.value.line is None
