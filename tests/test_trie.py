"""Batch engine over sorted distinct rows: equivalence with per-sample
inference and exact work accounting."""
import numpy as np
import pytest

import oracle
from conftest import random_corpus, random_model, random_symbol_matrices
from founderhmm import (MISSING, FounderHMM, InputError, MultilocusGenotype,
                        ZeroProbabilityError, batched_posteriors, detect_errors,
                        genotype_posteriors, inference, posterior_scan,
                        recover_missing, table_from_scan)
from founderhmm.inference import build_trie
from founderhmm.trie import reversed_trie


def symbols_of(corpus):
    return np.stack([g.symbols for g in corpus])

# Ten five-locus genotypes with heavy prefix sharing: seven distinct rows
# and 23 distinct non-empty prefixes, versus 10 x 5 = 50 row-by-row locus
# evaluations. Counts chosen so the savings are exact and easy to audit.
SHARED_PREFIX_ROWS = [
    "00000", "00000", "00000",
    "00001",
    "00100", "00100",
    "00120",
    "02111",
    "10000",
    "10222",
]


# The engine's own tile byte cap, before any test patches it.
TILE_BYTES = inference._TILE_BYTES


def pin_block_loci(monkeypatch, rows, k, b):
    """Set the tile byte cap so that ``rows`` distinct genotypes of a
    ``k``-founder model walk in blocks of ``b`` loci (one block when b is
    at least the locus count)."""
    per_locus = min(rows, inference._TILE_ROWS) * k * k * 8
    monkeypatch.setattr(inference, "_TILE_BYTES", per_locus * b)


def shared_prefix_corpus():
    return [MultilocusGenotype(f"s{j}", np.array([int(c) for c in row],
                                                 dtype=np.int8))
            for j, row in enumerate(SHARED_PREFIX_ROWS)]


def test_trie_counts_on_shared_prefix_corpus():
    symbols = symbols_of(shared_prefix_corpus())
    rows, _, nodes = build_trie(symbols)
    assert ["".join(map(str, row)) for row in rows.tolist()] == \
        sorted(set(SHARED_PREFIX_ROWS))
    assert nodes == oracle.prefix_nodes(rows.tolist()) == 23
    flipped, flipped_of, flipped_nodes = reversed_trie(symbols)
    assert np.array_equal(flipped[flipped_of], symbols[:, ::-1])
    assert flipped_nodes == oracle.prefix_nodes(flipped.tolist()) == 27


def test_trie_reconstructs_genotypes():
    symbols = symbols_of(shared_prefix_corpus())
    rows, row_of, _ = build_trie(symbols)
    # duplicates share a row, and every genotype is its row
    assert row_of.tolist() == [0, 0, 0, 1, 2, 2, 3, 4, 5, 6]
    assert np.array_equal(rows[row_of], symbols)


def test_build_trie_matches_the_axis0_dedupe():
    # MISSING cells, duplicates, one row, one locus, all rows equal, and
    # the reversed (negative-stride) view that reversed_trie sorts
    rng = np.random.default_rng(31)
    for symbols in random_symbol_matrices(rng, -1, 2):
        for matrix in (symbols, symbols[:, ::-1]):
            rows, row_of, nodes = build_trie(matrix)
            want_rows, want_row_of, lcps = oracle.trie_axis0(matrix)
            assert rows.dtype == np.int8 and np.array_equal(rows, want_rows)
            assert np.array_equal(row_of, want_row_of)
            assert nodes == int((matrix.shape[1] - lcps).sum()) == \
                oracle.prefix_nodes(matrix.tolist())
    missing_first, _, _ = build_trie(np.array([[2], [-1], [0], [-1]], dtype=np.int8))
    assert missing_first.ravel().tolist() == [-1, 0, 2]


def test_batch_engine_counts_match_trie():
    rng = np.random.default_rng(0)
    model = random_model(rng, 3, 5)
    corpus = shared_prefix_corpus()
    batch = batched_posteriors(model, corpus)
    assert batch.stats.samples == 10
    assert batch.stats.loci == 5
    assert batch.stats.distinct_genotypes == 7
    assert batch.stats.forward_locus_evals == 23
    assert batch.stats.naive_locus_evals == 50
    assert batch.stats.forward_locus_evals == oracle.prefix_nodes(
        SHARED_PREFIX_ROWS)
    # the backward walk is not shared: loci 4..1 of each distinct genotype
    assert batch.stats.backward_locus_evals == 7 * 4


def _with_dead_locus(rng, model, corpus):
    """``model`` with every emission 0 at one locus, and ``corpus`` plus a
    copy of its first genotype per symbol there: a 0 is certain, a 1 or 2
    impossible, so dead rows sort between live ones."""
    locus = int(rng.integers(model.loci))
    emissions = model.emissions.copy()
    emissions[locus] = 0.0
    extra = []
    for x in (0, 1, 2):
        symbols = corpus[0].symbols.copy()
        symbols[locus] = x
        extra.append(MultilocusGenotype(f"at{x}", symbols))
    return (FounderHMM(initial=model.initial, transitions=model.transitions,
                       emissions=emissions), corpus + extra)


def test_batch_matches_per_sample_bitwise(monkeypatch):
    rng = np.random.default_rng(1)
    for trial in range(36):
        # tiles of one row, of a few, and of the default 64
        monkeypatch.setattr(inference, "_TILE_ROWS", (1, 7, 64)[trial % 3])
        k = int(rng.integers(1, 10))
        n = int(rng.integers(2, 15))
        m = int(rng.integers(2, 25))
        model = random_model(rng, k, n)
        corpus = random_corpus(rng, m, n, missing_rate=0.15)
        # force duplicates so sharing is exercised
        corpus.append(MultilocusGenotype("dup0", corpus[0].symbols.copy()))
        if trial % 4 == 0:
            model, corpus = _with_dead_locus(rng, model, corpus)
        shuffled = [corpus[j] for j in
                    np.random.default_rng(trial).permutation(len(corpus))]
        wants, failures = {}, {}
        for g in corpus:
            want = wants[g.sample_id] = posterior_scan(model, g)
            loop = oracle.scan_per_locus(model, g.symbols)
            for field, value in zip(("triples", "prefix_logs", "suffix_logs",
                                     "log_likelihood"), loop):
                assert np.array_equal(getattr(want, field), value), field
            try:
                table_from_scan(want)
            except ZeroProbabilityError as exc:
                failures[g.sample_id] = exc.locus
        if trial % 4 == 0:
            assert failures and len(failures) < len(corpus)
        for rows in (corpus, shuffled, corpus[:1]):
            symbols = symbols_of(rows)
            nodes = oracle.prefix_nodes(symbols.tolist())
            distinct = len(build_trie(symbols)[0])
            # the default cap, then blocks of 1, 3, n and n + 5 loci
            for block in (None, 1, 3, n, n + 5):
                if block is None:
                    monkeypatch.setattr(inference, "_TILE_BYTES", TILE_BYTES)
                else:
                    pin_block_loci(monkeypatch, distinct, k, block)
                    assert inference._block_loci(distinct, n, k) == min(block, n)
                batch = batched_posteriors(model, rows)
                assert batch.stats.forward_locus_evals == nodes
                assert batch.failures == {g.sample_id: failures[g.sample_id]
                                          for g in rows if g.sample_id in failures}
                for g, r in zip(rows, batch.row_of):
                    want = wants[g.sample_id]
                    for field, array in (("triples", batch.triples),
                                         ("prefix_logs", batch.prefix_logs),
                                         ("suffix_logs", batch.suffix_logs),
                                         ("log_likelihood", batch.log_likelihoods)):
                        assert np.array_equal(array[r], getattr(want, field)), \
                            (block, field)
                    if g.sample_id in failures:
                        assert g.sample_id not in batch.tables
                        continue
                    direct = genotype_posteriors(model, g)
                    table = batch.tables[g.sample_id]
                    assert np.array_equal(np.asarray(table.probs),
                                          np.asarray(direct.probs))
                    assert table.log_marginals == pytest.approx(
                        direct.log_marginals, rel=1e-12)


@pytest.mark.parametrize("b", [1, 2, 3, 7, 64])
def test_chunked_mode_is_bitwise_identical(monkeypatch, b):
    rng = np.random.default_rng(4)
    model = random_model(rng, 3, 11)
    corpus = random_corpus(rng, 12, 11, missing_rate=0.2)
    full = batched_posteriors(model, corpus)
    pin_block_loci(monkeypatch, len(build_trie(symbols_of(corpus))[0]), 3, b)
    chunked = batched_posteriors(model, corpus)
    assert np.array_equal(full.triples, chunked.triples)
    for g in corpus:
        assert np.array_equal(np.asarray(full.tables[g.sample_id].probs),
                              np.asarray(chunked.tables[g.sample_id].probs))


@pytest.mark.parametrize("b", [1, 2, 5, 9])
def test_chunked_mode_counts(monkeypatch, b):
    rng = np.random.default_rng(6)
    model = random_model(rng, 3, 5)
    pin_block_loci(monkeypatch, 7, 3, b)
    stats = batched_posteriors(model, shared_prefix_corpus()).stats
    # the forward walk visits each of the 23 prefix nodes once; backward,
    # each of the 7 distinct genotypes walks loci - b loci to find the
    # block checkpoints, then loci - ceil(loci / b) from them
    assert stats.forward_locus_evals == 23
    assert stats.backward_locus_evals == 7 * {1: 4, 2: 5, 5: 4, 9: 4}[b]


def test_block_length_follows_the_tile_byte_cap(monkeypatch):
    # by default a full tile at K = 7 keeps 2674 loci of backward states
    assert inference._block_loci(64, 2674, 7) == 2674
    assert inference._block_loci(64, 5000, 7) == 2674
    assert inference._block_loci(1, 5000, 7) == 5000
    # a cap that a full tile at K = 3 fills with 10 loci
    monkeypatch.setattr(inference, "_TILE_BYTES", 64 * 3 * 3 * 8 * 10)
    assert inference._block_loci(100, 10, 3) == 10   # the tile fits
    assert inference._block_loci(100, 11, 3) == 10   # the most that fit
    assert inference._block_loci(100, 500, 3) == 10
    assert inference._block_loci(32, 25, 3) == 20    # half a tile
    assert inference._block_loci(100, 10, 4) == 5
    assert inference._block_loci(100, 10, 40) == 1   # never below one


def test_impossible_sample_is_isolated_not_fatal():
    model = FounderHMM(initial=np.array([1.0]),
                       transitions=np.ones((2, 1, 1)),
                       emissions=np.array([[0.5], [0.0], [0.5]]))
    good = MultilocusGenotype("ok", np.array([1, 0, 2], dtype=np.int8))
    bad = MultilocusGenotype("dead", np.array([1, 2, 0], dtype=np.int8))
    batch = batched_posteriors(model, [good, bad])
    assert "ok" in batch.tables
    assert "dead" not in batch.tables
    assert batch.failures == {"dead": 0}
    direct = posterior_scan(model, bad)
    assert np.array_equal(batch.triples[batch.row_of[1]], direct.triples)


def test_posterior_tables_are_built_only_when_read(monkeypatch):
    """Detection and recovery read the engine's arrays and build no
    posterior table; ``batched_posteriors`` builds its tables once, when
    ``tables`` is first read."""
    built = []
    real = inference.PosteriorTable
    monkeypatch.setattr(inference, "PosteriorTable", lambda *a: built.append(a) or real(*a))
    rng = np.random.default_rng(8)
    model = random_model(rng, 3, 12)
    corpus = random_corpus(rng, 9, 12, missing_rate=0.2)
    detect_errors(model, corpus)
    recover_missing(model, corpus)
    batch = batched_posteriors(model, corpus)
    assert built == []
    tables = batch.tables
    assert len(built) == len(batch.triples) and batch.tables is tables
    for g in corpus:
        assert np.array_equal(np.asarray(tables[g.sample_id].probs),
                              np.asarray(genotype_posteriors(model, g).probs))


def test_batch_input_validation():
    rng = np.random.default_rng(5)
    model = random_model(rng, 2, 4)
    with pytest.raises(InputError):
        batched_posteriors(model, [])
    a = MultilocusGenotype("x", np.array([0, 1, 2, 0], dtype=np.int8))
    with pytest.raises(InputError):
        batched_posteriors(model, [a, MultilocusGenotype("x", a.symbols.copy())])
    with pytest.raises(InputError):
        batched_posteriors(model, [MultilocusGenotype("y", np.array([0, 1], dtype=np.int8))])


def test_missing_symbols_branch_as_ordinary_symbols():
    rows = ["01?", "01?", "010"]
    corpus = [MultilocusGenotype(f"s{j}",
                                 np.array([-1 if c == "?" else int(c) for c in row],
                                          dtype=np.int8))
              for j, row in enumerate(rows)]
    distinct, _, nodes = build_trie(symbols_of(corpus))
    assert distinct.tolist() == [[0, 1, -1], [0, 1, 0]]
    # shared prefix "01" then a two-way branch
    assert nodes == oracle.prefix_nodes(rows) == 4
    stats = batched_posteriors(random_model(np.random.default_rng(3), 2, 3),
                               corpus).stats
    assert stats.forward_locus_evals == oracle.prefix_nodes(rows) == 4


@pytest.mark.parametrize("block", [1, 3])
@pytest.mark.parametrize("tile", [1, 7, 64])
def test_lanes_join_late_and_across_tile_boundaries(monkeypatch, tile, block):
    """Distinct rows that share all but their last locus, four at a time,
    so that most rows share a prefix with a row of their own tile or of
    the tile before: every row, walked in full, matches its genotype's own
    scan bitwise, and forward evaluations count trie nodes; dead rows
    included."""
    rng = np.random.default_rng(35 + tile + block)
    monkeypatch.setattr(inference, "_TILE_ROWS", tile)
    for trial in range(8):
        k, n = int(rng.integers(1, 6)), int(rng.integers(1, 13))
        model = random_model(rng, k, n)
        if trial % 2:  # a 1 or 2 at this locus has probability zero
            emissions = model.emissions.copy()
            emissions[rng.integers(n)] = 0.0
            model = FounderHMM(model.initial, model.transitions, emissions)
        pool = rng.choice([0, 1, 2, MISSING], size=(int(rng.integers(1, 4)), n - 1))
        heads = pool[rng.integers(len(pool), size=20)]
        for head, start in zip(heads, rng.integers(0, n, size=20)):
            head[start:] = rng.choice([0, 1, 2, MISSING], size=n - 1 - start)
        symbols = np.concatenate([np.column_stack((heads, np.full(20, x)))
                                  for x in (0, 1, 2, MISSING)]).astype(np.int8)
        corpus = [MultilocusGenotype(f"r{j}", row) for j, row in enumerate(symbols)]
        pin_block_loci(monkeypatch, len(build_trie(symbols)[0]), k, block)
        batch = batched_posteriors(model, corpus)
        assert batch.stats.forward_locus_evals == oracle.prefix_nodes(symbols.tolist())
        for g, r in zip(corpus, batch.row_of):
            want = posterior_scan(model, g)
            for field, array in (("triples", batch.triples),
                                 ("prefix_logs", batch.prefix_logs),
                                 ("suffix_logs", batch.suffix_logs),
                                 ("log_likelihood", batch.log_likelihoods)):
                assert np.array_equal(array[r], getattr(want, field)), field
