"""Domain types: construction, validation, and the emission sum rule."""
from dataclasses import fields

import numpy as np
import pytest

import oracle
from founderhmm import (ALLELE_SYMBOLS, GENOTYPE_SYMBOLS, MISSING, FounderHMM,
                        GenotypeCorpus, HaplotypePanel, HaplotypeSequence,
                        InputError, LocusMap, MultilocusGenotype,
                        emission_stack, substitute, symbol_plane)


def tiny_model():
    return FounderHMM(
        initial=np.array([0.25, 0.75]),
        transitions=np.array([[[0.9, 0.1], [0.3, 0.7]],
                              [[0.5, 0.5], [0.2, 0.8]]]),
        emissions=np.array([[0.1, 0.8], [0.4, 0.9], [0.0, 1.0]]))


def test_symbol_constants():
    assert MISSING == -1
    assert GENOTYPE_SYMBOLS == (0, 1, 2, MISSING)
    assert ALLELE_SYMBOLS == (0, 1)


def test_model_shape_accessors():
    m = tiny_model()
    assert m.founders == 2
    assert m.loci == 3


def test_model_arrays_are_frozen():
    m = tiny_model()
    with pytest.raises(ValueError):
        m.initial[0] = 0.5
    with pytest.raises(ValueError):
        m.transitions[0, 0, 0] = 0.5
    with pytest.raises(ValueError):
        m.emissions[0, 0] = 0.5


@pytest.mark.parametrize("field,value", [
    ("initial", np.array([0.5, 0.6])),
    ("initial", np.array([1.5, -0.5])),
    ("transitions", np.array([[[0.9, 0.2], [0.3, 0.7]],
                              [[0.5, 0.5], [0.2, 0.8]]])),
    ("emissions", np.array([[0.1, 1.2], [0.4, 0.9], [0.0, 1.0]])),
    ("emissions", np.array([[0.1, -0.2], [0.4, 0.9], [0.0, 1.0]])),
])
def test_model_rejects_invalid_parameters(field, value):
    good = {"initial": np.array([0.25, 0.75]),
            "transitions": np.array([[[0.9, 0.1], [0.3, 0.7]],
                                     [[0.5, 0.5], [0.2, 0.8]]]),
            "emissions": np.array([[0.1, 0.8], [0.4, 0.9], [0.0, 1.0]])}
    good[field] = value
    with pytest.raises(InputError):
        FounderHMM(**good)


def test_model_rejects_shape_mismatch():
    with pytest.raises(InputError):
        FounderHMM(initial=np.array([0.25, 0.75]),
                   transitions=np.ones((1, 2, 2)) / 2,  # needs 2 intervals
                   emissions=np.array([[0.1, 0.8], [0.4, 0.9], [0.0, 1.0]]))


def test_single_locus_model_has_empty_transitions():
    m = FounderHMM(initial=np.array([1.0]),
                   transitions=np.empty((0, 1, 1)),
                   emissions=np.array([[0.3]]))
    assert m.loci == 1 and m.founders == 1


def test_genotype_validation():
    g = MultilocusGenotype("s", np.array([0, 1, 2, -1], dtype=np.int8))
    assert len(g) == 4
    assert g.symbols.tolist() == [0, 1, 2, -1]
    assert list(g.missing_mask) == [False, False, False, True]
    with pytest.raises(InputError):
        MultilocusGenotype("s", np.array([0, 3], dtype=np.int8))
    with pytest.raises(InputError):
        MultilocusGenotype("s", np.array([], dtype=np.int8))
    with pytest.raises(InputError):
        MultilocusGenotype("", np.array([0], dtype=np.int8))


def test_haplotype_rejects_non_alleles():
    h = HaplotypeSequence("h", np.array([0, 1, 1], dtype=np.int8))
    assert len(h) == 3
    with pytest.raises(InputError):
        HaplotypeSequence("h", np.array([0, 2], dtype=np.int8))
    with pytest.raises(InputError):
        HaplotypeSequence("h", np.array([0, MISSING], dtype=np.int8))


@pytest.mark.parametrize("kind, symbols", [(GenotypeCorpus, [0, 1, 2, MISSING]),
                                           (HaplotypePanel, [0, 1])])
def test_slices_of_rows_are_matrices_of_the_same_kind(kind, symbols):
    """A slice keeps the kind and the loci, as a list slice would; an
    integer still picks one row object."""
    ids = ["a", "b", "c", "d", "e"]
    matrix = np.random.default_rng(4).choice(symbols, size=(5, 3)).astype(np.int8)
    rows = kind(ids, matrix)
    for at in (slice(0, 2), slice(1, None, 2), slice(None, None, -1), slice(3, 1)):
        part = rows[at]
        assert type(part) is kind and len(part) == len(ids[at])
        assert part == kind(ids[at], matrix[at])
        assert part.loci == 3 and not part.matrix.flags.writeable
    last_id, last_symbols = (getattr(rows[-1], f.name) for f in fields(kind._item))
    assert type(rows[-1]) is kind._item and last_id == "e"
    assert last_symbols.tolist() == matrix[-1].tolist()


def test_locus_map_validation():
    lm = LocusMap(locus_ids=("a", "b", "c"),
                  positions=np.array([10, 20, 35]),
                  typed=np.array([True, False, True]))
    assert list(lm.typed_indices()) == [0, 2]
    assert list(lm.untyped_indices()) == [1]
    assert len(lm) == 3
    with pytest.raises(InputError) as info:
        LocusMap(locus_ids=("a", "b"), positions=np.array([10, 10]),
                 typed=np.array([True, True]))
    assert info.value.rows == (1,)
    with pytest.raises(InputError) as info:  # the repeat, then the first
        LocusMap(locus_ids=("a", "b", "a"), positions=np.array([10, 20, 30]),
                 typed=np.array([True, True, True]))
    assert info.value.rows == (2, 0)


def test_substitute_replaces_one_symbol():
    g = MultilocusGenotype("s", np.array([0, 1, 2], dtype=np.int8))
    g2 = substitute(g, 1, MISSING)
    assert g2.symbols.tolist() == [0, -1, 2]
    assert g.symbols.tolist() == [0, 1, 2]  # original untouched
    with pytest.raises(IndexError):
        substitute(g, 3, 0)


def test_emission_stack_layout():
    m = tiny_model()
    stack = emission_stack(m)
    assert stack.shape == (3, 4, 2, 2)
    # plane 3 observes nothing
    assert np.array_equal(stack[:, 3], np.ones((3, 2, 2)))
    # planes 0..2 sum to one over the symbol axis
    assert np.allclose(stack[:, :3].sum(axis=1), 1.0)
    # every plane against the sum rule, founder pair by founder pair
    p, q = m.emissions[:, :, None], m.emissions[:, None, :]
    for symbol in (0, 1, 2, MISSING):
        want = oracle.pair_emission(p, q, symbol)
        assert np.array_equal(stack[:, symbol_plane(symbol)], want)


def test_symbol_plane():
    assert [symbol_plane(s) for s in (0, 1, 2, MISSING)] == [0, 1, 2, 3]



