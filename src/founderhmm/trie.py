"""The batch engine's names that perfbench's tracer looks up by module;
the engine and its entry live in :mod:`founderhmm.inference`."""
from .inference import batched_posteriors, build_trie  # noqa: F401


def reversed_trie(symbols):
    """:func:`build_trie` of the reversed genotypes."""
    return build_trie(symbols[:, ::-1])
