"""asnkit: aggregated syntactic networks from dependency treebanks.

The toolkit turns collections of manually annotated dependency trees into
weighted directed word networks, ranks their words by hierarchical level,
summarizes their topology, fits discrete power laws to their degree
distributions, and tracks how the top of the hierarchy changes over time.

The package namespace is the union of the ``__all__`` lists of its pipeline
modules, plus :func:`demo_corpus_path`; each public name is declared once, in
the module that defines it.
"""

from importlib import resources

from . import corpus, diachrony, hierarchy, network, powerlaw, stats

__version__ = "0.1.0"


def demo_corpus_path() -> str:
    """Return the filesystem path of the bundled synthetic demo treebank."""
    return str(resources.files("asnkit").joinpath("data/demo.tb"))


_PIPELINE = (corpus, network, hierarchy, stats, powerlaw, diachrony)
_PUBLIC = {
    name: getattr(module, name) for module in _PIPELINE for name in module.__all__
}

globals().update(_PUBLIC)
__all__ = [*_PUBLIC, "demo_corpus_path"]
