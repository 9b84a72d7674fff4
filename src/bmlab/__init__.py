"""Interior density of separated real sequences and spectral gap probes.

The package decides, at desk scale, whether a separated sequence has
positive interior density (equivalently: whether every entire function
of zero exponential type bounded on it is constant) and quantifies the
matching spectral gap characteristic through explicit measure
constructions and Gram matrix evidence.

Names are imported from their modules (``bmlab.sequences``,
``bmlab.envelope``, ``bmlab.density``, ``bmlab.gap``, ``bmlab.zerotype``,
``bmlab.errors``); the ``bm-lab`` command is ``bmlab.cli``.
"""
