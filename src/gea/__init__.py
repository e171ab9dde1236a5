"""Entropy-agglomeration clustering for weighted feature allocations.

Elements described by overlapping, weighted blocks are clustered by
repeatedly merging the pair of clusters whose union has the smallest
projection entropy. Numeric tables enter the same pipeline through a
grid-based categorization that turns each column into weighted overlap
blocks. The API lives in the submodules (``gea.allocation``,
``gea.entropy``, ``gea.categorize``, ``gea.agglomeration``, ``gea.cli``);
see the README for the file formats and the ``gea`` CLI.
"""

__version__ = "0.1.0"
