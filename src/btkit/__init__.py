"""btkit: exact computation in the braids-and-ties algebra, its tensor
representation, the partition Temperley-Lieb quotient, and the tower trace.

``import btkit`` imports no submodule; import the one you need, as in
``from btkit import quotient``.
"""

__version__ = "0.1.0"
