"""Multi-period scene reconstruction with period-modulated Gaussian splatting.

A unified anchor scaffold built from the union of all capture periods'
sparse points carries per-anchor features modulated by a period encoding;
small MLPs decode them into Gaussian primitives that are alpha-composited by
a fully differentiable software rasterizer and trained end to end against
multi-period images, including synthesis of fractional-period states.
"""

__version__ = "0.1.0"
