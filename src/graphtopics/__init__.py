"""Deep relational topic modeling of document networks.

A gamma/Poisson generative model over bag-of-words node features and
binary edges, with exact Gibbs inference, two Weibull-based
variational graph encoders, full-batch and scalable hybrid trainers,
and harnesses for link prediction, node clustering, and classification.
"""

__version__ = "0.1.0"
