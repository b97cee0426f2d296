"""Computing and minimizing the two-party efficiency-gap measure."""

__version__ = "0.1.0"
