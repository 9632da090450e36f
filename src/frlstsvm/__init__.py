"""Fuzzy-rough weighted least-squares twin SVM for imbalanced binary
classification."""

__version__ = "0.1.0"
