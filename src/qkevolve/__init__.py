"""qkevolve: evolutionary synthesis of quantum-inspired kernel classifiers."""

__version__ = "0.1.0"
