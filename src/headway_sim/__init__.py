"""Adaptive-headway unicycle control, feedback motion prediction, and
time-governed safe path following around polygonal obstacles."""

__version__ = "0.1.0"
