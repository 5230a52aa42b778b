"""CROWN core: the paper's contribution plus tuple-at-a-time baselines."""
