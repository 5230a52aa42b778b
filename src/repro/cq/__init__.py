"""Conjunctive-query substrate: queries, generalized join trees, GHDs."""
