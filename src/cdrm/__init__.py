"""Scored transition fields with disentangled uncertainty estimates."""
