"""Readings of trees and prepared nodes that only the tests need."""

import numpy as np


def predict(tree, task, X):
    """``tree``'s prediction for ``task`` of each row of ``X``: ``route``, then
    ``step`` at scale 1.0, which keeps every bit of a leaf value (``-0.0`` too)."""
    X = np.asarray(X, dtype=np.float64)
    return tree.step(task, tree.route(task, X.T, len(X), {}), 1.0)


def order(node):
    """Every feature's sorted order at ``node``, a ``trees.SortedRows``."""
    return node.rows(slice(None))[0]


def distinct(node):
    """Every feature's ``distinct`` at ``node``: sorted value j + 1 exceeds value j."""
    return node.rows(slice(None))[1]


def threshold(node, f, j, min_samples_leaf):
    """``node.threshold`` of feature ``f``'s column ``j``, with f sorted here."""
    return node.threshold(f, j, min_samples_leaf, node.rows([f])[0][0])
