"""Seeded planted-partition inputs for the benchmark workloads.

Every node gets a class; edges prefer same-class pairs; each node draws a
fixed number of distinct vocabulary words, mostly from its class's topic
block and the rest from a shared block; a fraction of labels is then
redrawn at random. The output files are a pure function of the shape
(a ``workloads.Shape``) and the seed, and use the formats the program
reads (``u v``, ``node feature``, ``node label``).
"""

from __future__ import annotations

from pathlib import Path

import numpy as np


def _distinct(rng: np.random.Generator, rows: int, pool: int, k: int) -> np.ndarray:
    """Per row, k distinct ids drawn uniformly from range(pool)."""
    if k >= pool:
        return np.tile(np.arange(pool), (rows, 1))
    return np.argpartition(rng.random((rows, pool)), k - 1, axis=1)[:, :k]


def _edges(rng: np.random.Generator, classes: np.ndarray, shape) -> np.ndarray:
    n = shape.nodes
    order = np.argsort(classes, kind="stable")
    counts = np.bincount(classes, minlength=shape.classes)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    keys = np.empty(0, dtype=np.int64)
    while keys.size < shape.edges:
        batch = 2 * (shape.edges - keys.size) + 16
        intra = rng.random(batch) < shape.intra_edge_fraction
        cls = rng.integers(shape.classes, size=batch)
        pick_u = starts[cls] + (rng.random(batch) * counts[cls]).astype(np.int64)
        pick_v = starts[cls] + (rng.random(batch) * counts[cls]).astype(np.int64)
        u = np.where(intra, order[pick_u], rng.integers(n, size=batch))
        v = np.where(intra, order[pick_v], rng.integers(n, size=batch))
        keep = u != v
        lo = np.minimum(u, v)[keep]
        hi = np.maximum(u, v)[keep]
        drawn = lo.astype(np.int64) * n + hi
        # New distinct keys, in the order they were drawn.
        uniq, first = np.unique(drawn, return_index=True)
        fresh = uniq[np.argsort(first)]
        fresh = fresh[~np.isin(fresh, keys)]
        keys = np.concatenate([keys, fresh[: shape.edges - keys.size]])
    keys.sort()
    return np.stack([keys // n, keys % n], axis=1)


def generate(shape, seed: int) -> dict:
    """Arrays for one dataset: ``edges`` (m x 2), ``features`` (pairs), ``labels``."""
    rng = np.random.default_rng([seed, shape.nodes])
    n = shape.nodes
    classes = rng.permutation(np.arange(n) % shape.classes)

    shared = int(shape.features * shape.shared_vocab_fraction)
    topic = (shape.features - shared) // shape.classes
    n_topic = int(round(shape.words_per_node * shape.topic_word_fraction))
    n_shared = shape.words_per_node - n_topic
    topic_words = shared + classes[:, None] * topic + _distinct(rng, n, topic, n_topic)
    shared_words = _distinct(rng, n, shared, n_shared)
    words = np.sort(np.hstack([topic_words, shared_words]), axis=1)
    features = np.stack([np.repeat(np.arange(n), words.shape[1]), words.ravel()], axis=1)

    edges = _edges(rng, classes, shape)

    labels = classes.copy()
    noisy = rng.choice(n, size=int(round(shape.label_noise * n)), replace=False)
    labels[noisy] = rng.integers(shape.classes, size=noisy.size)
    return {"edges": edges, "features": features, "labels": labels}


def write_inputs(shape, seed: int, directory) -> dict:
    """Write edges.txt / features.txt / labels.txt; returns their paths."""
    data = generate(shape, seed)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    paths = {name: directory / f"{name}.txt" for name in ("edges", "features", "labels")}
    np.savetxt(paths["edges"], data["edges"], fmt="%d")
    np.savetxt(paths["features"], data["features"], fmt="%d")
    np.savetxt(
        paths["labels"],
        np.stack([np.arange(shape.nodes), data["labels"]], axis=1),
        fmt="%d",
    )
    return paths
