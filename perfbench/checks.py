"""Output checks, each computed apart from the code path it checks.

- Viterbi optimality: a numpy max-product recursion over the model's emission
  scores and CRF parameters finds the best path score; the decoded path must
  reach it within 1e-9.
- Training loss: a CRF negative log-likelihood is finite and >= 0.
- Gradients: central finite differences, dropout off, on a few coordinates of
  each parameter group agree with Tensor.backward within 1e-7 + 1e-4 relative,
  the relative tolerance `fgn gradcheck` uses.
- Persistence: the loaded model decodes the same as the model that was saved.
"""

from __future__ import annotations

import math

import numpy as np

VITERBI_TOLERANCE = 1e-9
FD_EPS = 4e-7
FD_ATOL = 1e-7
FD_RTOL = 1e-4
# parameter-name prefix of each group the gradient spot check covers
GRADIENT_GROUPS = {"cnn": "cnn/", "fusion": "fusion/", "lstm": "tagger/", "crf": "crf/"}


def crf_tables(model) -> tuple:
    """(emission weight, transitions, start scores) as plain arrays, BMES mask applied if the model uses it."""
    crf = model.crf
    trans = crf.transitions.data.copy()
    start = crf.start_scores.data.copy()
    if model.mask_scheme is not None:
        tmask, smask = model.mask_scheme.transition_penalties()
        trans += tmask
        start += smask
    return crf.emission_weight.data.copy(), trans, start


def best_path_score(emissions: np.ndarray, trans: np.ndarray, start: np.ndarray) -> float:
    """Max over all label paths of start + emission + transition scores."""
    delta = start + emissions[0]
    for t in range(1, emissions.shape[0]):
        delta = (delta[:, None] + trans).max(axis=0) + emissions[t]
    return float(delta.max())


def path_score(emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, path) -> float:
    path = np.asarray(path)
    steps = np.arange(len(path))
    return float(start[path[0]] + emissions[steps, path].sum() + trans[path[:-1], path[1:]].sum())


def viterbi_problems(hidden: np.ndarray, labels: list, sentence: str, scheme, tables: tuple) -> list:
    """Reasons a decoded label sequence is wrong; empty when it is a best path of the right length."""
    if len(labels) != len(sentence):
        return ["%d labels for a %d-character sentence" % (len(labels), len(sentence))]
    weight, trans, start = tables
    emissions = hidden @ weight.T
    path = [scheme.label_index(lab) for lab in labels]
    gap = best_path_score(emissions, trans, start) - path_score(emissions, trans, start, path)
    if not abs(gap) <= VITERBI_TOLERANCE:
        return ["decoded path scores %.3e below the best path (%d chars)" % (gap, len(sentence))]
    return []


def loss_problems(losses: list) -> list:
    bad = [v for v in losses if not (math.isfinite(v) and v >= 0.0)]
    if bad:
        return ["%d of %d training losses are negative or not finite, first %r" % (len(bad), len(losses), bad[0])]
    return []


def gradient_spot_check(model, sentence, rng: np.random.Generator, per_group: int = 2,
                        tries: int = 8) -> list:
    """Rows (group, parameter name, flat index, backward gradient, finite difference).

    Per group: the coordinate with the largest backward gradient, then seeded
    random ones, `per_group` in all. The loss is piecewise smooth (max-pooling
    picks one input per window), so a step of a few 1e-7 can cross a switch
    of that choice; a coordinate whose differences at two step sizes disagree
    is such a point and is replaced by another random draw, up to `tries`
    draws per group. Leaves every gradient zeroed.
    """
    params = model.parameters()
    for p in params:
        p.grad[...] = 0.0
    model.loss([sentence], training=False).backward()

    def difference(p, i, eps):
        orig = float(p.data.flat[i])
        p.data.flat[i] = orig + eps
        plus = model.loss([sentence], training=False).item()
        p.data.flat[i] = orig - eps
        minus = model.loss([sentence], training=False).item()
        p.data.flat[i] = orig
        return (plus - minus) / (2.0 * eps)

    rows = []
    for group, prefix in GRADIENT_GROUPS.items():
        members = [p for p in params if p.name.startswith(prefix)]
        if not members:
            raise ValueError("model has no %s parameters to check" % group)
        p = max(members, key=lambda m: np.abs(m.grad).max())
        i = int(np.abs(p.grad).argmax())
        found = 0
        for _ in range(tries):
            coarse, fine = difference(p, i, FD_EPS), difference(p, i, FD_EPS / 2)
            if _close(coarse, fine):
                rows.append((group, p.name, i, float(p.grad.flat[i]), fine))
                found += 1
                if found == per_group:
                    break
            p = members[int(rng.integers(len(members)))]
            i = int(rng.integers(p.data.size))
    for p in params:
        p.grad[...] = 0.0
    return rows


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FD_ATOL + FD_RTOL * max(abs(a), abs(b))


def gradient_problems(rows: list, per_group: int = 2) -> list:
    problems = []
    for group in GRADIENT_GROUPS:
        found = sum(1 for r in rows if r[0] == group)
        if found < per_group:
            problems.append("%s gradients: only %d of %d coordinates had a smooth finite difference"
                            % (group, found, per_group))
    for group, name, i, analytic, numeric in rows:
        if not _close(analytic, numeric):
            problems.append("%s gradient %s[%d]: backward %.9e, finite difference %.9e"
                            % (group, name, i, analytic, numeric))
    return problems


def identity_problems(saved_labels: list, loaded_labels: list) -> list:
    """The loaded model must decode every check sentence exactly as the saved one did."""
    if len(saved_labels) != len(loaded_labels):
        return ["compared %d saved against %d loaded decodes" % (len(saved_labels), len(loaded_labels))]
    diff = [i for i, (a, b) in enumerate(zip(saved_labels, loaded_labels)) if list(a) != list(b)]
    if diff:
        return ["loaded model decodes %d of %d check sentences differently, first #%d"
                % (len(diff), len(saved_labels), diff[0])]
    return []
