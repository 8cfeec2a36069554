"""Sequence tagging: BiLSTM encoding, linear-chain CRF, Viterbi decoding.

The two LSTM directions are combined by elementwise sum, so the hidden size
stays d_h. The CRF scores a path as emission + transition terms plus a
learned start score for the first label. The likelihood is one graph node on
the score table Viterbi reads: the alpha and beta recursions run in log space,
and their node and pair marginals make the gradient. Brute-force enumeration
twins of the CRF functions serve as oracles for small instances. A sentence's
hidden states are one (tau, d_h) matrix; the CRF functions also take a list of
tau row vectors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .ops import LstmCellParams, dropout, init_lstm_params, lstm_sequence
from .tensor import Parameter, Tensor, stack_rows, uniform_fan_init

TAGGER_VARIANTS = ("bilstm", "lstm", "none")

# finite stand-in for a forbidden transition; keeps every forward pass NaN/Inf-free
MASK_PENALTY = -1e4


@dataclass(frozen=True)
class LabelScheme:
    """BMES x entity types, plus O. Label order: O first, then B/M/E/S per type."""

    entity_types: tuple
    labels: tuple

    @classmethod
    def from_entity_types(cls, entity_types) -> "LabelScheme":
        types = tuple(sorted(set(entity_types)))
        labels = ["O"]
        for t in types:
            labels.extend(["%s-%s" % (p, t) for p in "BMES"])
        return cls(entity_types=types, labels=tuple(labels))

    @cached_property
    def _index(self) -> dict:
        return {lab: i for i, lab in enumerate(self.labels)}

    @property
    def label_count(self) -> int:
        return len(self.labels)

    def label_index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise ValueError("label %r is not in the scheme %s" % (label, list(self.labels))) from None

    def is_valid_start(self, label: str) -> bool:
        return label == "O" or label[0] in "BS"

    def is_valid_transition(self, prev: str, nxt: str) -> bool:
        if prev == "O" or prev[0] in "ES":
            return nxt == "O" or nxt[0] in "BS"
        # inside an entity: stay in it (M) or close it (E), same type
        return nxt[0] in "ME" and nxt[2:] == prev[2:]

    @cached_property
    def _valid(self) -> tuple:
        """Read-only (L,L) valid-transition and (L,) valid-start masks, built once per scheme."""
        labs = self.labels
        trans = np.array([[self.is_valid_transition(a, b) for b in labs] for a in labs], dtype=bool)
        start = np.array([self.is_valid_start(a) for a in labs], dtype=bool)
        trans.flags.writeable = start.flags.writeable = False
        return trans, start

    def transition_penalties(self, penalty: float = MASK_PENALTY) -> tuple:
        """(L,L) additive transition mask and (L,) start mask, fresh arrays; 0 where valid."""
        trans, start = self._valid
        return np.where(trans, 0.0, penalty), np.where(start, 0.0, penalty)


@dataclass
class CrfParams:
    emission_weight: Parameter   # (L, d_h)
    transitions: Parameter       # (L, L), score of moving row-label -> column-label
    start_scores: Parameter      # (L,), score of opening with each label

    def parameters(self) -> list:
        return [self.emission_weight, self.transitions, self.start_scores]

    @property
    def label_count(self) -> int:
        return self.transitions.data.shape[0]


def init_crf_params(label_count: int, d_hidden: int, rng: np.random.Generator) -> CrfParams:
    return CrfParams(
        emission_weight=Parameter(uniform_fan_init(rng, (label_count, d_hidden), d_hidden, label_count),
                                  name="crf/emission_weight"),
        transitions=Parameter(np.zeros((label_count, label_count)), name="crf/transitions"),
        start_scores=Parameter(np.zeros(label_count), name="crf/start_scores"),
    )


@dataclass
class TaggerParams:
    variant: str
    forward_cell: LstmCellParams | None
    backward_cell: LstmCellParams | None
    dropout_rate: float = 0.0

    def parameters(self) -> list:
        out = []
        if self.forward_cell is not None:
            out.extend(self.forward_cell.parameters())
        if self.backward_cell is not None and self.backward_cell is not self.forward_cell:
            out.extend(self.backward_cell.parameters())
        return out


def init_tagger_params(variant: str, d_in: int, d_hidden: int, rng: np.random.Generator,
                       dropout_rate: float = 0.0) -> TaggerParams:
    if variant not in TAGGER_VARIANTS:
        raise ValueError("tagger variant must be one of %s, got %r"
                         % (", ".join(TAGGER_VARIANTS), variant))
    fwd = bwd = None
    if variant in ("bilstm", "lstm"):
        fwd = init_lstm_params(d_in, d_hidden, rng, "tagger/fwd")
    if variant == "bilstm":
        bwd = init_lstm_params(d_in, d_hidden, rng, "tagger/bwd")
    return TaggerParams(variant=variant, forward_cell=fwd, backward_cell=bwd,
                        dropout_rate=dropout_rate)


def bilstm_encode(x: Tensor, params: TaggerParams, rng: np.random.Generator | None = None) -> Tensor:
    """(tau, D) -> (tau, d_h): both directions summed, forward only, or pass-through; rng draws dropout."""
    if len(x) == 0:
        raise ValueError("bilstm_encode needs a non-empty input sequence")
    if params.variant == "none":
        return x
    h = lstm_sequence(x, params.forward_cell)
    if params.variant == "bilstm":
        h = h + lstm_sequence(x, params.backward_cell, reverse=True)
    # one (tau, d_h) mask draws the same rng stream as tau per-row draws
    return dropout(h, params.dropout_rate, rng)


# ---- CRF scoring ----


def _score_table(hs, crf: CrfParams, scheme: LabelScheme | None, penalty: float = MASK_PENALTY):
    """Emission, transition and start arrays of the likelihood, Viterbi and the oracles; masked given a scheme."""
    h = stack_rows(hs).data
    if len(h) == 0:
        raise ValueError("the CRF needs at least one hidden state; the sentence is empty")
    tmask, smask = (0.0, 0.0) if scheme is None else scheme.transition_penalties(penalty)
    emissions = h @ crf.emission_weight.data.T
    return emissions, crf.transitions.data + tmask, crf.start_scores.data + smask


def _check_labels(y, label_count: int, tau: int) -> np.ndarray:
    y = list(y)
    if len(y) != tau:
        raise ValueError("label sequence length %d does not match %d hidden states" % (len(y), tau))
    for v in y:
        if isinstance(v, bool) or not isinstance(v, (int, np.integer)) or not 0 <= v < label_count:
            raise ValueError("label %r is not an integer index in [0, %d)" % (v, label_count))
    return np.array(y, dtype=np.int64)


def crf_log_likelihood(hs, y, crf: CrfParams, scheme: LabelScheme | None = None) -> Tensor:
    """log P(y | sentence) under the linear-chain CRF, one graph node; hs is (tau, d_h) or a list of tau rows.

    The alpha and beta recursions run in log space on the score table Viterbi
    reads; log Z comes from alpha. The gradient is the observed counts minus
    the marginals: one-hot(y) minus the node marginals for the emissions and,
    at t = 0, the start scores; the pair counts of y minus the summed pair
    marginals for the transitions.
    """
    h = stack_rows(hs)
    e, trans, start = _score_table(h, crf, scheme)
    tau, label_count = e.shape
    y = _check_labels(y, label_count, tau)
    alpha, beta = np.empty((tau, label_count)), np.zeros((tau, label_count))
    alpha[0] = start + e[0]
    with np.errstate(invalid="ignore"):     # a NaN score gives a NaN loss, which training reports
        for t in range(1, tau):
            alpha[t] = np.logaddexp.reduce(alpha[t - 1][:, None] + trans, axis=0) + e[t]
            beta[-1 - t] = np.logaddexp.reduce(trans + (e[-t] + beta[-t]), axis=1)
        log_z = np.logaddexp.reduce(alpha[-1])
    score = e[np.arange(tau), y].sum() + start[y[0]] + trans[y[:-1], y[1:]].sum()

    def back(g):
        de = -np.exp(alpha + beta - log_z)
        de[np.arange(tau), y] += 1.0
        dtrans = -np.exp(alpha[:-1, :, None] + trans + (e[1:] + beta[1:])[:, None] - log_z).sum(axis=0)
        np.add.at(dtrans, (y[:-1], y[1:]), 1.0)
        crf.start_scores.accumulate(g * de[0])      # the start score enters as row 0's emission does
        crf.transitions.accumulate(g * dtrans)
        crf.emission_weight.accumulate(g * (de.T @ h.data))
        h.accumulate(g * (de @ crf.emission_weight.data))

    return Tensor(score - log_z, (h, crf.emission_weight, crf.transitions, crf.start_scores), back)


def nll_loss(batch: list, crf: CrfParams, scheme: LabelScheme | None = None) -> Tensor:
    """Summed negative log-likelihood over (hidden sequence, labels) pairs."""
    if len(batch) == 0:
        raise ValueError("nll_loss needs a non-empty batch")
    return -reduce(Tensor.__add__, [crf_log_likelihood(hs, y, crf, scheme) for hs, y in batch])


def viterbi_decode(hs, crf: CrfParams, scheme: LabelScheme | None = None) -> list:
    """Highest-scoring label sequence; ties break to the lowest label index.

    The BMES mask is -inf here, not the likelihood's finite MASK_PENALTY, so no
    emission score can make an invalid path win.
    """
    emissions, trans, start = _score_table(hs, crf, scheme, -np.inf)
    tau, label_count = emissions.shape
    delta = start + emissions[0]
    back = np.zeros((tau, label_count), dtype=np.int64)
    for t in range(1, tau):
        step = delta[:, None] + trans
        best_prev = np.argmax(step, axis=0)           # first max = lowest index
        back[t] = best_prev
        delta = step[best_prev, np.arange(label_count)] + emissions[t]
    path = [int(np.argmax(delta))]
    for t in range(tau - 1, 0, -1):
        path.append(int(back[t][path[-1]]))
    path.reverse()
    return path


# ---- brute-force oracles ----

ENUMERATION_GUARD = 100_000


def _path_score(emissions, trans, start, y) -> float:
    score = start[y[0]] + emissions[0, y[0]]
    for t in range(1, len(y)):
        score += trans[y[t - 1], y[t]] + emissions[t, y[t]]
    return float(score)


def _guard(label_count: int, tau: int) -> None:
    if label_count ** tau > ENUMERATION_GUARD:
        raise ValueError("enumeration of %d^%d label sequences exceeds the %d guard"
                         % (label_count, tau, ENUMERATION_GUARD))


def brute_force_loglik(hs, y, crf: CrfParams, scheme: LabelScheme | None = None) -> float:
    emissions, trans, start = _score_table(hs, crf, scheme)
    tau, label_count = emissions.shape
    _guard(label_count, tau)
    y = _check_labels(y, label_count, tau)
    scores = [_path_score(emissions, trans, start, list(cand))
              for cand in itertools.product(range(label_count), repeat=tau)]
    scores = np.asarray(scores)
    m = scores.max()
    log_z = m + np.log(np.exp(scores - m).sum())
    return _path_score(emissions, trans, start, y) - log_z


def brute_force_best(hs, crf: CrfParams, scheme: LabelScheme | None = None) -> list:
    emissions, trans, start = _score_table(hs, crf, scheme, -np.inf)
    tau, label_count = emissions.shape
    _guard(label_count, tau)
    best_y, best_score = None, -np.inf
    for cand in itertools.product(range(label_count), repeat=tau):
        s = _path_score(emissions, trans, start, list(cand))
        if s > best_score:
            best_y, best_score = list(cand), s
    return best_y
