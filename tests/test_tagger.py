"""BMES label scheme, BiLSTM encoding, and CRF scoring against enumeration oracles."""

import numpy as np
import pytest
from numpy.random import default_rng

from fgn.gradcheck import grad_check
from fgn.ops import dropout, init_lstm_params, lstm_step
from fgn.optim import zero_grads
from fgn.tagger import (ENUMERATION_GUARD, MASK_PENALTY, CrfParams,
                        LabelScheme, TaggerParams, bilstm_encode,
                        brute_force_best, brute_force_loglik,
                        crf_log_likelihood, init_crf_params,
                        init_tagger_params, nll_loss, viterbi_decode)
from fgn.tensor import Parameter, Tensor, stack_rows


def make_crf(label_count, d_hidden, rng):
    crf = init_crf_params(label_count, d_hidden, rng)
    crf.transitions.data[:] = rng.normal(size=(label_count, label_count))
    crf.start_scores.data[:] = rng.normal(size=label_count)
    return crf


def rand_hs(tau, d_hidden, rng):
    return [Tensor(rng.normal(size=d_hidden)) for _ in range(tau)]


# ---- label scheme ----


def test_scheme_label_order():
    scheme = LabelScheme.from_entity_types(("PER", "LOC"))
    assert scheme.labels == ("O", "B-LOC", "M-LOC", "E-LOC", "S-LOC",
                             "B-PER", "M-PER", "E-PER", "S-PER")
    assert scheme.label_count == 9


def test_scheme_label_count_formula():
    for n in range(1, 5):
        scheme = LabelScheme.from_entity_types(["T%d" % i for i in range(n)])
        assert scheme.label_count == 4 * n + 1


def test_scheme_dedups_types():
    scheme = LabelScheme.from_entity_types(("PER", "PER"))
    assert scheme.entity_types == ("PER",)
    assert scheme.label_count == 5


def test_label_index_roundtrip():
    scheme = LabelScheme.from_entity_types(("PER",))
    for i, lab in enumerate(scheme.labels):
        assert scheme.label_index(lab) == i
    with pytest.raises(ValueError):
        scheme.label_index("B-ORG")


def test_valid_starts():
    scheme = LabelScheme.from_entity_types(("PER",))
    assert scheme.is_valid_start("O")
    assert scheme.is_valid_start("B-PER")
    assert scheme.is_valid_start("S-PER")
    assert not scheme.is_valid_start("M-PER")
    assert not scheme.is_valid_start("E-PER")


def test_valid_transitions():
    scheme = LabelScheme.from_entity_types(("PER", "LOC"))
    ok = scheme.is_valid_transition
    # outside an entity, move to O or open a new one
    assert ok("O", "O") and ok("O", "B-PER") and ok("O", "S-LOC")
    assert not ok("O", "M-PER") and not ok("O", "E-LOC")
    # inside an entity, stay or close, same type only
    assert ok("B-PER", "M-PER") and ok("B-PER", "E-PER")
    assert not ok("B-PER", "B-PER") and not ok("B-PER", "O")
    assert not ok("B-PER", "S-PER") and not ok("B-LOC", "M-PER")
    assert ok("M-PER", "M-PER") and ok("M-PER", "E-PER")
    assert not ok("M-PER", "O") and not ok("M-LOC", "E-PER")
    # after closing, same options as after O
    assert ok("E-PER", "O") and ok("E-PER", "B-LOC") and ok("E-PER", "S-PER")
    assert not ok("E-PER", "M-PER")
    assert ok("S-PER", "B-PER") and not ok("S-PER", "E-PER")


def test_transition_penalties_match_predicate():
    scheme = LabelScheme.from_entity_types(("PER", "LOC"))
    trans, start = scheme.transition_penalties()
    assert trans.shape == (9, 9) and start.shape == (9,)
    for i, a in enumerate(scheme.labels):
        expect = 0.0 if scheme.is_valid_start(a) else MASK_PENALTY
        assert start[i] == expect
        for j, b in enumerate(scheme.labels):
            expect = 0.0 if scheme.is_valid_transition(a, b) else MASK_PENALTY
            assert trans[i, j] == expect


def test_transition_penalties_are_fresh_arrays():
    # the masks are cached on the scheme: a caller's write must not reach the next call
    scheme = LabelScheme.from_entity_types(("PER", "LOC"))
    trans, start = scheme.transition_penalties()
    want_trans, want_start = trans.copy(), start.copy()
    trans[...] = 7.0
    start[...] = 7.0
    again_trans, again_start = scheme.transition_penalties()
    assert np.array_equal(again_trans, want_trans) and np.array_equal(again_start, want_start)
    hard_trans, hard_start = scheme.transition_penalties(-np.inf)
    assert np.array_equal(hard_trans == -np.inf, want_trans == MASK_PENALTY)
    assert np.array_equal(hard_start == -np.inf, want_start == MASK_PENALTY)


# ---- BiLSTM encoding ----


def test_variant_none_is_passthrough():
    params = init_tagger_params("none", 4, 4, default_rng(0))
    x = Tensor(np.stack([np.arange(4.0), np.ones(4)]))
    assert bilstm_encode(x, params) is x


def test_zero_weights_give_zero_hidden():
    # with all weights zero the cell input g = tanh(0) = 0, so c and h stay 0
    params = init_tagger_params("bilstm", 3, 5, default_rng(0))
    for p in params.parameters():
        p.data[:] = 0.0
    out = bilstm_encode(Tensor(np.ones((4, 3))), params)
    for h in out:
        assert h.shape == (5,)
        np.testing.assert_array_equal(h.data, np.zeros(5))


def test_bilstm_output_dim_is_hidden_size():
    # directions are summed, not concatenated
    params = init_tagger_params("bilstm", 6, 9, default_rng(3))
    out = bilstm_encode(Tensor(default_rng(4).normal(size=(4, 6))), params)
    assert out.shape == (4, 9)


def test_tied_cells_palindrome():
    # palindromic input + shared cell => reversed pass equals forward pass,
    # so the summed hidden sequence is itself a palindrome
    cell = init_lstm_params(3, 4, default_rng(5), "cell")
    params = TaggerParams(variant="bilstm", forward_cell=cell, backward_cell=cell)
    rng = default_rng(6)
    a, b, c = (Tensor(rng.normal(size=3)) for _ in range(3))
    out = bilstm_encode(stack_rows([a, b, c, b, a]), params)
    np.testing.assert_allclose(out[0].data, out[4].data, atol=1e-12)
    np.testing.assert_allclose(out[1].data, out[3].data, atol=1e-12)


def test_tied_cells_share_parameters():
    cell = init_lstm_params(3, 4, default_rng(5), "cell")
    params = TaggerParams(variant="bilstm", forward_cell=cell, backward_cell=cell)
    names = [p.name for p in params.parameters()]
    assert len(names) == len(set(names)) == 3


def test_forward_only_is_causal():
    params = init_tagger_params("lstm", 3, 4, default_rng(7))
    rng = default_rng(8)
    xs = rand_hs(4, 3, rng)
    base = [h.data.copy() for h in bilstm_encode(stack_rows(xs), params)]
    xs2 = list(xs[:3]) + [Tensor(xs[3].data + 1.0)]
    alt = bilstm_encode(stack_rows(xs2), params)
    for t in range(3):
        np.testing.assert_array_equal(alt[t].data, base[t])
    assert not np.array_equal(alt[3].data, base[3])


def reference_encode(x, params, rng=None):
    """The per-character encoder: one lstm_step node chain per direction, dropout per row."""
    xs = [x[t] for t in range(len(x))]

    def run(seq, cell):
        h = Tensor(np.zeros(cell.hidden_size))
        c = Tensor(np.zeros(cell.hidden_size))
        out = []
        for x in seq:
            h, c = lstm_step(x, h, c, cell)
            out.append(h)
        return out

    hs = run(xs, params.forward_cell)
    if params.variant == "bilstm":
        back = run(list(reversed(xs)), params.backward_cell)
        hs = [f + b for f, b in zip(hs, reversed(back))]
    return [dropout(h, params.dropout_rate, rng) for h in hs]


def _encode_and_grads(encode, xs, params, crf, y, dropout_seed):
    rng = default_rng(dropout_seed) if dropout_seed is not None else None
    leaves = list(xs) + params.parameters() + crf.parameters()
    zero_grads(leaves)
    hs = encode(stack_rows(xs), params, rng=rng)
    loss = nll_loss([(hs, y)], crf)
    loss.backward()
    return np.stack([h.data for h in hs]), loss.item(), [p.grad.copy() for p in leaves]


ENCODER_VARIANTS = ("lstm", "bilstm", "tied")


@pytest.mark.parametrize("variant", ENCODER_VARIANTS)
@pytest.mark.parametrize("tau", [1, 2, 7])
@pytest.mark.parametrize("dropout_seed", [None, 21])
def test_fused_encoder_matches_per_step_reference(variant, tau, dropout_seed):
    rng = default_rng([ENCODER_VARIANTS.index(variant), tau])
    d_in, d_h = (int(v) for v in rng.integers(1, 12, size=2))
    if variant == "tied":
        cell = init_lstm_params(d_in, d_h, rng, "cell")
        params = TaggerParams(variant="bilstm", forward_cell=cell, backward_cell=cell)
    else:
        params = init_tagger_params(variant, d_in, d_h, rng)
    params.dropout_rate = 0.4
    for p in params.parameters():
        p.data[...] = rng.normal(size=p.shape)
    crf = make_crf(3, d_h, rng)
    xs = [Parameter(rng.normal(size=d_in), name="x%d" % t) for t in range(tau)]
    y = [int(v) for v in rng.integers(0, 3, size=tau)]

    h_new, loss_new, grads_new = _encode_and_grads(bilstm_encode, xs, params, crf, y, dropout_seed)
    h_ref, loss_ref, grads_ref = _encode_and_grads(reference_encode, xs, params, crf, y,
                                                   dropout_seed)
    np.testing.assert_allclose(h_new, h_ref, rtol=1e-10, atol=1e-12)
    assert abs(loss_new - loss_ref) <= 1e-10 * max(1.0, abs(loss_ref))
    for g_new, g_ref in zip(grads_new, grads_ref):
        np.testing.assert_allclose(g_new, g_ref, rtol=1e-10, atol=1e-12)


def test_bilstm_rejects_empty_sequence():
    params = init_tagger_params("bilstm", 3, 4, default_rng(0))
    with pytest.raises(ValueError):
        bilstm_encode(Tensor(np.zeros((0, 3))), params)


def test_bad_variant_rejected():
    with pytest.raises(ValueError):
        init_tagger_params("gru", 3, 4, default_rng(0))


def test_variant_cells():
    lstm = init_tagger_params("lstm", 3, 4, default_rng(0))
    assert lstm.forward_cell is not None and lstm.backward_cell is None
    none = init_tagger_params("none", 3, 4, default_rng(0))
    assert none.forward_cell is None and none.backward_cell is None
    bi = init_tagger_params("bilstm", 3, 4, default_rng(0))
    prefixes = {p.name.split("/")[1] for p in bi.parameters()}
    assert prefixes == {"fwd", "bwd"}


# ---- CRF log-likelihood ----


def test_loglik_single_position_two_labels():
    # emissions [1, 0], no start/transition scores:
    # log P(y=0) = 1 - log(e^1 + e^0)
    crf = CrfParams(
        emission_weight=Parameter(np.array([[1.0, 0.0], [0.0, 0.0]]), name="crf/emission_weight"),
        transitions=Parameter(np.zeros((2, 2)), name="crf/transitions"),
        start_scores=Parameter(np.zeros(2), name="crf/start_scores"),
    )
    hs = [Tensor(np.array([1.0, 0.0]))]
    ll = crf_log_likelihood(hs, [0], crf)
    assert abs(float(ll.data) - (1.0 - np.log(np.e + 1.0))) < 1e-12


def test_loglik_uniform_scores():
    # all scores zero => every path equally likely: log P = -tau * log L
    rng = default_rng(0)
    for tau, label_count in [(1, 2), (2, 3), (4, 4)]:
        crf = init_crf_params(label_count, 3, rng)
        crf.emission_weight.data[:] = 0.0
        hs = rand_hs(tau, 3, rng)
        y = [0] * tau
        ll = crf_log_likelihood(hs, y, crf)
        assert abs(float(ll.data) + tau * np.log(label_count)) < 1e-12


def test_nll_two_positions_three_labels():
    rng = default_rng(1)
    crf = init_crf_params(3, 4, rng)
    crf.emission_weight.data[:] = 0.0
    hs = rand_hs(2, 4, rng)
    loss = nll_loss([(hs, [2, 1])], crf)
    assert abs(float(loss.data) - 2.0 * np.log(3.0)) < 1e-12


def test_loglik_matches_enumeration():
    rng = default_rng(2)
    for tau in (1, 2, 3):
        for label_count in (2, 3):
            crf = make_crf(label_count, 5, rng)
            hs = rand_hs(tau, 5, rng)
            y = [int(v) for v in rng.integers(0, label_count, size=tau)]
            got = float(crf_log_likelihood(hs, y, crf).data)
            want = brute_force_loglik(hs, y, crf)
            assert abs(got - want) < 1e-10


def test_loglik_matches_enumeration_with_scheme():
    scheme = LabelScheme.from_entity_types(("PER",))
    rng = default_rng(3)
    crf = make_crf(scheme.label_count, 4, rng)
    hs = rand_hs(3, 4, rng)
    y = [scheme.label_index(l) for l in ("B-PER", "E-PER", "O")]
    got = float(crf_log_likelihood(hs, y, crf, scheme).data)
    want = brute_force_loglik(hs, y, crf, scheme)
    assert abs(got - want) < 1e-10


def test_emission_shift_invariance():
    # adding a constant to every label's emission at one position cancels in
    # the normalizer; build one-hot hidden states so columns of W are the
    # per-position emissions
    rng = default_rng(4)
    tau, label_count = 3, 3
    w = rng.normal(size=(label_count, tau))
    trans = rng.normal(size=(label_count, label_count))
    start = rng.normal(size=label_count)
    hs = [Tensor(np.eye(tau)[t]) for t in range(tau)]

    def loglik(wmat):
        crf = CrfParams(
            emission_weight=Parameter(wmat.copy(), name="crf/emission_weight"),
            transitions=Parameter(trans.copy(), name="crf/transitions"),
            start_scores=Parameter(start.copy(), name="crf/start_scores"),
        )
        return float(crf_log_likelihood(hs, [2, 0, 1], crf).data)

    shifted = w.copy()
    shifted[:, 1] += 3.7
    assert abs(loglik(shifted) - loglik(w)) < 1e-12


def test_probabilities_sum_to_one():
    import itertools
    rng = default_rng(6)
    crf = make_crf(2, 3, rng)
    hs = rand_hs(2, 3, rng)
    total = sum(np.exp(brute_force_loglik(hs, list(y), crf))
                for y in itertools.product(range(2), repeat=2))
    assert abs(total - 1.0) < 1e-12


def test_probabilities_sum_to_one_with_mask():
    # the finite mask penalty reshapes the distribution but keeps it proper
    import itertools
    scheme = LabelScheme.from_entity_types(("PER",))
    rng = default_rng(7)
    crf = make_crf(scheme.label_count, 3, rng)
    hs = rand_hs(2, 3, rng)
    total = sum(np.exp(float(crf_log_likelihood(hs, list(y), crf, scheme).data))
                for y in itertools.product(range(scheme.label_count), repeat=2))
    assert abs(total - 1.0) < 1e-12


def test_nll_batch_additivity():
    rng = default_rng(8)
    crf = make_crf(3, 4, rng)
    a = (rand_hs(2, 4, rng), [0, 2])
    b = (rand_hs(3, 4, rng), [1, 1, 0])
    la = float(nll_loss([a], crf).data)
    lb = float(nll_loss([b], crf).data)
    lab = float(nll_loss([a, b], crf).data)
    assert abs(lab - (la + lb)) < 1e-12


def test_nll_rejects_empty_batch():
    crf = init_crf_params(2, 3, default_rng(0))
    with pytest.raises(ValueError):
        nll_loss([], crf)


@pytest.mark.parametrize("score", [
    lambda hs, crf: crf_log_likelihood(hs, [], crf),
    lambda hs, crf: viterbi_decode(hs, crf),
    lambda hs, crf: brute_force_loglik(hs, [], crf),
    lambda hs, crf: brute_force_best(hs, crf),
], ids=["loglik", "viterbi", "brute_force_loglik", "brute_force_best"])
def test_crf_rejects_empty_sentence(score):
    crf = make_crf(3, 4, default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        score(Tensor(np.zeros((0, 4))), crf)


def test_loglik_rejects_bad_labels():
    rng = default_rng(9)
    crf = make_crf(3, 4, rng)
    hs = rand_hs(2, 4, rng)
    with pytest.raises(ValueError):
        crf_log_likelihood(hs, [0, 3], crf)      # index out of range
    with pytest.raises(ValueError):
        crf_log_likelihood(hs, [0], crf)         # length mismatch
    # a label that is not an integer is refused, not truncated to one
    for y in ([1.9, 0.2], [1.0, 0], np.array([1.0, 0.0]), [True, False], np.array([True, False])):
        with pytest.raises(ValueError):
            crf_log_likelihood(hs, y, crf)
        with pytest.raises(ValueError):
            brute_force_loglik(hs, y, crf)
    assert float(crf_log_likelihood(hs, np.array([1, 0]), crf).data) == \
        float(crf_log_likelihood(hs, [1, 0], crf).data)


def reference_logsumexp(x, axis):
    m = x.data.max(axis=axis, keepdims=True)
    e = np.exp(x.data - m)
    z = e.sum(axis=axis, keepdims=True)
    return Tensor(np.squeeze(m + np.log(z), axis=axis), (x,),
                  lambda g: x.accumulate(e / z * np.expand_dims(g, axis)))


def reference_log_likelihood(hs, y, crf, scheme=None):
    """The per-character Tensor recursion: a logsumexp, a reshape, two adds and an emission row each step."""
    h = stack_rows(hs)
    tau, label_count = len(h), crf.label_count
    y = np.asarray(y)
    emissions = h @ crf.emission_weight.transpose((1, 0))
    trans, start = crf.transitions, crf.start_scores
    if scheme is not None:
        tmask, smask = scheme.transition_penalties()
        trans, start = trans + tmask, start + smask
    score = emissions[np.arange(tau), y].sum() + start[y[0]] + trans[y[:-1], y[1:]].sum()
    alpha = start + emissions[0]
    for t in range(1, tau):
        alpha = reference_logsumexp(alpha.reshape((label_count, 1)) + trans + emissions[t], axis=0)
    return score - reference_logsumexp(alpha, axis=0)


def _loglik_and_grads(loglik, hs, y, crf, scheme):
    leaves = (list(hs) if isinstance(hs, list) else [hs]) + crf.parameters()
    zero_grads(leaves)
    ll = loglik(hs, y, crf, scheme)
    ll.backward()
    return ll.item(), [p.grad.copy() for p in leaves]


@pytest.mark.parametrize("tau", range(1, 13))
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("rows", [False, True])
def test_loglik_node_matches_per_step_recursion(tau, masked, rows):
    rng = default_rng([tau, masked, rows])
    schemes = {5: LabelScheme.from_entity_types(("PER",)), 9: LabelScheme.from_entity_types(("PER", "LOC"))}
    for label_count in schemes if masked else range(2, 10):
        scheme = schemes[label_count] if masked else None
        d_h = int(rng.integers(1, 8))
        crf = make_crf(label_count, d_h, rng)
        if rows:
            hs = [Parameter(rng.normal(size=d_h), name="h%d" % t) for t in range(tau)]
        else:
            hs = Parameter(rng.normal(size=(tau, d_h)), name="hs")
        y = [int(v) for v in rng.integers(0, label_count, size=tau)]
        if masked and tau > 1:
            # the gold path opens an entity with its end, a transition the mask forbids
            y[tau // 2 - 1:tau // 2 + 1] = [scheme.label_index("O"), scheme.label_index("E-PER")]
            assert not scheme.is_valid_transition("O", "E-PER")
        ll_new, grads_new = _loglik_and_grads(crf_log_likelihood, hs, y, crf, scheme)
        ll_ref, grads_ref = _loglik_and_grads(reference_log_likelihood, hs, y, crf, scheme)
        np.testing.assert_allclose(ll_new, ll_ref, rtol=1e-10, atol=1e-12)
        for g_new, g_ref in zip(grads_new, grads_ref):
            np.testing.assert_allclose(g_new, g_ref, rtol=1e-10, atol=1e-12)


def test_loglik_is_one_graph_node():
    rng = default_rng(15)
    crf = make_crf(9, 4, rng)
    h = Parameter(rng.normal(size=(12, 4)), name="hs")
    ll = crf_log_likelihood(h, [0] * 12, crf, LabelScheme.from_entity_types(("PER", "LOC")))
    assert {id(p) for p in ll._parents} == {id(p) for p in [h] + crf.parameters()}


def test_crf_gradients():
    rng = default_rng(10)
    crf = make_crf(3, 4, rng)
    hs = [Parameter(rng.normal(size=4), name="h%d" % t) for t in range(3)]
    params = list(hs) + crf.parameters()

    def loss():
        return nll_loss([(list(hs), [0, 2, 1])], crf)

    report = grad_check(loss, params, rng=default_rng(11))
    assert report.passed, report.worst()


# ---- Viterbi ----


def test_viterbi_all_zero_ties_to_lowest_label():
    rng = default_rng(0)
    crf = init_crf_params(3, 4, rng)
    crf.emission_weight.data[:] = 0.0
    hs = rand_hs(4, 4, rng)
    assert viterbi_decode(hs, crf) == [0, 0, 0, 0]


def test_viterbi_single_position_is_argmax():
    crf = CrfParams(
        emission_weight=Parameter(np.eye(3), name="crf/emission_weight"),
        transitions=Parameter(np.zeros((3, 3)), name="crf/transitions"),
        start_scores=Parameter(np.array([0.0, 0.1, 0.0]), name="crf/start_scores"),
    )
    hs = [Tensor(np.array([1.0, 2.0, 0.5]))]
    # scores: [1.0, 2.1, 0.5]
    assert viterbi_decode(hs, crf) == [1]


def test_viterbi_transition_dominates():
    # zero emissions, one strong transition: the best path must use it
    crf = CrfParams(
        emission_weight=Parameter(np.zeros((2, 3)), name="crf/emission_weight"),
        transitions=Parameter(np.array([[0.0, 5.0], [0.0, 0.0]]), name="crf/transitions"),
        start_scores=Parameter(np.zeros(2), name="crf/start_scores"),
    )
    hs = rand_hs(2, 3, default_rng(1))
    assert viterbi_decode(hs, crf) == [0, 1]


def test_viterbi_matches_enumeration():
    rng = default_rng(12)
    for _ in range(40):
        tau = int(rng.integers(1, 5))
        label_count = int(rng.integers(2, 5))
        crf = make_crf(label_count, 4, rng)
        hs = rand_hs(tau, 4, rng)
        assert viterbi_decode(hs, crf) == brute_force_best(hs, crf)


def test_viterbi_respects_scheme_mask():
    scheme = LabelScheme.from_entity_types(("PER", "LOC"))
    rng = default_rng(13)
    crf = make_crf(scheme.label_count, 4, rng)
    cases = [(crf, rand_hs(int(rng.integers(1, 6)), 4, rng), scheme) for _ in range(20)]
    # an emission twice the finite likelihood mask would open with M-PER under a -1e4 mask
    per = LabelScheme.from_entity_types(("PER",))
    loud = init_crf_params(per.label_count, 2, rng)
    loud.emission_weight.data[:] = 0.0
    loud.emission_weight.data[per.label_index("M-PER"), 0] = 2e4
    cases.append((loud, [Tensor(np.array(row)) for row in ([1.0, 0.0], [0.0, 1.0], [0.0, 1.0])], per))
    for crf, hs, scheme in cases:
        path = [scheme.labels[i] for i in viterbi_decode(hs, crf, scheme)]
        assert scheme.is_valid_start(path[0])
        for prev, nxt in zip(path, path[1:]):
            assert scheme.is_valid_transition(prev, nxt)


# ---- enumeration guard ----


def test_enumeration_guard_trips():
    rng = default_rng(14)
    crf = make_crf(10, 3, rng)           # 10^6 paths > guard
    hs = rand_hs(6, 3, rng)
    assert 10 ** 6 > ENUMERATION_GUARD
    with pytest.raises(ValueError):
        brute_force_loglik(hs, [0] * 6, crf)
    with pytest.raises(ValueError):
        brute_force_best(hs, crf)
