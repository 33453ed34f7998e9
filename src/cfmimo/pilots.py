"""Pilot assignment, uplink pilot observation, and MMSE channel estimation.

The simulator works directly on the decorrelated per-UE pilot observation
y = sum_{i sharing the pilot} sqrt(tau_p p_i) h_i + noise, which is a sufficient
statistic for the tau_p-symbol pilot block; the full received pilot matrix is
only ever built in test oracles, as are per-UE loops over the pilot slots.

Estimation works on the (O-RU, UE) pairs a step reads and on the (O-RU, pilot
slot) entries those pairs observe: `mmse_filters` sums the pilot Gram Psi and
`observe_pilots` the slot signal of those entries only, each once per entry,
and every pair then reads its entry's. Both add one reuse round at a time
(round r = the r-th UE of every slot), so each entry's and each pair's bits
are those of the all-pairs result. The pilot noise is still drawn for every
(O-RU, slot), so the random stream does not depend on the pairs, but only the
observed entries' rows are kept: it is drawn in chunks of whole draws, and the
kept rows are the buffer the reuse rounds add onto.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import _DRAW_BYTES, _rows, complex_normal_draws
from .errors import ConfigurationError

# Bytes of the temporaries of one gather or add of the pilot stage (`_add_sharers`); larger ones
# are mapped afresh on every call in the forked workers of a desk-scale campaign.
_ADD_BYTES = 1 << 18


def assign_pilots(num_ues: int, tau_p: int) -> np.ndarray:
    """Pilot index per UE: distinct while K <= tau_p, round-robin reuse beyond."""
    if num_ues < 1 or tau_p < 1:
        raise ConfigurationError("num_ues and tau_p must be >= 1")
    return np.arange(num_ues) % tau_p


@dataclass
class PilotConfig:
    """Pilot block length, per-UE pilot index, and per-UE transmit power (mW).

    Derived once from the index: ``slot_of_ue``, each UE's pilot slot (the pilots
    in use numbered 0, 1, ... in ascending order), and ``round_ue``, the
    (rounds, slots) table of reuse rounds: ``round_ue[r, s]`` is the r-th UE on
    slot s in ascending order, or -1 where slot s has fewer than r + 1 UEs.
    """

    tau_p: int
    pilot_index: np.ndarray  # (K,) int in [0, tau_p)
    power_mw: np.ndarray  # (K,) > 0

    @classmethod
    def uniform(cls, num_ues: int, tau_p: int, power_mw: float) -> "PilotConfig":
        return cls(tau_p, assign_pilots(num_ues, tau_p), np.full(num_ues, float(power_mw)))

    def __post_init__(self):
        self.slot_of_ue = np.unique(self.pilot_index, return_inverse=True)[1]
        order = np.argsort(self.slot_of_ue, kind="stable")  # by slot, then by UE
        rank = np.empty_like(order)  # UEs before k on k's slot
        rank[order] = np.arange(order.size) - np.searchsorted(self.slot_of_ue[order], self.slot_of_ue[order])
        self.round_ue = np.full((rank.max() + 1, self.slot_of_ue.max() + 1), -1)
        self.round_ue[rank, self.slot_of_ue] = np.arange(rank.size)
        self._last_entries = None  # the _Entries `_entries` formed last


class _Entries(NamedTuple):
    """The (O-RU, UE) pairs a step reads, the (O-RU, pilot slot) entries they observe and the
    adds that form those entries.

    Entries are ordered by how many UEs share their slot, most first, then by key
    O-RU * slots + slot, so the entries taking part in reuse round r are a prefix of them. The
    adds run round by round: round r's are ``offsets[r]:offsets[r + 1]``, and its i-th add goes
    into entry i.
    """

    shape: tuple  # (L, K)
    orus: np.ndarray  # (P,) the pairs in np.nonzero order
    ues: np.ndarray  # (P,)
    keys: np.ndarray  # (E,) O-RU * slots + slot of each entry
    add_ue: np.ndarray  # (S,) the UE each add takes: the r-th UE on the entry's slot
    add_row: np.ndarray  # (S,) O-RU * K + that UE, its row of an (..., L * K, M) stack
    offsets: list  # rounds + 1 positions in the adds
    of_pair: np.ndarray  # (P,) each pair's entry


def _entries(pilots: PilotConfig, needed: np.ndarray | None, l_num: int, k_num: int) -> _Entries:
    """The entries of an (L, K) ``needed`` map, or of every pair without one.

    A step forms the filters and then the observations of one map, so the
    entries of the last map are kept on ``pilots`` and used again for the
    same pairs.
    """
    orus, ues = np.nonzero(np.ones((l_num, k_num), dtype=bool) if needed is None else needed)
    last = pilots._last_entries
    same_shape = last is not None and last.shape == (l_num, k_num)
    if same_shape and np.array_equal(last.orus, orus) and np.array_equal(last.ues, ues):
        return last
    n_slots = pilots.round_ue.shape[1]
    slots, span = pilots.slot_of_ue[ues], l_num * n_slots
    ues_on_slot = np.bincount(pilots.slot_of_ue)
    ranks = (ues_on_slot.max() - ues_on_slot[slots]) * span + orus * n_slots + slots  # most sharers first
    ranked, of_pair = np.unique(ranks, return_inverse=True)
    keys = ranked % span
    sharers = pilots.round_ue[:, keys % n_slots]  # (rounds, E), -1 past a slot's last UE
    taking_part = sharers >= 0
    add_ue = sharers[taking_part]
    add_row = (keys // n_slots * k_num + sharers)[taking_part]
    offsets = [0] + np.cumsum(np.count_nonzero(taking_part, axis=1)).tolist()
    pilots._last_entries = _Entries((l_num, k_num), orus, ues, keys, add_ue, add_row, offsets, of_pair)
    return pilots._last_entries


def _add_sharers(total: np.ndarray, stack: np.ndarray, weight: np.ndarray, e: _Entries) -> None:
    """Run the adds of ``e``: add weight[s] * stack[..., e.add_row[s], :] into its entry's row of
    ``total``, each entry's adds in ascending rounds.

    ``total`` is (..., E, M), ``stack`` (..., L * K, M) and ``weight`` (S, 1), one per add. Each
    round's adds are gathered in windows whose (..., adds, M) temporaries fit in _ADD_BYTES, read
    as a view where their rows form one run, and each window is one slice add. The adds are
    elementwise, so neither the windows nor the other entries leave a trace in an entry's bits,
    and each (O-RU, UE) row is read at most once.
    """
    width = max(1, _ADD_BYTES // stack[..., 0, :].nbytes)  # adds per window
    for first, end in zip(e.offsets, e.offsets[1:]):  # round r's adds go into entries 0, 1, ...
        for start in range(first, end, width):
            stop = min(end, start + width)
            total[..., start - first : stop - first, :] += weight[start:stop] * _rows(stack, e.add_row[start:stop])


def observe_pilots(
    channels: np.ndarray,
    pilots: PilotConfig,
    sigma2_mw: float,
    rng: np.random.Generator,
    needed: np.ndarray | None = None,
) -> np.ndarray:
    """Decorrelated pilot observations of the ``needed`` (O-RU, UE) pairs.

    ``channels`` has shape (..., L, K, N). Noise with covariance sigma2 * I is
    drawn for every (O-RU, pilot slot), all real parts and then all imaginary
    parts, so UEs sharing a pilot see the same noise vector and the random
    stream does not depend on ``needed``. Only the rows of the (O-RU, slot)
    entries the needed pairs observe are kept (`complex_normal_draws`), and the
    signal is formed on them: each reuse round adds sqrt(tau_p p_i) h_{l,i} of
    its UE i on the slot (`_add_sharers`), so no entry's signal depends on the
    other entries. Each pair then reads its entry. With an (L, K) bool map
    ``needed`` the result is (..., P, N) in the order of ``np.nonzero(needed)``;
    without, (..., L, K, N).
    """
    channels = np.asarray(channels)
    lead, (l_num, k_num, n) = channels.shape[:-3], channels.shape[-3:]
    e = _entries(pilots, needed, l_num, k_num)
    slot_rows = (l_num * pilots.round_ue.shape[1], n)
    received = complex_normal_draws(lead + slot_rows, rng, np.sqrt(sigma2_mw / 2.0), e.keys)
    scale = np.sqrt(pilots.tau_p * pilots.power_mw).astype(complex)  # cast once, not per add
    _add_sharers(received, channels.reshape(lead + (l_num * k_num, n)), scale[e.add_ue, None], e)
    received = _rows(received, e.of_pair)
    return received if needed is not None else received.reshape(channels.shape)


def mmse_filters(cov: np.ndarray, pilots: PilotConfig, sigma2_mw: float, needed: np.ndarray | None = None):
    """Per-(O-RU, UE) MMSE filters and error covariances.

    ``cov`` is the (L, K, N, N) covariance stack. Returns (filters, error_covs):
    h_hat = filters[l, k] @ y[l, k]. Without ``needed`` both are (L, K, N, N);
    with an (L, K) bool map ``needed`` only its pairs are solved, and both are
    (P, N, N) stacks in the order of ``np.nonzero(needed)``. The regularized
    pilot Gram matrix is shared by all UEs on one pilot slot, so it is built
    for the E (O-RU, slot) entries the pairs observe, as one (E, N, N) stack:
    each entry adds its slot's UEs one reuse round at a time, in ascending
    order, then sigma2 I. Each pair is then solved alone, so its bits do not
    depend on which other pairs are solved.

    The estimate is sqrt(tau_p p_k) R Psi^{-1} y with
    Psi = sum_i tau_p p_i R_i + sigma2 I over the UEs sharing k's pilot, and
    the error covariance is R - tau_p p_k R Psi^{-1} R.
    """
    l_num, k_num, n, _ = cov.shape
    e = _entries(pilots, needed, l_num, k_num)
    gram = np.zeros((e.keys.size, n, n), dtype=complex)
    weight = (pilots.tau_p * pilots.power_mw)[e.add_ue, None]
    _add_sharers(gram.reshape(-1, n * n), cov.reshape(l_num * k_num, n * n), weight, e)
    gram += sigma2_mw * np.eye(n)
    pair_cov = cov[e.orus, e.ues]
    solved = np.linalg.solve(gram[e.of_pair], pair_cov)  # Psi^{-1} R per pair
    amplitude = np.sqrt(pilots.tau_p * pilots.power_mw[e.ues])[:, None, None]
    filters = amplitude * solved.conj().swapaxes(-1, -2)
    error_covs = pair_cov - amplitude * filters @ pair_cov
    error_covs = 0.5 * (error_covs + error_covs.conj().swapaxes(-1, -2))
    if needed is None:
        return filters.reshape(cov.shape), error_covs.reshape(cov.shape)
    return filters, error_covs


def apply_filters(filters: np.ndarray, observations: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Batched h_hat = W y over the leading draw axis: (L,K,N,N) x (d,L,K,N), or
    (P,N,N) x (d,P,N) for P gathered pairs; each pair is one matrix-vector product.

    The draws are filtered a block of about _DRAW_BYTES at a time through one
    block-sized buffer into ``out`` (a fresh array by default), which may be
    ``observations`` itself: each block is read whole before it is written. A
    product reads its own pair and draw only, so no bit depends on the block.
    """
    out = np.empty(observations.shape, dtype=complex) if out is None else out
    per_block = max(1, _DRAW_BYTES // max(1, observations[:1].nbytes))
    buffer = np.empty((min(per_block, len(observations)),) + observations.shape[1:] + (1,), dtype=complex)
    for start in range(0, len(observations), per_block):
        block = observations[start : start + per_block, ..., None]
        np.matmul(filters, block, out=buffer[: len(block)])
        out[start : start + per_block] = buffer[: len(block), ..., 0]
    return out
