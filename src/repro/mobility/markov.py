"""Markov mobility model with Laplace smoothing (paper, §IV-B).

The paper models each user's mobility as a first-order Markov process over
the locations she frequents, learns the transition matrix by maximum
likelihood from the trace, and smooths it for data sparsity:

    ``P_ij = x_ij / (x_i + l)``

where ``x_ij`` counts observed ``i → j`` transitions, ``x_i = Σ_k x_ik`` and
``l`` is the number of locations.  Note the paper's formula, taken literally,
leaves zero probability on unseen transitions (the add-one numerator of
standard Laplace smoothing is missing) and rows do not sum to one.  We
implement three variants:

* ``"laplace"`` (default) — standard add-one smoothing
  ``(x_ij + 1)/(x_i + l)``: proper distribution, no zero entries;
* ``"paper"`` — the paper's literal formula (kept for fidelity and compared
  in ``benchmarks/bench_ablation_smoothing.py``);
* ``"mle"`` — raw ``x_ij / x_i`` (uniform when a row has no observations).

The learned model supplies everything downstream: next-location prediction
(Figure 3), the predicted-PoS distribution (Figure 4), and the per-user PoS
profile the workload generator turns into auction bids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from ..core.errors import ValidationError
from .markov_kernel import FleetCounts, SequenceChunk, fit_fleet

__all__ = ["Smoothing", "TaxiModel", "MarkovMobilityModel"]

Smoothing = Literal["laplace", "paper", "mle"]


@dataclass(frozen=True)
class TaxiModel:
    """One taxi's fitted model: visited locations and transition counts."""

    taxi_id: int
    locations: tuple[int, ...]
    counts: np.ndarray = field(repr=False)

    @property
    def n_locations(self) -> int:
        return len(self.locations)

    def index_of(self, cell: int) -> int | None:
        try:
            return self.locations.index(cell)
        except ValueError:
            return None


class MarkovMobilityModel:
    """Per-taxi first-order Markov models fitted from location sequences.

    Args:
        smoothing: Which estimator to use for transition probabilities (see
            module docstring).

    Fit with :meth:`fit` (or construct via :meth:`from_sequences`), then
    query :meth:`transition_probs`, :meth:`predict_top` and
    :meth:`pos_profile`.
    """

    def __init__(self, smoothing: Smoothing = "laplace"):
        if smoothing not in ("laplace", "paper", "mle"):
            raise ValidationError(f"unknown smoothing {smoothing!r}")
        self.smoothing: Smoothing = smoothing
        self._models: dict[int, TaxiModel] = {}
        self._fleet_cache: FleetCounts | None = None

    @classmethod
    def from_sequences(
        cls,
        sequences: Mapping[int, Sequence[int]],
        smoothing: Smoothing = "laplace",
    ) -> "MarkovMobilityModel":
        model = cls(smoothing=smoothing)
        model.fit(sequences)
        return model

    @classmethod
    def from_sequences_reference(
        cls,
        sequences: Mapping[int, Sequence[int]],
        smoothing: Smoothing = "laplace",
    ) -> "MarkovMobilityModel":
        """The per-taxi fit: the parity oracle of :meth:`from_sequences`.

        One Python loop per taxi instead of one array pass over the fleet;
        counts are integers, so the two models are identical.  No run path
        calls it; the parity tests and the workload benchmark's baseline
        do.
        """
        model = cls(smoothing=smoothing)
        for taxi_id, sequence in sequences.items():
            if len(sequence) < 2:
                continue  # nothing to learn from a single observation
            locations = tuple(sorted(set(sequence)))
            index = {cell: i for i, cell in enumerate(locations)}
            counts = np.zeros((len(locations), len(locations)))
            for current, following in zip(sequence, sequence[1:]):
                counts[index[current], index[following]] += 1.0
            model._models[taxi_id] = TaxiModel(
                taxi_id=taxi_id, locations=locations, counts=counts
            )
        return model

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #

    def fit(self, sequences: Mapping[int, Sequence[int]]) -> "MarkovMobilityModel":
        """Fit one model per taxi from its time-ordered cell sequence.

        The whole fleet is counted in one array pass
        (:func:`repro.mobility.markov_kernel.fit_fleet`).

        Args:
            sequences: ``taxi_id -> time-ordered cell sequence``.  Taxis
                with fewer than two observations are skipped.
        """
        self._models = {}
        fleet = fit_fleet(SequenceChunk.from_mapping(sequences))
        # The fitted arrays ARE the fleet-counts structure — cache them
        # (row-sorted) so fleet_counts() never re-packs 10^5 TaxiModels.
        self._fleet_cache = fleet.sorted_by_taxi()
        cells_list = fleet.loc_cells.tolist()
        loc_ptr = fleet.loc_indptr.tolist()
        sq_ptr = fleet.sq_indptr.tolist()
        counts_flat = fleet.counts_flat
        for row, taxi_id in enumerate(fleet.taxi_ids.tolist()):
            a, b = loc_ptr[row], loc_ptr[row + 1]
            l = b - a
            self._models[taxi_id] = TaxiModel(
                taxi_id=taxi_id,
                locations=tuple(cells_list[a:b]),
                counts=counts_flat[sq_ptr[row] : sq_ptr[row + 1]]
                .reshape(l, l)
                .copy(),
            )
        return self

    def fleet_counts(self) -> FleetCounts:
        """The fitted fleet as one flat array structure, rows sorted by taxi id.

        Built lazily from the per-taxi models and cached; the batched
        profile/prediction kernels consume this instead of re-entering
        Python per taxi.
        """
        if self._fleet_cache is None:
            self._fleet_cache = FleetCounts.from_models(self._models)
        return self._fleet_cache

    @property
    def taxi_ids(self) -> tuple[int, ...]:
        return tuple(sorted(self._models))

    def model_for(self, taxi_id: int) -> TaxiModel:
        if taxi_id not in self._models:
            raise KeyError(f"no fitted model for taxi {taxi_id}")
        return self._models[taxi_id]

    def known_locations(self, taxi_id: int) -> tuple[int, ...]:
        return self.model_for(taxi_id).locations

    # ------------------------------------------------------------------ #
    # Probability estimates
    # ------------------------------------------------------------------ #

    def _row(self, model: TaxiModel, row_index: int) -> np.ndarray:
        counts = model.counts[row_index]
        total = counts.sum()
        l = model.n_locations
        if self.smoothing == "laplace":
            return (counts + 1.0) / (total + l)
        if self.smoothing == "paper":
            return counts / (total + l)
        # MLE: uniform when the row was never observed.
        if total == 0:
            return np.full(l, 1.0 / l)
        return counts / total

    def transition_matrix(self, taxi_id: int) -> np.ndarray:
        """The full smoothed transition matrix (rows = current location)."""
        model = self.model_for(taxi_id)
        return np.vstack([self._row(model, i) for i in range(model.n_locations)])

    def transition_probs(self, taxi_id: int, current_cell: int) -> dict[int, float]:
        """P(next = · | current), as a cell -> probability map.

        An unseen ``current_cell`` yields the uniform distribution over the
        taxi's known locations (we know nothing about where she goes next).
        """
        model = self.model_for(taxi_id)
        row_index = model.index_of(current_cell)
        if row_index is None:
            uniform = 1.0 / model.n_locations
            return {cell: uniform for cell in model.locations}
        row = self._row(model, row_index)
        return {cell: float(p) for cell, p in zip(model.locations, row)}

    def transition_prob(self, taxi_id: int, current_cell: int, next_cell: int) -> float:
        """Single transition probability (0 for locations the taxi never visits)."""
        return self.transition_probs(taxi_id, current_cell).get(next_cell, 0.0)

    # ------------------------------------------------------------------ #
    # Prediction / PoS
    # ------------------------------------------------------------------ #

    def predict_top(self, taxi_id: int, current_cell: int, m: int) -> list[int]:
        """The ``m`` most likely next locations (paper's Figure 3 predictor).

        Ties are broken by cell id for determinism.
        """
        if m <= 0:
            raise ValidationError(f"m must be positive, got {m!r}")
        probs = self.transition_probs(taxi_id, current_cell)
        ranked = sorted(probs.items(), key=lambda item: (-item[1], item[0]))
        return [cell for cell, _ in ranked[:m]]

    def pos_profile(self, taxi_id: int, current_cell: int) -> dict[int, float]:
        """The predicted PoS for every candidate task location.

        In opportunistic sensing the PoS of a task at cell ``c`` is the
        probability the taxi passes through ``c`` in the next time slot —
        exactly the transition probability (paper, §II).
        """
        return self.transition_probs(taxi_id, current_cell)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict:
        """The fitted model as a JSON-ready dict (counts, not probabilities).

        Counts are stored rather than probabilities so a reloaded model can
        switch smoothing estimators and keep absorbing new observations.
        """
        return {
            "schema": 1,
            "kind": "markov_mobility_model",
            "smoothing": self.smoothing,
            "taxis": {
                str(taxi_id): {
                    "locations": list(model.locations),
                    "counts": model.counts.tolist(),
                }
                for taxi_id, model in self._models.items()
            },
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MarkovMobilityModel":
        """Rebuild a fitted model saved by :meth:`to_dict`."""
        if payload.get("schema") != 1 or payload.get("kind") != "markov_mobility_model":
            raise ValidationError(
                f"unsupported model payload: schema={payload.get('schema')!r}, "
                f"kind={payload.get('kind')!r}"
            )
        model = cls(smoothing=payload["smoothing"])
        for taxi_key, data in payload["taxis"].items():
            locations = tuple(int(c) for c in data["locations"])
            counts = np.asarray(data["counts"], dtype=float)
            if counts.shape != (len(locations), len(locations)):
                raise ValidationError(
                    f"taxi {taxi_key}: counts shape {counts.shape} does not "
                    f"match {len(locations)} locations"
                )
            if (counts < 0).any():
                raise ValidationError(f"taxi {taxi_key}: negative counts")
            model._models[int(taxi_key)] = TaxiModel(
                taxi_id=int(taxi_key), locations=locations, counts=counts
            )
        return model

    def save(self, path) -> None:
        """Write the fitted model to a JSON file."""
        import json

        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle)

    @classmethod
    def load(cls, path) -> "MarkovMobilityModel":
        """Read a fitted model back from a JSON file."""
        import json

        with open(path) as handle:
            return cls.from_dict(json.load(handle))

    def reach_profile(
        self, taxi_id: int, current_cell: int, horizon: int
    ) -> dict[int, float]:
        """P(visit each location within ``horizon`` steps | current location).

        The multi-slot generalisation of :meth:`pos_profile`: a sensing
        campaign usually spans a time window, and the probability that an
        opportunistic user passes through a task's cell during the window is
        the chain's hitting probability within ``horizon`` steps.  With
        ``horizon=1`` this reduces exactly to the one-step profile.

        Computed by the standard first-hit dynamic program: for target ``j``,
        ``v_{t+1}(s) = P(s→j) + Σ_{s'≠j} P(s→s')·v_t(s')`` with ``v_0 = 0``.

        An unseen ``current_cell`` falls back to averaging the reach
        probabilities over all starting locations (mirroring the uniform
        fallback of :meth:`transition_probs`).
        """
        if horizon <= 0:
            raise ValidationError(f"horizon must be positive, got {horizon!r}")
        model = self.model_for(taxi_id)
        l = model.n_locations
        matrix = self.transition_matrix(taxi_id)
        # hit[t][s, j]: P(visit j within t steps from s).  Vectorised over j:
        # v_{t+1} = P @ v_t with column j's self-transition redirected so a
        # visit absorbs.  Equivalent formulation: v_{t+1} = P_col_j + P_noj v_t
        # done for all j at once by masking.
        hit = matrix.copy()  # t = 1: one-step probabilities
        for _ in range(horizon - 1):
            # For target j, transitions INTO j absorb: contribution P[s, j];
            # otherwise continue with v_t.  Column-wise:
            # v'[s, j] = P[s, j] + sum_{s' != j} P[s, s'] * v[s', j]
            continuation = matrix @ hit  # includes s' == j terms
            correction = matrix * np.diag(hit)[None, :]  # P[s, j] * v[j, j]
            hit = matrix + continuation - correction
        row_index = model.index_of(current_cell)
        if row_index is None:
            values = hit.mean(axis=0)
        else:
            values = hit[row_index]
        return {
            cell: float(min(1.0, values[k])) for k, cell in enumerate(model.locations)
        }
