"""Mini-batch SGD trainer for the numpy CNN.

Mirrors the paper's per-candidate training protocol (a short, fixed-epoch
training run followed by test-set evaluation) at a scale a CPU can handle:
small synthetic images instead of CIFAR-10 and a handful of epochs.  The
trainer also powers :class:`TrainedAccuracyEvaluator`, a drop-in alternative
to the analytic accuracy surrogate for small search spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.accuracy.dataset import SyntheticImageDataset
from repro.accuracy.network import NumpyCNN
from repro.accuracy.surrogate import AccuracyModel
from repro.nn.architecture import Architecture
from repro.utils.rng import SeedLike, ensure_rng
from repro.utils.validation import require_positive


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    losses: List[float] = field(default_factory=list)
    train_errors: List[float] = field(default_factory=list)
    test_errors: List[float] = field(default_factory=list)

    @property
    def final_test_error(self) -> float:
        """Test error (percent) after the last epoch."""
        if not self.test_errors:
            raise ValueError("no epochs were recorded")
        return self.test_errors[-1]

    def to_dict(self) -> Dict:
        return {
            "losses": self.losses,
            "train_errors": self.train_errors,
            "test_errors": self.test_errors,
        }


class SGDTrainer:
    """Stochastic gradient descent with momentum.

    Parameters
    ----------
    learning_rate / momentum / weight_decay:
        Optimiser hyperparameters.
    batch_size / epochs:
        Training schedule.
    clip_norm:
        Global gradient-norm clipping threshold; 0 disables clipping.  Small
        networks trained at high learning rates occasionally see exploding
        gradients, and clipping keeps the short training runs stable.
    """

    def __init__(
        self,
        learning_rate: float = 0.05,
        momentum: float = 0.9,
        weight_decay: float = 1e-4,
        batch_size: int = 32,
        epochs: int = 5,
        clip_norm: float = 5.0,
        seed: SeedLike = 0,
    ):
        require_positive(learning_rate, "learning_rate")
        if not (0.0 <= momentum < 1.0):
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        require_positive(batch_size, "batch_size")
        require_positive(epochs, "epochs")
        if clip_norm < 0:
            raise ValueError(f"clip_norm must be >= 0, got {clip_norm}")
        self.learning_rate = float(learning_rate)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self.batch_size = int(batch_size)
        self.epochs = int(epochs)
        self.clip_norm = float(clip_norm)
        self._rng = ensure_rng(seed)

    def _clip_gradients(self, network: NumpyCNN) -> None:
        if self.clip_norm <= 0:
            return
        total = 0.0
        for layer, name in network.parameters():
            total += float(np.sum(layer.grads[name] ** 2))
        norm = np.sqrt(total)
        if norm > self.clip_norm:
            scale = self.clip_norm / (norm + 1e-12)
            for layer, name in network.parameters():
                layer.grads[name] *= scale

    def fit(self, network: NumpyCNN, dataset: SyntheticImageDataset) -> TrainingHistory:
        """Train the network in place and return the per-epoch history."""
        velocities = {
            (id(layer), name): np.zeros_like(layer.params[name])
            for layer, name in network.parameters()
        }
        history = TrainingHistory()
        for _ in range(self.epochs):
            epoch_losses: List[float] = []
            for images, labels in dataset.batches(self.batch_size, rng=self._rng):
                loss = network.loss_and_gradients(images, labels)
                epoch_losses.append(loss)
                self._clip_gradients(network)
                for layer, name in network.parameters():
                    grad = layer.grads[name] + self.weight_decay * layer.params[name]
                    key = (id(layer), name)
                    velocities[key] = (
                        self.momentum * velocities[key] - self.learning_rate * grad
                    )
                    layer.params[name] += velocities[key]
            history.losses.append(float(np.mean(epoch_losses)))
            history.train_errors.append(
                network.error_rate(dataset.train_images, dataset.train_labels)
            )
            history.test_errors.append(
                network.error_rate(dataset.test_images, dataset.test_labels)
            )
        return history


class TrainedAccuracyEvaluator(AccuracyModel):
    """Accuracy model that actually trains each candidate on synthetic data.

    An :class:`~repro.accuracy.surrogate.AccuracyModel` like the analytic
    surrogate, so it can be plugged directly into the LENS search for very
    small studies.  Each call builds a :class:`NumpyCNN` for the candidate
    (using the dataset's image shape), trains it with :class:`SGDTrainer`
    and returns the final test error; a pool trains its candidates one by
    one, in pool order, so the shared random stream advances as it would
    for single calls.
    """

    def __init__(
        self,
        dataset: Optional[SyntheticImageDataset] = None,
        trainer: Optional[SGDTrainer] = None,
        seed: SeedLike = 0,
    ):
        self._rng = ensure_rng(seed)
        self.dataset = dataset or SyntheticImageDataset.generate(seed=self._rng)
        self.trainer = trainer or SGDTrainer(epochs=3, seed=self._rng)

    def error_percent(self, architecture: Architecture) -> float:
        """Train the candidate and return its test error in percent."""
        if tuple(architecture.input_shape) != tuple(self.dataset.image_shape):
            raise ValueError(
                f"architecture input shape {architecture.input_shape} does not match "
                f"the dataset image shape {self.dataset.image_shape}"
            )
        network = NumpyCNN(architecture, seed=self._rng)
        history = self.trainer.fit(network, self.dataset)
        return history.final_test_error
