"""Table II — predictor quality for different regularization weights α.

Trains one predictor per α value on the same synthetic corpus and
evaluates accuracy and per-class precision/recall on a held-out split of
synthetic designs, exactly as §V "Target predictor selection" describes.

Paper values for reference (accuracy %): α=0.01 → 96.5, 0.05 → 93.8,
0.10 → 98.0, 0.15 → 95.6, 0.20 → 96.7, 0.25 → 97.7; α=0.10 is selected.
The sweep here uses a reduced corpus/epoch budget per α so the whole
table regenerates in a few minutes; the expected *shape* is that all α
perform similarly (within a few points) with 0.10 among the best.

The held-out split is grouped at the *design* level
(``split_by_design=True``, matching ``VeriBugSession.train``): a sample-level
split leaks near-duplicate executions of every test statement into
training and inflates the table.  Expect accuracies a few points below
the historical sample-level numbers — the committed paper-scale fixture
measures 95.0% train / 89.8% held-out under the grouped split (see
docs/architecture.md "Train/test split").
"""

from repro.core import BatchEncoder, Trainer, VeriBugConfig, VeriBugModel, Vocabulary
from repro.api import generate_corpus
from repro.pipeline import CorpusSpec
from repro.core.features import train_test_split

ALPHAS = (0.01, 0.05, 0.10, 0.15, 0.20, 0.25)
PAPER_ACCURACY = {0.01: 96.5, 0.05: 93.8, 0.10: 98.0, 0.15: 95.6, 0.20: 96.7, 0.25: 97.7}

#: Reduced budget per α point (6 trainings in one table).
SWEEP_EPOCHS = 20
# Enough designs that ~10 remain on the training side after the grouped
# design-level holdout.
SWEEP_CORPUS = CorpusSpec(n_designs=13, n_traces_per_design=3, n_cycles=20)


def run_alpha_point(alpha: float, samples_split):
    train_samples, test_samples = samples_split
    config = VeriBugConfig(epochs=SWEEP_EPOCHS, alpha=alpha)
    vocab = Vocabulary()
    model = VeriBugModel(config, vocab)
    trainer = Trainer(model, BatchEncoder(vocab), config)
    trainer.train(train_samples)
    return trainer.evaluate(test_samples)


def test_table2_alpha_sweep(benchmark):
    samples = generate_corpus(SWEEP_CORPUS, seed=7)
    split = train_test_split(samples, 0.25, seed=7, split_by_design=True)

    results = {}

    def sweep():
        for alpha in ALPHAS:
            results[alpha] = run_alpha_point(alpha, split)
        return results

    benchmark.pedantic(sweep, rounds=1, iterations=1)

    print()
    print("TABLE II: test-set results for different alpha weighting factors")
    print(
        f"{'alpha':>6} {'Acc.(%)':>8} {'Pr/Re (0)':>11} {'Pr/Re (1)':>11}"
        f" {'paper Acc.':>11}"
    )
    print("-" * 54)
    best = max(results, key=lambda a: results[a].accuracy)
    for alpha in ALPHAS:
        m = results[alpha]
        tag = "  <-- selected" if alpha == 0.10 else ""
        print(
            f"{alpha:>6.2f} {m.accuracy * 100:>8.1f}"
            f" {m.precision[0]:>5.2f}/{m.recall[0]:.2f}"
            f" {m.precision[1]:>5.2f}/{m.recall[1]:.2f}"
            f" {PAPER_ACCURACY[alpha]:>11.1f}{tag}"
        )
    print(f"best measured alpha: {best:.2f}")
    # Shape check: every predictor must be well above chance.
    assert all(m.accuracy > 0.80 for m in results.values())
