"""Task harnesses and metrics: link prediction, node clustering, classification."""

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.stats import rankdata

from .decoder import edge_probabilities
from .graph_data import sorted_lookup
from .stochastic import RngStream, _gen

_KMEANS_RESTARTS = 10  # k-means++ runs, the lowest inertia kept


@dataclass
class MetricsReport:
    """Per-task metric values, the seeds they came from and the wall time."""

    task: str
    values: dict
    seeds: list = field(default_factory=list)
    wall_time: float = 0.0

    def to_json(self):
        return json.dumps(asdict(self))

    def table(self):
        lines = [f"task: {self.task}"]
        lines += [f"  {name:>10}: {val:.4f}" for name, val in self.values.items()]
        lines.append(f"  wall_time: {self.wall_time:.1f}s")
        return "\n".join(lines)


def auc_ap(scores, labels):
    """Ranking metrics for binary labels: (AUC, AP).

    AUC uses the midrank statistic (ties share average rank); AP is the area
    under the precision-recall curve with step interpolation, tied scores
    processed as one threshold group.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("need at least one positive and one negative label")

    ranks = rankdata(scores, method="average")
    auc = (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)

    order = np.argsort(-scores, kind="stable")
    s_sorted, y_sorted = scores[order], labels[order]
    boundary = np.flatnonzero(np.diff(s_sorted) != 0)
    group_ends = np.concatenate([boundary, [len(s_sorted) - 1]])
    tp = np.cumsum(y_sorted)[group_ends]
    n_seen = group_ends + 1.0
    precision = tp / n_seen
    recall = tp / n_pos
    prev_recall = np.concatenate([[0.0], recall[:-1]])
    ap = float(np.sum((recall - prev_recall) * precision))
    return float(auc), ap


def _kmeans_once(points, k, rng):
    """k-means++ seeding plus Lloyd iterations; returns (labels, inertia)."""
    g = _gen(rng)
    n = len(points)
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[g.integers(n)]
    closest = np.full(n, np.inf)
    for c in range(1, k):
        d = np.sum((points - centers[c - 1]) ** 2, axis=1)
        closest = np.minimum(closest, d)
        total = closest.sum()
        if total <= 0:
            centers[c:] = points[g.integers(n, size=k - c)]
            break
        centers[c] = points[g.choice(n, p=closest / total)]
    assign = None
    for _ in range(300):
        dists = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_assign = dists.argmin(axis=1)
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for c in range(k):
            members = points[assign == c]
            if len(members) == 0:
                return None, np.inf  # empty cluster: caller restarts
            centers[c] = members.mean(axis=0)
    inertia = float(((points - centers[assign]) ** 2).sum())
    return assign, inertia


def kmeans(points, k, seed):
    """Best of several k-means++ runs; empty-cluster runs are redrawn."""
    points = np.asarray(points, dtype=np.float64)
    best, best_inertia = None, np.inf
    rng = RngStream(seed, (21,))
    attempt = 0
    done = 0
    while done < _KMEANS_RESTARTS:
        assign, inertia = _kmeans_once(points, k, rng.derive(attempt))
        attempt += 1
        if assign is None:
            if attempt > 20 * _KMEANS_RESTARTS:
                raise RuntimeError("k-means kept producing empty clusters")
            continue
        done += 1
        if inertia < best_inertia:
            best, best_inertia = assign, inertia
    return best


def clustering_accuracy(pred, truth):
    """Accuracy under the optimal cluster-to-class matching (Hungarian)."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    k = max(pred.max(), truth.max()) + 1
    contingency = np.zeros((k, k), dtype=np.int64)
    np.add.at(contingency, (pred, truth), 1)
    rows, cols = linear_sum_assignment(-contingency)
    return contingency[rows, cols].sum() / len(pred)


def normalized_mutual_information(a, b):
    """NMI with arithmetic-mean normalization; 0 when either side is trivial."""
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = len(a)
    ka, kb = a.max() + 1, b.max() + 1
    joint = np.zeros((ka, kb))
    np.add.at(joint, (a, b), 1.0)
    joint /= n
    pa, pb = joint.sum(axis=1), joint.sum(axis=0)
    nz = joint > 0
    mi = float(np.sum(joint[nz] * np.log(joint[nz] / (pa[:, None] * pb[None, :])[nz])))
    ha = -float(np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = -float(np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    denom = 0.5 * (ha + hb)
    return mi / denom if denom > 0 else 0.0


def cluster_nodes(representations, num_clusters, labels, seed):
    """K-means on (concatenated) latent representations, scored against labels."""
    if num_clusters < 2:
        raise ValueError("need at least two clusters")
    reps = np.asarray(representations, dtype=np.float64)
    if not np.all(np.isfinite(reps)):
        raise ValueError("non-finite representations")
    start = time.perf_counter()
    pred = kmeans(reps, num_clusters, seed)
    acc = clustering_accuracy(pred, labels)
    nmi = normalized_mutual_information(pred, labels)
    return MetricsReport(
        "node-clustering",
        {"acc": float(acc), "nmi": float(nmi)},
        seeds=[seed],
        wall_time=time.perf_counter() - start,
    )


def link_prediction_eval(us, theta_means, split, which="test"):
    """AUC/AP over held-out edges vs sampled non-edges.

    Raises if a held-out edge leaked into the training graph.
    """
    start = time.perf_counter()
    edges = split.test_edges if which == "test" else split.val_edges
    nonedges = split.test_nonedges if which == "test" else split.val_nonedges
    train_keys = split.train.edges[:, 0] * split.train.num_nodes + split.train.edges[:, 1]
    if np.any(train_keys[1:] < train_keys[:-1]):
        train_keys = np.sort(train_keys)
    held_keys = edges[:, 0] * split.train.num_nodes + edges[:, 1]
    if np.any(sorted_lookup(train_keys, held_keys)[1]):
        raise ValueError("split leakage: held-out edge present in the training graph")
    pairs = np.vstack([edges, nonedges])
    labels = np.concatenate([np.ones(len(edges), int), np.zeros(len(nonedges), int)])
    scores = edge_probabilities(us, [m.T for m in theta_means], pairs)
    auc, ap = auc_ap(scores, labels)
    return MetricsReport(
        f"link-prediction[{which}]",
        {"auc": auc, "ap": ap},
        seeds=[split.seed],
        wall_time=time.perf_counter() - start,
    )


def classify_nodes(logits, labels, test_idx):
    """Held-out accuracy of the classifier head (argmax of the logits)."""
    labels = np.asarray(labels, dtype=np.int64)
    test_idx = np.asarray(test_idx, dtype=np.int64)
    if np.any(labels[test_idx] < 0):
        raise ValueError("missing label in the evaluation set")
    start = time.perf_counter()
    pred = np.asarray(logits).argmax(axis=1)
    acc = float(np.mean(pred[test_idx] == labels[test_idx]))
    return MetricsReport(
        "node-classification", {"accuracy": acc}, wall_time=time.perf_counter() - start
    )
