"""Corpora, seeded traffic, deployments and closed-loop clients.

Three workloads, all driven over real HTTP from this process:

``rank-single``
    The ``repro serve`` default deployment (``ServiceApp`` behind
    ``ReproServer``, warmed, sharded bound-pruned index on) over a 100k-bag
    clustered corpus.  Two clients each keep one HTTP/1.1 connection open
    and send wire-concept ``rank`` requests.
``rank-pool``
    The same corpus and the same traffic against ``repro serve --workers 2``
    (``WorkerPool.from_service`` + ``WorkerDispatchApp``, scatter on), so
    the difference from ``rank-single`` is the cost of the pool.
``interactive``
    The paper's relevance-feedback loop over the scene database: two users,
    each through ``ReproClient`` (one connection per request), run sessions
    of one stateless ``query`` and two ``feedback`` rounds.

The corpus is fixed; ``--seed`` only chooses the traffic.  A second seed
gives different requests with the same shape: the same operation mix,
example counts and concept-family shares, exact per block of requests.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import quick_database
from repro.api.query import Query
from repro.api.service import RetrievalService
from repro.core.concept import LearnedConcept
from repro.datasets.synth import ScenarioConfig, corpus_from_config, feature_center
from repro.errors import ReproError
from repro.serve import codec
from repro.serve.app import ServiceApp
from repro.serve.http import ReproClient, ReproServer
from repro.serve.sessions import SessionStore
from repro.serve.workers import WorkerDispatchApp, WorkerPool

N_CLIENTS = 2
CLIENT_TIMEOUT_S = 30.0

# The clustered corpus of benchmarks/bench_serve_workers.py: 64 tight
# clusters, the regime the serving rank index exists for.
N_BAGS = 100_000
N_CLUSTERS = 64
N_DIMS = 16
INSTANCES_PER_BAG = 6
CORPUS_SEED = 11
TOP_K = 50
N_WORKERS = 2

#: Concept families per block of ten rank requests: mostly cluster-centred
#: (selective: the index leaves ~4% of bags to evaluate), one jittered
#: global-centroid concept (bench_rank_ann.unselective_concept) and one
#: random point inside the clusters' bounding box.
RANK_BLOCK = ("cluster",) * 8 + ("centroid", "random")
#: Blocks per client.  Each client cycles through its own distinct concepts,
#: so the exhaustive oracle costs a fixed amount however fast the server is.
RANK_BLOCKS_PER_CLIENT = 6
N_WARM_RANKS = 8

# The scene database of the paper pipeline: 5 categories x 20 images,
# 40 region instances per bag.
SCENE_IMAGES_PER_CATEGORY = 20
SCENE_SIZE = (64, 64)
#: The last images of each category are reserved for warm-up, so warm-up
#: example sets never occur in timed traffic.
N_WARM_IMAGES = 2
#: ``identical`` keeps a fit well under a second (the ``inequality``
#: default takes minutes on this database).
DD_PARAMS = {"scheme": "identical"}
#: The last session in each block of four starts from the run's popular
#: example set, so the concept cache sees repeated example sets.
SESSION_BLOCK = ("fresh", "fresh", "fresh", "popular")
SESSIONS_PER_USER = 64
FEEDBACK_ROUNDS = 2

RANK_HEADERS = {"Content-Type": "application/json"}
#: Memory sampling period; short enough to catch the transient per-request
#: buffers of the shard scan, which otherwise show in some runs only.
RSS_SAMPLE_S = 0.05


@dataclass
class Op:
    """One timed request as the client saw it."""

    kind: str
    client: int
    started: float
    finished: float
    ok: bool
    reply: object = None
    key: object = None

    @property
    def latency_ms(self) -> float:
        return (self.finished - self.started) * 1000.0


# ---------------------------------------------------------------------- #
# Corpora                                                                 #
# ---------------------------------------------------------------------- #


def clustered_config() -> ScenarioConfig:
    return ScenarioConfig(
        name="bench-clusters",
        mode="feature",
        categories=tuple(f"cluster-{c:02d}" for c in range(N_CLUSTERS)),
        bags_per_category=1,
        seed=CORPUS_SEED,
        feature_dims=N_DIMS,
        instances_per_bag=INSTANCES_PER_BAG,
        cluster_spread=0.05,
    ).with_total_bags(N_BAGS)


def scene_database():
    return quick_database(
        "scenes",
        images_per_category=SCENE_IMAGES_PER_CATEGORY,
        size=SCENE_SIZE,
    )


# ---------------------------------------------------------------------- #
# Traffic                                                                 #
# ---------------------------------------------------------------------- #


class RankTraffic:
    """Seeded wire-concept rank requests, one stream per client."""

    def __init__(self, seed: int) -> None:
        config = clustered_config()
        centers = np.stack(
            [feature_center(config, category) for category in config.categories]
        )
        self._centers = centers
        self._centroid = centers.mean(axis=0)
        self._low = centers.min(axis=0)
        self._high = centers.max(axis=0)
        rng = np.random.default_rng([seed, 1])
        self.concepts: list[LearnedConcept] = []
        self.streams: list[list[int]] = []
        for _ in range(N_CLIENTS):
            stream = []
            for _ in range(RANK_BLOCKS_PER_CLIENT):
                for family in rng.permutation(RANK_BLOCK):
                    stream.append(len(self.concepts))
                    self.concepts.append(self._concept(str(family), rng))
            self.streams.append(stream)
        self.bodies = [self.body(concept) for concept in self.concepts]
        warm_rng = np.random.default_rng([seed, 2])
        self.warm_bodies = [
            self.body(self._concept(RANK_BLOCK[i % len(RANK_BLOCK)], warm_rng))
            for i in range(N_WARM_RANKS)
        ]

    def _concept(self, family: str, rng: np.random.Generator) -> LearnedConcept:
        if family == "cluster":
            center = self._centers[rng.integers(len(self._centers))]
            t = center + rng.normal(scale=0.02, size=N_DIMS)
            w = rng.uniform(0.5, 1.0, size=N_DIMS)
        elif family == "centroid":
            # bench_rank_ann.unselective_concept, jittered per request.
            t = self._centroid + rng.normal(scale=0.02, size=N_DIMS)
            w = np.full(N_DIMS, 0.5)
        else:
            t = rng.uniform(self._low, self._high)
            w = rng.uniform(0.5, 1.0, size=N_DIMS)
        return LearnedConcept(t=t, w=w, nll=0.0)

    @staticmethod
    def body(concept: LearnedConcept) -> bytes:
        payload = codec.envelope(
            "rank", {"concept": codec.encode_concept(concept), "top_k": TOP_K}
        )
        return json.dumps(payload).encode("utf-8")


@dataclass(frozen=True)
class SessionSpec:
    target: str
    positives: tuple[str, ...]
    negatives: tuple[str, ...]


class InteractiveTraffic:
    """Seeded relevance-feedback sessions, one stream per user.

    A run holds only a dozen sessions, and a fit's cost depends mostly on
    its positive pair (query fits on this database range from 70 to 240 ms
    alone).  So fresh sessions walk the categories in turn and take their
    positive pairs from a fixed design, the same for every seed, and the
    seed picks everything else: the negative examples, the popular set and,
    through the rankings they produce, the feedback rounds.  Without the
    design, seed-to-seed spread of the latency metrics was 0.12-0.2.
    """

    def __init__(self, database, seed: int) -> None:
        by_category: dict[str, list[str]] = {}
        for image_id in database.image_ids:
            by_category.setdefault(database.category_of(image_id), []).append(image_id)
        self.categories = sorted(by_category)
        timed = {c: sorted(ids)[:-N_WARM_IMAGES] for c, ids in by_category.items()}
        warm = {c: sorted(ids)[-N_WARM_IMAGES:] for c, ids in by_category.items()}
        design = np.random.default_rng(0)
        pairs = {
            c: [tuple(pair) for pair in design.permutation(ids).reshape(-1, 2)]
            for c, ids in timed.items()
        }
        rng = np.random.default_rng([seed, 1])
        n_categories = len(self.categories)
        popular_target = self.categories[rng.integers(n_categories)]
        self.popular = self._spec(
            timed, rng, popular_target,
            tuple(rng.choice(timed[popular_target], size=2, replace=False)),
        )
        self.streams: list[list[SessionSpec]] = []
        for user in range(N_CLIENTS):
            stream, turn = [], user * n_categories // N_CLIENTS
            while len(stream) < SESSIONS_PER_USER:
                for kind in SESSION_BLOCK:
                    if kind == "popular":
                        stream.append(self.popular)
                        continue
                    target = self.categories[turn % n_categories]
                    n_pairs = len(pairs[target])
                    pair = pairs[target][
                        (turn // n_categories + user * n_pairs // N_CLIENTS) % n_pairs
                    ]
                    stream.append(self._spec(timed, rng, target, pair))
                    turn += 1
            self.streams.append(stream)
        target, other_a, other_b = self.categories[:3]
        self.warm = SessionSpec(
            target=target,
            positives=tuple(warm[target]),
            negatives=(warm[other_a][0], warm[other_b][0]),
        )

    def _spec(self, timed, rng: np.random.Generator, target: str, positives) -> SessionSpec:
        others = [c for c in self.categories if c != target]
        negative_categories = rng.choice(others, size=2, replace=False)
        negatives = [
            timed[str(c)][rng.integers(len(timed[str(c)]))]
            for c in negative_categories
        ]
        return SessionSpec(
            target=target,
            positives=tuple(str(p) for p in positives),
            negatives=tuple(str(n) for n in negatives),
        )


def feedback_picks(ranking, target: str) -> tuple[str, str]:
    """The best-ranked true positive and false positive of a ranking."""
    true_positive = next(e.image_id for e in ranking if e.category == target)
    false_positive = next(e.image_id for e in ranking if e.category != target)
    return true_positive, false_positive


# ---------------------------------------------------------------------- #
# Deployments                                                             #
# ---------------------------------------------------------------------- #


@dataclass
class Deployment:
    """One built server plus what it takes to tear it down and audit it."""

    server: ReproServer | None = None
    app: object = None
    service: RetrievalService | None = None
    pool: WorkerPool | None = None
    database: object = None
    traffic: object = None
    phases: dict = field(default_factory=dict)
    segments: tuple = ()

    @property
    def port(self) -> int:
        return self.server.port

    @property
    def url(self) -> str:
        return self.server.url

    def serving_pids(self) -> list[int]:
        return list(self.pool.worker_pids()) if self.pool is not None else []

    def shared_bytes(self) -> int:
        if self.pool is None:
            return 0
        return sum(corpus.nbytes for corpus in self.pool.shared.values())

    def close(self) -> None:
        """Stop the server, then the pool (which unlinks its segments)."""
        if self.server is not None:
            self.server.stop(drain_timeout=5.0)
            self.server = None
        if self.pool is not None:
            self.pool.stop()
            self.pool = None


def _timed(phases: dict, name: str, fn):
    started = time.perf_counter()
    value = fn()
    phases[name] = time.perf_counter() - started
    return value


def build_rank(traffic: RankTraffic, pooled: bool) -> Deployment:
    """Build, warm, start and warm up a rank deployment; phases in seconds."""
    deployment = Deployment()
    phases = deployment.phases
    try:
        packed = _timed(phases, "corpus_s", lambda: corpus_from_config(clustered_config()))

        def warm():
            service = RetrievalService(packed)
            service.warm("dd")
            return service

        service = _timed(phases, "warm_s", warm)
        deployment.service = service
        deployment.database = packed
        if pooled:
            pool = _timed(phases, "spawn_s", lambda: WorkerPool.from_service(service, N_WORKERS))
            deployment.pool = pool
            deployment.segments = tuple(c.segment_name for c in pool.shared.values())
            deployment.app = WorkerDispatchApp(pool, service=service)
        else:
            phases["spawn_s"] = 0.0
            deployment.app = ServiceApp(service, sessions=SessionStore(service))
        deployment.server = _timed(
            phases, "start_s", lambda: ReproServer(deployment.app, port=0).start()
        )

        def warm_up():
            connection = http.client.HTTPConnection(
                "127.0.0.1", deployment.port, timeout=CLIENT_TIMEOUT_S
            )
            try:
                for body in traffic.warm_bodies:
                    connection.request("POST", "/v1/rank", body=body, headers=RANK_HEADERS)
                    response = connection.getresponse()
                    data = response.read()
                    if response.status != 200:
                        raise RuntimeError(f"warm-up rank failed: {data[:200]!r}")
            finally:
                connection.close()

        _timed(phases, "warmup_s", warm_up)
    except BaseException:
        deployment.close()
        raise
    return deployment


def build_interactive(seed: int) -> Deployment:
    """Build, warm, start and warm up the interactive deployment.

    The warm-up session's concept-cache entries and its session are dropped
    afterwards, so the timed run starts with both empty.
    """
    deployment = Deployment()
    phases = deployment.phases
    try:
        database = _timed(phases, "corpus_s", scene_database)
        deployment.traffic = InteractiveTraffic(database, seed)
        warm = deployment.traffic.warm

        def warm_service():
            service = RetrievalService(database)
            service.warm("dd")
            return service

        service = _timed(phases, "warm_s", warm_service)
        deployment.service = service
        deployment.database = database
        phases["spawn_s"] = 0.0
        deployment.app = ServiceApp(service, sessions=SessionStore(service))
        deployment.server = _timed(
            phases, "start_s", lambda: ReproServer(deployment.app, port=0).start()
        )

        def warm_up():
            # The first DD fit in a process pays ~1 s of one-time cost.
            client = ReproClient(deployment.url, timeout=CLIENT_TIMEOUT_S)
            result = client.query(
                Query(
                    positive_ids=warm.positives,
                    negative_ids=warm.negatives,
                    learner="dd",
                    params=DD_PARAMS,
                )
            )
            true_positive, false_positive = feedback_picks(result.ranking, warm.target)
            reply = client.feedback(
                None,
                learner="dd",
                params=DD_PARAMS,
                add_positive_ids=(*warm.positives, true_positive),
                add_negative_ids=warm.negatives,
                false_positive_ids=(false_positive,),
            )
            deployment.app.sessions.drop(reply["session"])
            service.concept_cache.clear()

        _timed(phases, "warmup_s", warm_up)
    except BaseException:
        deployment.close()
        raise
    return deployment


# ---------------------------------------------------------------------- #
# Closed-loop clients                                                     #
# ---------------------------------------------------------------------- #


def run_clients(client_fn, seconds: float) -> tuple[list[Op], float]:
    """Run one thread per client until ``seconds`` pass; returns
    ``(ops, elapsed)`` where ``elapsed`` ends at the last reply."""
    ops: list[Op] = []
    started = time.perf_counter()
    deadline = started + seconds
    threads = [
        threading.Thread(
            target=client_fn, args=(client, deadline, ops),
            name=f"bench-client-{client}", daemon=True,
        )
        for client in range(N_CLIENTS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        # A client checks the deadline before each request, so at most one
        # request per client is still in flight when it passes.
        thread.join(timeout=seconds + CLIENT_TIMEOUT_S + 5.0)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    finished = max((op.finished for op in ops), default=time.perf_counter())
    return ops, finished - started


class RankClients:
    """Persistent-connection rank clients; each continues its stream."""

    def __init__(self, traffic: RankTraffic, port: int) -> None:
        self._traffic = traffic
        self._port = port
        self._cursor = [0] * N_CLIENTS

    def __call__(self, client: int, deadline: float, ops: list) -> None:
        stream = self._traffic.streams[client]
        connection = http.client.HTTPConnection(
            "127.0.0.1", self._port, timeout=CLIENT_TIMEOUT_S
        )
        try:
            while time.perf_counter() < deadline:
                index = stream[self._cursor[client] % len(stream)]
                self._cursor[client] += 1
                started = time.perf_counter()
                try:
                    connection.request(
                        "POST", "/v1/rank",
                        body=self._traffic.bodies[index], headers=RANK_HEADERS,
                    )
                    response = connection.getresponse()
                    data = response.read()
                    ok = response.status == 200
                except (OSError, http.client.HTTPException) as exc:
                    data, ok = repr(exc), False
                    connection.close()
                    connection = http.client.HTTPConnection(
                        "127.0.0.1", self._port, timeout=CLIENT_TIMEOUT_S
                    )
                ops.append(Op("rank", client, started, time.perf_counter(), ok, data, index))
        finally:
            connection.close()


class InteractiveUsers:
    """``ReproClient`` users running query + feedback sessions."""

    def __init__(self, traffic: InteractiveTraffic, url: str) -> None:
        self._traffic = traffic
        self._url = url
        self._cursor = [0] * N_CLIENTS
        self.tokens: list[str] = []

    def __call__(self, client: int, deadline: float, ops: list) -> None:
        api = ReproClient(self._url, timeout=CLIENT_TIMEOUT_S)
        stream = self._traffic.streams[client]
        while time.perf_counter() < deadline:
            spec = stream[self._cursor[client] % len(stream)]
            self._cursor[client] += 1
            self._session(api, spec, client, deadline, ops)

    def _session(self, api, spec: SessionSpec, client: int, deadline, ops) -> None:
        query = Query(
            positive_ids=spec.positives,
            negative_ids=spec.negatives,
            learner="dd",
            params=DD_PARAMS,
        )
        examples = {"positives": spec.positives, "negatives": spec.negatives}
        op = self._call(ops, "query", client, examples, lambda: api.query(query))
        if not op.ok:
            return
        ranking, token = op.reply.ranking, None
        for _ in range(FEEDBACK_ROUNDS):
            if time.perf_counter() >= deadline:
                return
            true_positive, false_positive = feedback_picks(ranking, spec.target)
            if token is None:
                # The first round opens the session with the query's examples.
                edits = {
                    "learner": "dd",
                    "params": DD_PARAMS,
                    "add_positive_ids": (*spec.positives, true_positive),
                    "add_negative_ids": spec.negatives,
                    "false_positive_ids": (false_positive,),
                }
            else:
                edits = {
                    "add_positive_ids": (true_positive,),
                    "false_positive_ids": (false_positive,),
                }
            op = self._call(
                ops, "feedback", client, None, lambda: api.feedback(token, **edits)
            )
            if not op.ok:
                return
            if token is None:
                token = op.reply["session"]
                self.tokens.append(token)
            op.key = {
                "positives": op.reply["positive_ids"],
                "negatives": op.reply["negative_ids"],
            }
            ranking = op.reply["ranking"]

    @staticmethod
    def _call(ops, kind, client, key, fn) -> Op:
        started = time.perf_counter()
        try:
            reply, ok = fn(), True
        except (ReproError, OSError) as exc:
            reply, ok = repr(exc), False
        op = Op(kind, client, started, time.perf_counter(), ok, reply, key)
        ops.append(op)
        return op


# ---------------------------------------------------------------------- #
# Memory                                                                  #
# ---------------------------------------------------------------------- #


def cpu_steal_ticks() -> int:
    """Ticks the hypervisor gave this machine's CPUs to someone else."""
    fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()
    return int(fields[8]) if len(fields) > 8 else 0


def _private_rss_kib(pid: int | str) -> int:
    """Anonymous + file-backed resident KiB of one process (no shmem)."""
    fields = {}
    try:
        text = Path(f"/proc/{pid}/status").read_text()
    except OSError:
        return 0
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key in ("RssAnon", "RssFile"):
            fields[key] = int(value.split()[0])
    return sum(fields.values())


class RssSampler:
    """Samples the serving process tree's resident memory on a thread."""

    def __init__(self, pids_fn, shared_bytes: int) -> None:
        self._pids_fn = pids_fn
        self._shared_kib = shared_bytes / 1024.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="bench-rss", daemon=True)
        self.peak_kib = 0.0

    def _sample(self) -> None:
        total = _private_rss_kib("self") + sum(
            _private_rss_kib(pid) for pid in self._pids_fn()
        )
        self.peak_kib = max(self.peak_kib, total + self._shared_kib)

    def _run(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_S):
            self._sample()

    def __enter__(self) -> "RssSampler":
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._sample()

    @property
    def peak_mib(self) -> float:
        return self.peak_kib / 1024.0
