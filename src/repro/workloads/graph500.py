"""Graph500-style BFS/SSSP page traffic.

Graph500 runs breadth-first search and single-source shortest paths over a
scale-free (Kronecker/RMAT) graph.  Its memory behaviour, which the paper
leans on in Section 5.2, has two defining properties:

* page hotness follows the *degree distribution* -- adjacency pages of
  high-degree vertices are touched by many traversal steps, with "mild
  access frequency difference" between hotter and colder items, and
* traversal proceeds in *frontier phases*: each BFS level adds emphasis on
  the pages of the current frontier.

We build an actual scale-free graph (Barabási–Albert preferential
attachment via networkx -- the same heavy-tail family as RMAT), pack
vertices' adjacency lists into pages, and derive per-page weights from
resident degree mass.  BFS levels from a random source give the phase
schedule.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.sim.timeunits import SECOND
from repro.workloads.base import Workload, cached_tables, table_key


class Graph500Workload(Workload):
    """Degree-skewed graph traversal with rotating BFS frontiers."""

    name = "graph500"

    def __init__(
        self,
        n_pages: int,
        vertices_per_page: int = 2,
        attachment: int = 2,
        frontier_boost: float = 3.0,
        phase_len_ns: int = 2 * SECOND,
        write_fraction: float = 0.10,
        seed: int = 1,
    ) -> None:
        """Create a Graph500 workload.

        Args:
            n_pages: working-set size (adjacency storage) in base pages.
            vertices_per_page: how many vertices' adjacency lists share a
                page (packing density).
            attachment: Barabási–Albert attachment parameter (mean degree
                is ~2x this; higher = flatter hotness).
            frontier_boost: multiplicative emphasis on the current BFS
                frontier's pages.
            phase_len_ns: wall time per BFS level.
            write_fraction: store share (visited marks / distance updates).
            seed: graph and BFS-source seed.
        """
        if vertices_per_page <= 0:
            raise ValueError("need at least one vertex per page")
        if frontier_boost < 1.0:
            raise ValueError("frontier boost must be >= 1")
        if phase_len_ns <= 0:
            raise ValueError("phase length must be positive")
        super().__init__(n_pages, write_fraction=write_fraction)
        self.vertices_per_page = int(vertices_per_page)
        self.phase_len_ns = int(phase_len_ns)
        self.frontier_boost = float(frontier_boost)

        n_vertices = self.n_pages * self.vertices_per_page
        attachment = min(attachment, max(1, n_vertices - 1))
        self.attachment = int(attachment)
        self.seed = int(seed)

        # Graph construction + BFS is by far the most expensive build in
        # the workload zoo; the result depends only on the shape/seed
        # parameters below, so repeated cells (other policies, other
        # frontier boosts) reuse the compiled tables.
        key = table_key(
            self.name,
            n_pages=self.n_pages,
            vertices_per_page=self.vertices_per_page,
            attachment=self.attachment,
            seed=self.seed,
        )
        tables = cached_tables(key, self._build_tables)
        self._vertex_page = tables["vertex_page"]
        self._base_weights = tables["base_weights"]
        lengths = tables["frontier_lengths"].astype(np.int64)
        self._frontier_pages: List[np.ndarray] = np.split(
            tables["frontier_pages"], np.cumsum(lengths)[:-1]
        )
        self._phase = 0
        self._probs = self._phase_distribution(0)

    def _build_tables(self) -> dict:
        """Build the graph, page placement, and BFS frontier schedule."""
        # networkx is only needed to build a graph (the tables are cached
        # afterwards); importing it here keeps it out of ``repro`` start-up.
        import networkx as nx

        n_vertices = self.n_pages * self.vertices_per_page
        graph = nx.barabasi_albert_graph(
            n_vertices, self.attachment, seed=self.seed
        )
        degrees = np.array(
            [graph.degree(v) for v in range(n_vertices)], dtype=np.float64
        )
        # Page weight = degree mass of the vertices stored on it.  Vertices
        # are shuffled across pages (allocation order is not degree order).
        rng = np.random.default_rng(self.seed)
        placement = rng.permutation(n_vertices)
        vertex_page = placement // self.vertices_per_page
        base = np.bincount(
            vertex_page, weights=degrees, minlength=self.n_pages
        )

        # BFS levels from a random source define the frontier schedule.
        source = int(rng.integers(n_vertices))
        levels = nx.single_source_shortest_path_length(graph, source)
        max_level = max(levels.values())
        frontiers: List[np.ndarray] = []
        for level in range(max_level + 1):
            verts = [v for v, d in levels.items() if d == level]
            frontiers.append(np.unique(vertex_page[verts]))
        return {
            "vertex_page": vertex_page,
            "base_weights": base + base.mean() * 0.02,  # cold floor
            "frontier_pages": np.concatenate(frontiers),
            "frontier_lengths": np.array(
                [f.size for f in frontiers], dtype=np.int64
            ),
        }

    @property
    def n_levels(self) -> int:
        """Number of BFS levels (phases) in the traversal."""
        return len(self._frontier_pages)

    def _phase_distribution(self, phase: int) -> np.ndarray:
        weights = self._base_weights.copy()
        frontier = self._frontier_pages[phase % self.n_levels]
        weights[frontier] *= self.frontier_boost
        return self._normalize(weights)

    def advance(self, now_ns: int) -> None:
        phase = (now_ns // self.phase_len_ns) % self.n_levels
        if phase != self._phase:
            self._phase = int(phase)
            self._probs = self._phase_distribution(self._phase)

    def access_distribution(self, now_ns: Optional[int] = None) -> np.ndarray:
        if now_ns is not None:
            self.advance(now_ns)
        return self._probs

    def hot_page_mask(self, hot_fraction: float = 0.25) -> np.ndarray:
        """Hot pages by *base* degree mass (frontier emphasis excluded)."""
        if not 0 < hot_fraction <= 1:
            raise ValueError("hot fraction must be in (0, 1]")
        n_hot = max(1, int(self.n_pages * hot_fraction))
        idx = np.argpartition(self._base_weights, -n_hot)[-n_hot:]
        mask = np.zeros(self.n_pages, dtype=bool)
        mask[idx] = True
        return mask
