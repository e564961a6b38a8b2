"""Service topologies.

Section 3 defines "a graph in which time servers are nodes and
communication paths are edges", assumed connected; each server synchronizes
with its *neighbours*.  This module builds those graphs (as ``networkx``
graphs over server-name strings) for the shapes the experiments need,
including a two-level internetwork generator modelled on the paper's
setting (the Xerox Research Internet: local networks of servers joined by
inter-network gateway links).
"""

from __future__ import annotations

from typing import Optional, Sequence

import networkx as nx
import numpy as np


def _names(count: int, prefix: str) -> list[str]:
    if count < 1:
        raise ValueError(f"need at least one server, got {count}")
    return [f"{prefix}{index + 1}" for index in range(count)]


def full_mesh(count: int, prefix: str = "S") -> nx.Graph:
    """A fully-connected service — the topology of Theorems 2 and 3."""
    graph: nx.Graph = nx.complete_graph(count)
    return nx.relabel_nodes(graph, dict(enumerate(_names(count, prefix))))


def ring(count: int, prefix: str = "S") -> nx.Graph:
    """A cycle of servers; each polls exactly two neighbours."""
    if count < 3:
        raise ValueError(f"a ring needs at least 3 servers, got {count}")
    graph: nx.Graph = nx.cycle_graph(count)
    return nx.relabel_nodes(graph, dict(enumerate(_names(count, prefix))))


def line(count: int, prefix: str = "S") -> nx.Graph:
    """A path of servers; the diameter-maximising connected topology."""
    graph: nx.Graph = nx.path_graph(count)
    return nx.relabel_nodes(graph, dict(enumerate(_names(count, prefix))))


def star(count: int, prefix: str = "S") -> nx.Graph:
    """One hub (``S1``) connected to every other server."""
    if count < 2:
        raise ValueError(f"a star needs at least 2 servers, got {count}")
    graph: nx.Graph = nx.star_graph(count - 1)
    return nx.relabel_nodes(graph, dict(enumerate(_names(count, prefix))))


def random_connected(
    count: int,
    edge_probability: float,
    rng: np.random.Generator,
    prefix: str = "S",
) -> nx.Graph:
    """An Erdős–Rényi graph patched to be connected.

    Disconnected components are stitched by adding one edge between a random
    node of each successive component pair, preserving the graph's sparsity
    while satisfying the paper's connectivity assumption.
    """
    if not 0.0 <= edge_probability <= 1.0:
        raise ValueError(
            f"edge_probability must be in [0, 1], got {edge_probability}"
        )
    names = _names(count, prefix)
    graph = nx.Graph()
    graph.add_nodes_from(names)
    for i in range(count):
        for j in range(i + 1, count):
            if rng.uniform() < edge_probability:
                graph.add_edge(names[i], names[j])
    components = [sorted(c) for c in nx.connected_components(graph)]
    for first, second in zip(components, components[1:]):
        a = first[int(rng.integers(len(first)))]
        b = second[int(rng.integers(len(second)))]
        graph.add_edge(a, b)
    return graph


def two_level_internet(
    networks: int,
    servers_per_network: int,
    rng: Optional[np.random.Generator] = None,
    extra_gateway_links: int = 0,
) -> nx.Graph:
    """A Xerox-internet-like topology: full-mesh LANs joined by gateways.

    Each local network ``k`` is a full mesh over servers ``Nk-S1 ..
    Nk-Sm``; the first server of each network doubles as its gateway, and
    gateways form a ring (plus ``extra_gateway_links`` random chords).
    Edges carry a ``kind`` attribute (``"lan"`` or ``"wan"``) so the
    transport can assign slower delay models to inter-network hops.

    Args:
        networks: Number of local networks (>= 1).
        servers_per_network: Servers on each local network (>= 1).
        rng: Needed only when ``extra_gateway_links`` > 0.
        extra_gateway_links: Random extra WAN chords between gateways.
    """
    if networks < 1:
        raise ValueError(f"need at least one network, got {networks}")
    if servers_per_network < 1:
        raise ValueError(
            f"need at least one server per network, got {servers_per_network}"
        )
    graph = nx.Graph()
    gateways: list[str] = []
    for net in range(networks):
        names = [
            f"N{net + 1}-S{index + 1}" for index in range(servers_per_network)
        ]
        graph.add_nodes_from(names)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                graph.add_edge(names[i], names[j], kind="lan")
        gateways.append(names[0])
    if networks >= 2:
        for a, b in zip(gateways, gateways[1:]):
            graph.add_edge(a, b, kind="wan")
        if networks > 2:
            graph.add_edge(gateways[-1], gateways[0], kind="wan")
    if extra_gateway_links > 0:
        if rng is None:
            raise ValueError("extra_gateway_links requires an rng")
        added = 0
        attempts = 0
        while added < extra_gateway_links and attempts < 100 * extra_gateway_links:
            attempts += 1
            a = gateways[int(rng.integers(len(gateways)))]
            b = gateways[int(rng.integers(len(gateways)))]
            if a != b and not graph.has_edge(a, b):
                graph.add_edge(a, b, kind="wan")
                added += 1
    return graph


def stratum_hierarchy(
    total: int,
    *,
    core: int = 4,
    fanout: int = 8,
    prefix: str = "T",
) -> nx.Graph:
    """An N-level stratum hierarchy for planet-scale experiments.

    Stratum 1 is a full mesh of ``core`` servers; each further stratum
    grows by up to ``fanout`` children per parent until ``total`` servers
    exist.  Every child polls its parent (edge kind ``"uplink"``) and its
    adjacent siblings under the same parent (kind ``"lateral"``), so
    degrees stay bounded (≈ ``fanout + 3``) while errors propagate down
    the strata exactly as Lemma 1 / Theorem 8 describe: stratum ``s``
    inherits stratum ``s−1``'s error plus per-hop round-trip slack.

    Node names are ``{prefix}{stratum}-{index:06d}``; recover the stratum
    with :func:`stratum_of`.  The geometric growth keeps the level count
    below 10 for any ``total`` this codebase runs, so lexicographic name
    order groups servers by stratum.

    Args:
        total: Total server count (>= 1).
        core: Stratum-1 mesh size (clamped to ``total``).
        fanout: Maximum children per parent (>= 1).
    """
    if total < 1:
        raise ValueError(f"need at least one server, got {total}")
    if fanout < 1:
        raise ValueError(f"fanout must be >= 1, got {fanout}")
    core = min(core, total)
    graph = nx.Graph()
    core_names = [f"{prefix}1-{i:06d}" for i in range(core)]
    graph.add_nodes_from(core_names)
    for i in range(core):
        for j in range(i + 1, core):
            graph.add_edge(core_names[i], core_names[j], kind="core")
    levels = [core_names]
    count = core
    stratum = 1
    while count < total:
        stratum += 1
        parents = levels[-1]
        size = min(total - count, len(parents) * fanout)
        names = [f"{prefix}{stratum}-{i:06d}" for i in range(size)]
        graph.add_nodes_from(names)
        groups: dict[str, list[str]] = {}
        for i, name in enumerate(names):
            parent = parents[i % len(parents)]
            graph.add_edge(name, parent, kind="uplink")
            groups.setdefault(parent, []).append(name)
        for group in groups.values():
            for a, b in zip(group, group[1:]):
                graph.add_edge(a, b, kind="lateral")
        levels.append(names)
        count += size
    return graph


def stratum_of(name: str, prefix: str = "T") -> int:
    """The stratum encoded in a :func:`stratum_hierarchy` node name."""
    head = name[len(prefix) :]
    return int(head.split("-", 1)[0])


def csr_adjacency(
    graph: nx.Graph, index: dict[str, int]
) -> tuple[np.ndarray, np.ndarray]:
    """The graph's adjacency as CSR arrays over server ranks.

    ``index`` maps every node to its rank ``0..n-1``.  Returns ``(indptr,
    indices)``: rank ``r``'s neighbours, ascending, are
    ``indices[indptr[r]:indptr[r + 1]]``; a self-loop lists its server
    once, as ``graph.neighbors`` does.
    """
    ends = np.fromiter(
        (index[end] for edge in graph.edges() for end in edge), dtype=np.int64
    ).reshape(-1, 2)
    u, v = ends[:, 0], ends[:, 1]
    twin = u != v
    rows = np.concatenate([u, v[twin]])
    cols = np.concatenate([v, u[twin]])
    indptr = np.zeros(len(index) + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=len(index)), out=indptr[1:])
    return indptr, cols[np.lexsort((cols, rows))]


def validate_topology(
    graph: nx.Graph, *, present: Optional[Sequence[str]] = None
) -> None:
    """Check the paper's standing assumptions: non-empty and connected.

    Safe to re-run on a live, mutated graph — the dynamic-topology
    subsystem calls it after every edge or membership change.  When
    ``present`` is given, the check is restricted to the induced subgraph
    over those servers: departed members may be transiently unreachable
    without violating the connectivity assumption for the servers still
    in the service.

    Raises:
        ValueError: If the graph is empty or disconnected.  The
            disconnection error names the smallest isolated component so
            a failing churn schedule can be diagnosed from the message
            alone.
    """
    if graph.number_of_nodes() == 0:
        raise ValueError("topology has no servers")
    view = graph if present is None else graph.subgraph(present)
    if present is not None and view.number_of_nodes() == 0:
        raise ValueError("topology has no present servers")
    if nx.is_connected(view):
        return
    components = sorted(
        (sorted(component) for component in nx.connected_components(view)),
        key=lambda names: (len(names), names),
    )
    isolated = components[0]
    raise ValueError(
        "the paper assumes a connected service topology; "
        f"isolated component: {{{', '.join(isolated)}}} "
        f"({len(isolated)} of {view.number_of_nodes()} servers)"
    )


def neighbours(graph: nx.Graph, name: str) -> list[str]:
    """Sorted neighbour names of a server (sorted for determinism)."""
    return sorted(graph.neighbors(name))
