"""The inductive miner's four cuts as written before they moved onto one
bitset reachability closure, kept as the reference that
``procshap.miner``'s cuts are checked against.

BFS components, an iterative Tarjan SCC, per-SCC reachability sets and a
union-find merge that repeats until the groups form a chain: slower and
longer, but each step follows the cut's definition directly.
"""

from __future__ import annotations

from procshap.event_log import DirectlyFollowsGraph


def _sorted_groups(groups: list[set[str]]) -> list[list[str]]:
    return sorted((sorted(g) for g in groups), key=lambda g: g[0])


def _undirected_components(alphabet: list[str], edges) -> list[set[str]]:
    adjacent: dict[str, set[str]] = {a: set() for a in alphabet}
    for a, b in edges:
        if a != b:
            adjacent[a].add(b)
            adjacent[b].add(a)
    seen: set[str] = set()
    components: list[set[str]] = []
    for start in alphabet:
        if start in seen:
            continue
        component = {start}
        frontier = [start]
        while frontier:
            for nxt in adjacent[frontier.pop()]:
                if nxt not in component:
                    component.add(nxt)
                    frontier.append(nxt)
        seen |= component
        components.append(component)
    return components


def _xor_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    components = _undirected_components(alphabet, dfg.edge_freq)
    if len(components) < 2:
        return None
    return _sorted_groups(components)



def _strongly_connected_components(
    alphabet: list[str], edges
) -> list[set[str]]:
    # Iterative Tarjan, nodes visited in lexicographic order for determinism.
    succ: dict[str, list[str]] = {a: [] for a in alphabet}
    for a, b in edges:
        if a != b:
            succ[a].append(b)
    for a in succ:
        succ[a].sort()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    components: list[set[str]] = []
    counter = 0

    for root in alphabet:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for nxt in it:
                if nxt not in index:
                    index[nxt] = low[nxt] = counter
                    counter += 1
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                component: set[str] = set()
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.add(member)
                    if member == node:
                        break
                components.append(component)
    return components


def _sequence_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    sccs = _strongly_connected_components(alphabet, dfg.edge_freq)
    if len(sccs) < 2:
        return None
    comp_of = {a: i for i, scc in enumerate(sccs) for a in scc}
    k = len(sccs)
    succ: list[set[int]] = [set() for _ in range(k)]
    for a, b in dfg.edge_freq:
        ca, cb = comp_of[a], comp_of[b]
        if ca != cb:
            succ[ca].add(cb)

    reach: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        frontier = list(succ[i])
        while frontier:
            j = frontier.pop()
            if j not in reach[i]:
                reach[i].add(j)
                frontier.extend(succ[j])

    # Merge pairwise-unreachable components until the groups form a chain.
    parent = list(range(k))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    changed = True
    while changed:
        changed = False
        group_reach: dict[int, set[int]] = {}
        for i in range(k):
            group_reach.setdefault(find(i), set()).update(
                find(j) for j in reach[i]
            )
        roots = sorted(group_reach)
        for x in roots:
            for y in roots:
                if x < y and y not in group_reach[x] and x not in group_reach[y]:
                    parent[find(y)] = find(x)
                    changed = True

    merged: dict[int, set[str]] = {}
    for i, scc in enumerate(sccs):
        merged.setdefault(find(i), set()).update(scc)
    if len(merged) < 2:
        return None

    group_list = list(merged.values())
    rep = {id(g): next(iter(g)) for g in group_list}

    def reaches(g1: set[str], g2: set[str]) -> bool:
        c2 = {comp_of[a] for a in g2}
        return any(bool(reach[comp_of[a]] & c2) for a in g1)

    # Total order now holds; sort by how many groups reach this one.
    order = sorted(
        group_list,
        key=lambda g: sum(1 for other in group_list if other is not g and reaches(other, g)),
    )
    for first, second in zip(order, order[1:]):
        if not reaches(first, second):
            return None  # defensive: ordering was not total
    return [sorted(g) for g in order]


def _parallel_cut(alphabet: list[str], dfg: DirectlyFollowsGraph) -> list[list[str]] | None:
    if not dfg.start_freq or not dfg.end_freq:
        return None
    edges = set(dfg.edge_freq)
    pairs_requiring_merge = [
        (a, b)
        for i, a in enumerate(alphabet)
        for b in alphabet[i + 1 :]
        if (a, b) not in edges or (b, a) not in edges
    ]
    components = _undirected_components(alphabet, pairs_requiring_merge)
    if len(components) < 2:
        return None
    starts, ends = set(dfg.start_freq), set(dfg.end_freq)
    for component in components:
        if not (component & starts) or not (component & ends):
            return None
    return _sorted_groups(components)


def _loop_cut(
    alphabet: list[str], dfg: DirectlyFollowsGraph
) -> tuple[list[str], list[list[str]]] | None:
    starts, ends = set(dfg.start_freq), set(dfg.end_freq)
    if not starts or not ends:
        return None
    body = starts | ends
    residual = [a for a in alphabet if a not in body]
    if not residual:
        return None
    residual_set = set(residual)
    residual_edges = [
        (a, b) for a, b in dfg.edge_freq if a in residual_set and b in residual_set
    ]
    components = _undirected_components(residual, residual_edges)

    do_extra: set[str] = set()
    redo_groups: list[set[str]] = []
    for component in components:
        valid = True
        for a, b in dfg.edge_freq:
            if b in component and a not in component and a not in ends:
                valid = False
                break
            if a in component and b not in component and b not in starts:
                valid = False
                break
        if valid:
            redo_groups.append(component)
        else:
            do_extra |= component
    if not redo_groups:
        return None
    do_group = sorted(body | do_extra)
    return do_group, _sorted_groups(redo_groups)
