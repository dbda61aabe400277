"""Bundled STGs that are one specification up to signal renaming.

Two STGs are *aliases* when a signal bijection -- inputs to inputs,
outputs to outputs, internal signals to internal signals -- maps one's
reachable state graph onto the other's: the initial states correspond,
every state's code is the other's with its bits renamed, and the
signal edges leaving corresponding states are the same edges under the
renaming.  Synthesis sees only the state graph, so aliases are one
circuit under two names.  This module finds each bijection, checks it,
and pins the alias groups (README, "Bundled benchmarks"); adding or
editing a bundled STG that joins or splits a group fails here.
"""

from itertools import permutations

import pytest

from repro.benchmarks_data import (
    benchmark_names,
    load_benchmark,
    load_benchmark_stg,
)
from repro.core.atpg import AtpgOptions
from repro.faultmodels import model_names
from repro.flow import Flow
from repro.stg.reachability import build_state_graph

#: Every group of two or more bundled STGs that are aliases, by name.
KNOWN_ALIASES = (
    {"alloc-outbound", "atod", "mp-forward-pkt", "nak-pa", "sbuf-send-ctl",
     "sbuf-send-pkt2"},
    {"hazard", "rcv-setup", "rpdft"},
    {"converta", "vbe6a"},
    {"seq4", "vbe5b"},
)


def labelled_edges(sg, state, rename=None):
    """``{(signal, direction): successor}`` of one state; a state with
    two edges of one label would make the pairing ambiguous."""
    edges = {}
    for t, succ in sg.edges[state]:
        signal = t.signal if rename is None else rename[t.signal]
        edges[signal, t.direction] = succ
    assert len(edges) == len(sg.edges[state]), (sg.stg.name, state)
    return edges


def maps_onto(sga, sgb, rename):
    """True when ``rename`` (signal of A -> signal of B) maps A's state
    graph onto B's, state for state (a bijection, checked both ways)."""
    if sga.n_states != sgb.n_states:
        return False
    bit_of = {s: sgb.signal_bit(rename[s]) for s in sga.stg.signals}

    def recode(code):
        return sum(
            1 << bit_of[s] for i, s in enumerate(sga.stg.signals) if code >> i & 1
        )

    pair = {sga.initial: sgb.initial}
    taken = {sgb.initial}
    todo = [sga.initial]
    while todo:
        a = todo.pop()
        b = pair[a]
        if recode(sga.code_of(a)) != sgb.code_of(b):
            return False
        out_a = labelled_edges(sga, a, rename)
        out_b = labelled_edges(sgb, b)
        if out_a.keys() != out_b.keys():
            return False
        for label, succ_a in out_a.items():
            succ_b = out_b[label]
            if succ_a in pair:
                if pair[succ_a] != succ_b:
                    return False
            elif succ_b in taken:
                return False
            else:
                pair[succ_a] = succ_b
                taken.add(succ_b)
                todo.append(succ_a)
    return len(pair) == sga.n_states


def find_bijection(sga, sgb):
    """A signal bijection mapping A's state graph onto B's, or None."""
    a, b = sga.stg, sgb.stg
    kinds = ("inputs", "outputs", "internal")
    if any(len(getattr(a, k)) != len(getattr(b, k)) for k in kinds):
        return None
    for ins in permutations(b.inputs):
        for outs in permutations(b.outputs):
            for internal in permutations(b.internal):
                rename = dict(zip(a.signals, ins + outs + internal))
                if maps_onto(sga, sgb, rename):
                    return rename
    return None


def alias_groups():
    """Bundled STGs grouped by alias, each group's first member its
    representative; returns the groups of two or more."""
    graphs = {name: build_state_graph(load_benchmark_stg(name))
              for name in benchmark_names()}
    groups = []
    for name, sg in graphs.items():
        for group in groups:
            if find_bijection(graphs[group[0]], sg) is not None:
                group.append(name)
                break
        else:
            groups.append([name])
    return [set(group) for group in groups if len(group) > 1]


def test_bundled_alias_groups_are_the_known_ones():
    found = alias_groups()
    assert sorted(map(sorted, found)) == sorted(map(sorted, KNOWN_ALIASES))


def test_alias_bijection_is_explicit_and_inverts():
    """Each known alias pair has a signal bijection that keeps signal
    kinds, and its inverse maps the state graphs back."""
    for group in KNOWN_ALIASES:
        first, *rest = sorted(group)
        sga = build_state_graph(load_benchmark_stg(first))
        for name in rest:
            sgb = build_state_graph(load_benchmark_stg(name))
            rename = find_bijection(sga, sgb)
            assert rename is not None, (first, name)
            for kind in ("inputs", "outputs", "internal"):
                assert sorted(rename[s] for s in getattr(sga.stg, kind)) == (
                    sorted(getattr(sgb.stg, kind))
                )
            inverse = {v: k for k, v in rename.items()}
            assert maps_onto(sgb, sga, inverse), (name, first)


def test_a_wrong_bijection_is_rejected():
    """The check is not vacuous: mapping hazard onto itself with its
    input and an output swapped breaks the state correspondence."""
    sg = build_state_graph(load_benchmark_stg("hazard"))
    (a,), (x, y) = sg.stg.inputs, sg.stg.outputs
    assert maps_onto(sg, sg, {a: a, x: x, y: y})
    assert not maps_onto(sg, sg, {a: x, x: a, y: y})


@pytest.mark.parametrize("style", ["complex", "two-level"])
def test_aliases_get_identical_results_under_every_model(style):
    """Aliases are one circuit: in either synthesis style, every fault
    model's headline numbers and CSSG size agree within each group."""
    for group in KNOWN_ALIASES:
        for model in model_names():
            rows = set()
            for name in sorted(group):
                r = Flow.default().run(
                    load_benchmark(name, style), AtpgOptions(fault_model=model)
                )
                rows.add((r.n_total, r.n_random, r.n_three_phase, r.n_fault_sim,
                          r.n_undetectable, r.n_aborted,
                          r.cssg.n_states, r.cssg.n_edges))
            assert len(rows) == 1, (style, sorted(group), model, rows)
