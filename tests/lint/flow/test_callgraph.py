"""Call-graph construction: name resolution, typing, and method lookup."""

import ast
import textwrap

from repro.lint.engine import FileContext, Project
from repro.lint.flow.callgraph import build_call_graph


def graph_of(sources):
    contexts = [
        FileContext.parse(path, textwrap.dedent(text))
        for path, text in sources.items()
    ]
    return build_call_graph(Project(files=contexts))


CRATE = {
    "src/repro/core/things.py": """
    HEADER = 4

    class Base:
        def shared(self):
            return 1

    class Thing(Base):
        def encode(self):
            return self.helper()

        def helper(self):
            return 2

    def top():
        return Thing()
    """,
    "src/repro/core/user.py": """
    from repro.core.things import HEADER, Thing

    def use(t: Thing):
        return t.helper()
    """,
}


def first_call(fn):
    return next(node for node in ast.walk(fn.node) if isinstance(node, ast.Call))


def test_functions_and_methods_are_keyed_by_module_and_qualname():
    graph = graph_of(CRATE)
    assert "repro.core.things:top" in graph.functions
    assert "repro.core.things:Thing.encode" in graph.functions
    assert "repro.core.user:use" in graph.functions


def test_resolve_class_follows_imports():
    graph = graph_of(CRATE)
    key = graph.resolve_class("repro.core.user", "Thing")
    assert key is not None
    assert graph.classes[key].name == "Thing"
    assert graph.classes[key].module == "repro.core.things"


def test_method_on_walks_base_classes():
    graph = graph_of(CRATE)
    thing = graph.resolve_class("repro.core.things", "Thing")
    shared = graph.method_on(thing, "shared")
    assert shared is not None
    assert shared.key == "repro.core.things:Base.shared"
    assert graph.method_on(thing, "nope") is None


def test_resolve_call_through_self():
    graph = graph_of(CRATE)
    fn = graph.functions["repro.core.things:Thing.encode"]
    callee = graph.resolve_call(fn, first_call(fn), graph.local_types(fn))
    assert callee is not None
    assert callee.key == "repro.core.things:Thing.helper"


def test_resolve_call_through_annotated_parameter():
    graph = graph_of(CRATE)
    fn = graph.functions["repro.core.user:use"]
    callee = graph.resolve_call(fn, first_call(fn), graph.local_types(fn))
    assert callee is not None
    assert callee.key == "repro.core.things:Thing.helper"
