"""Exception types shared across the package."""


class TreeSearchError(Exception):
    """Base class for every error raised by this package."""


class NotATree(TreeSearchError):
    """The edge list is not a connected acyclic graph on all vertices."""


class NonPositiveCost(TreeSearchError):
    """A vertex carries a cost that is zero or negative."""

    def __init__(self, vertex, cost):
        super().__init__(f"vertex {vertex} has non-positive cost {cost}")
        self.vertex = vertex
        self.cost = cost


class InvalidCost(TreeSearchError, ValueError):
    """A cost is not a rational number, or has more digits than the interpreter prints."""


class VertexNotInCandidate(TreeSearchError):
    """The split vertex does not belong to the candidate set."""


class UnknownVertex(TreeSearchError):
    """A referenced vertex id does not exist in the current context."""


class InvalidDecisionTree(TreeSearchError):
    """Base class for strategy-tree validity failures."""


class MissingVertex(InvalidDecisionTree):
    """Some instance vertices never appear in the strategy tree."""


class DuplicateVertex(InvalidDecisionTree):
    """A vertex appears more than once in the strategy tree."""


class QueryOutsideCandidate(InvalidDecisionTree):
    """A query targets a vertex outside its own candidate set."""

    def __init__(self, vertex, message=None):
        super().__init__(message or f"query to vertex {vertex} lies outside its candidate set")
        self.vertex = vertex


class ComponentMismatch(InvalidDecisionTree):
    """Children of a query do not match the response components."""

    def __init__(self, vertex, message=None):
        super().__init__(message or f"children of query {vertex} do not match the response components")
        self.vertex = vertex


class NotConnected(TreeSearchError):
    """The given vertex set does not induce a connected subtree."""


class StateLimitExceeded(TreeSearchError):
    """The exact solver hit its memo-state budget."""


class InvalidSize(TreeSearchError):
    """The requested size is outside the supported range."""


class NoHeavyVertex(TreeSearchError):
    """No vertex exceeds the threshold, so no separator can be built."""


class NoNeighborQueried(TreeSearchError):
    """No neighbour of the pending region has been queried yet."""


class NotAPath(TreeSearchError):
    """Queried neighbours of a pending region do not lie on one root-to-leaf path."""


class BranchOccupied(TreeSearchError):
    """The response branch selected for grafting already has a subtree."""


class ParseError(TreeSearchError):
    """Malformed serialized input."""


class InvalidParameters(TreeSearchError):
    """Generator or configuration parameters are unusable."""
