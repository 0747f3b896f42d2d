"""Federated query processing over linked RDF datasets (FedX-style)."""

from repro.federation.endpoint import Endpoint
from repro.federation.executor import FederatedEngine
from repro.federation.provenance import FederatedResult, ProvenancedSolution
from repro.federation.source_selection import SourceAssignment, exclusive_groups, select_sources

__all__ = [
    "Endpoint",
    "FederatedEngine",
    "FederatedResult",
    "ProvenancedSolution",
    "SourceAssignment",
    "exclusive_groups",
    "select_sources",
]
