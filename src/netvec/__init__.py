"""Dataplane verification over prefix equivalence classes and bit vectors."""

from .errors import (AlignmentDiverged, DimensionMismatch, DuplicateEdge,
                     InfeasibleParameters, NetvecError, NoPath,
                     NonOrthonormalColumns, NotFound, ParseError, PbrProtected,
                     PrefixTooLong, RectificationImpossible, UnknownLink,
                     UnknownRouter, WidthTooLarge)
from .prefixes import ROOT, Prefix, format_prefix, parse_prefix
from .trie import AffectedSets, HeaderTrie, Label, TrieNode, UpdateOutcome
from .vectors import (ForwardingVector, StateVector, TransformMatrix,
                      apply_transform)
from .dataset import (BenchRecord, CdfSummary, NetworkSpec, UpdateEvent,
                      generate_synthetic, parse_network, parse_update_stream,
                      run_update_stream, serialize_network,
                      serialize_update_stream, summarize)
from .verify import (BlackholeReport, LoopReport, NetworkState, PathResult,
                     PolicyReport, PolicyViolation, ReachabilityReport,
                     Topology, VerificationSession, WhatIfResult, batch_update,
                     check_policy, detect_blackhole, detect_loop,
                     merge_affected, verify_reachability, whatif_link_down)
from .rectify import (PathQuality, RectifyResult, RuleFix, apply_fixes,
                      cover_classes, path_quality, rectify)

__version__ = "0.1.0"
