#pragma once
// Machine-readable result serialisation: the JSON shape the CLI emits and
// downstream tooling (the GUI the paper ships, dashboards, CI gates)
// consumes.  One object per verified query.

#include <string>

#include "json/json.hpp"
#include "verify/engine.hpp"
#include "verify/sweep.hpp"

namespace aalwines::io {

/// Serialise one verification outcome.
///
/// {
///   "query":   "<ip> [.#v0] .* [v3#.] <ip> 0",
///   "answer":  "yes" | "no" | "inconclusive",
///   "seconds": 0.0123,
///   "weight":  [5, 0],                  (weighted runs only)
///   "trace":   [ {"link": "v0.e1 -> v2.in1",
///                 "header": "s20 o ip1",
///                 "ops": "swap(s21)"}, ... ],
///   "note":    "...",                   (when present)
///   "stats":   { "pdaRules": 8, "saturationIterations": 14,
///                "usedUnderApproximation": false, "over": {...} }
/// }
[[nodiscard]] std::string result_to_json(const Network& network,
                                         const std::string& query_text,
                                         const verify::VerifyResult& result,
                                         bool include_stats = false, int indent = 2);

/// Same, but the parsed json::Value (for embedding into larger documents).
[[nodiscard]] json::Value result_to_json_value(const Network& network,
                                               const std::string& query_text,
                                               const verify::VerifyResult& result,
                                               bool include_stats = false);

/// Compact health-matrix JSON for a sweep run: the axes, one small object
/// per cell (grid coordinates, answer, path, timing — plus weight/trace/
/// error when present), and the cross-cell sharing accounting.
///
/// {
///   "template":  "<ip> [.#{src}] .* [{dst}#.] <ip> {k}",
///   "pairs":     [["R1", "R2"], ...],
///   "budgets":   [0, 1],
///   "scenarios": ["baseline", "R1.e1 -> R2.in1", ...],
///   "cells":     [ {"pair": 0, "k": 0, "scenario": 0, "answer": "yes",
///                   "path": "cold" | "warm" | "reused", "seconds": 0.004}, ... ],
///   "stats":     { "cells": 40, "coldSaturations": 4, "reusedFrontiers": 30,
///                  "sharedSaturations": 6, "nfaCompiles": 2, "errors": 0,
///                  "seconds": 0.12 }
/// }
///
/// `include_stats` adds each cell's full per-phase stats object (the same
/// shape as result_to_json's "stats"); the sharing accounting in "stats" is
/// always present.
[[nodiscard]] json::Value sweep_to_json_value(const Network& network,
                                              const verify::SweepSpec& spec,
                                              const verify::SweepResult& sweep,
                                              bool include_stats = false);

} // namespace aalwines::io
