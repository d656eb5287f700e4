#pragma once
/// \file boolean_eval.hpp
/// The evaluator of every non-ranked Query AST root: AND/OR trees, bare
/// PHRASE/NEAR groups, and the terms and bags nested inside them. (Ranked
/// term/bag roots go to the Block-Max MaxScore engine of topk.hpp.)
///
/// The tree compiles into small doc-order operators over leaf cursors that
/// the caller opens — a Searcher's segment/snapshot cursors, or the term
/// router's decoded cursors over fetched lists:
///
///   AND     one leaf intersection over its term children and the terms of
///           its PHRASE/NEAR children: the rarest member drives, followers
///           seek rarest-first, Bloom chains of the follower terms reject
///           candidates before any seek, tombstoned docs drop at the
///           driver, and positions are checked on the survivors only.
///           Nested AND/OR/bag children join the intersection as single
///           members. A bare PHRASE/NEAR root is an AND of its constraint.
///   OR/bag  a union that sums tfs where documents overlap.
///
/// tf follows query_ast.hpp: AND/OR sum their children's tfs, PHRASE/NEAR
/// count matches. Followers skip whole postings blocks through their skip
/// data, nested operands included.
///
/// Deadline: the operators share one step counter that reads the clock
/// every 256 steps. Once it expires no further document is emitted, so a
/// late query returns a doc-order prefix of its matches — a valid subset
/// for every tree shape.

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "postings/bloom.hpp"
#include "postings/cursor.hpp"
#include "postings/query.hpp"
#include "search/query_ast.hpp"
#include "util/error.hpp"

namespace hetindex {

class TombstoneSet;  // live/tombstones.hpp

/// Where the evaluator's leaves come from.
struct BooleanLeaves {
  /// The term's cursor, or nullptr when the view holds no postings for it.
  /// `with_positions` is set for PHRASE/NEAR operands only.
  std::function<std::unique_ptr<PostingsCursor>(const std::string& term, bool with_positions)>
      open;
  /// The term's Bloom rejection chain; unset means no filters.
  std::function<BloomChain(const std::string& term)> bloom;
};

struct BooleanResult {
  QueryPostings matches;  ///< doc order, tombstones dropped, no positions
  bool degraded = false;  ///< deadline expired: `matches` is a doc-order prefix
  std::uint64_t blocks_skipped = 0;   ///< postings blocks passed without decoding
  std::uint64_t blooms_rejected = 0;  ///< candidates a Bloom chain refused
};

/// Evaluates a non-ranked tree. kInvalidArgument when a PHRASE/NEAR operand
/// carries no positions (an index built without them).
[[nodiscard]] Expected<BooleanResult> evaluate_boolean(
    const QueryNode& root, const BooleanLeaves& leaves, const TombstoneSet* excluded,
    std::optional<std::chrono::steady_clock::time_point> deadline);

}  // namespace hetindex
